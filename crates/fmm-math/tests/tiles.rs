//! The SoA tile operators against scalar references kept here: the pair
//! formulas as a plain double loop over `Vec3`s (the pre-tile P2P, which
//! divides twice per pair and sums per target before adding), and the
//! expansion operators with their peel lookups done through
//! `MultiIndexSet::idx`. The single-precision split P2P is held to the same
//! pair references with an f32-scaled bound.

use fmm_math::{
    power_series, BodyTile, ExpansionOps, FieldTile, GravityKernel, Kernel, SplitTile,
    StokesletKernel, STOKESLET_CHANNELS, TILE_BLOCK,
};
use geom::Vec3;
use proptest::prelude::*;
use rand::prelude::*;

/// Lane remainders on either side of the f64 tile form's 2-wide (SSE2)
/// loop and the split form's 4-wide (SSE2) and 8-wide (AVX2) rows, plus one
/// past the adapter block.
const SIZES: [usize; 13] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, TILE_BLOCK + 1];

fn points(rng: &mut StdRng, n: usize) -> Vec<Vec3> {
    (0..n)
        .map(|_| Vec3::new(rng.random_f64(), rng.random_f64(), rng.random_f64()))
        .collect()
}

/// `n * sd` strengths in [-1, 1), AoS.
fn strengths(rng: &mut StdRng, n: usize, sd: usize) -> Vec<f64> {
    (0..n * sd).map(|_| rng.random_range(-1.0..1.0)).collect()
}

/// Owned SoA lanes of a body set, the way a solver would hold them.
struct Soa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    /// Channel-major, stride = body count.
    strength: Vec<f64>,
}

impl Soa {
    fn new(pos: &[Vec3], strength: &[f64], sd: usize) -> Self {
        let n = pos.len();
        Soa {
            x: pos.iter().map(|p| p.x).collect(),
            y: pos.iter().map(|p| p.y).collect(),
            z: pos.iter().map(|p| p.z).collect(),
            strength: (0..sd * n)
                .map(|k| strength[sd * (k % n) + k / n])
                .collect(),
        }
    }

    fn tile(&self) -> BodyTile<'_> {
        BodyTile::new(&self.x, &self.y, &self.z, &self.strength, self.x.len())
    }
}

/// Owned output lanes.
struct Field {
    pot: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl Field {
    fn zeros(n: usize) -> Self {
        Self::from_aos(&vec![0.0; n], &vec![Vec3::ZERO; n])
    }

    fn from_aos(pot: &[f64], out: &[Vec3]) -> Self {
        Field {
            pot: pot.to_vec(),
            x: out.iter().map(|o| o.x).collect(),
            y: out.iter().map(|o| o.y).collect(),
            z: out.iter().map(|o| o.z).collect(),
        }
    }

    fn tile(&mut self) -> FieldTile<'_> {
        FieldTile::new(&mut self.pot, &mut self.x, &mut self.y, &mut self.z)
    }

    fn vec(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    fn is_finite(&self, i: usize) -> bool {
        self.pot[i].is_finite() && self.vec(i).is_finite()
    }
}

/// Per target: (potential, field, Σ|potential terms|, Σ|field terms|). The
/// magnitude sums are the scale a reordering of the sum can move by.
type Reference = Vec<(f64, Vec3, f64, f64)>;

/// Gravity pairs as the pre-tile scalar loop wrote them; `skip_own` drops
/// i == j.
fn gravity_reference(eps: f64, t: &[Vec3], s: &[Vec3], q: &[f64], skip_own: bool) -> Reference {
    let eps2 = eps * eps;
    t.iter()
        .enumerate()
        .map(|(i, &x)| {
            let (mut phi, mut acc, mut phi_abs, mut acc_abs) = (0.0, Vec3::ZERO, 0.0, 0.0);
            for (j, (&y, &qj)) in s.iter().zip(q).enumerate() {
                if skip_own && i == j {
                    continue;
                }
                let d = y - x;
                let r2 = d.norm_sq() + eps2;
                let inv_r = 1.0 / r2.sqrt();
                let term = d * (qj * (inv_r / r2));
                phi += qj * inv_r;
                acc += term;
                phi_abs += (qj * inv_r).abs();
                acc_abs += term.norm();
            }
            (phi, acc, phi_abs, acc_abs)
        })
        .collect()
}

/// Regularized-Stokeslet pairs as the pre-tile scalar loop wrote them.
fn stokeslet_reference(
    k: &StokesletKernel,
    t: &[Vec3],
    s: &[Vec3],
    f: &[f64],
    skip_own: bool,
) -> Reference {
    let e2 = k.epsilon * k.epsilon;
    let pref = 1.0 / (8.0 * std::f64::consts::PI * k.mu);
    t.iter()
        .enumerate()
        .map(|(i, &x)| {
            let (mut u, mut u_abs) = (Vec3::ZERO, 0.0);
            for (j, &y) in s.iter().enumerate() {
                if skip_own && i == j {
                    continue;
                }
                let fj = Vec3::new(f[3 * j], f[3 * j + 1], f[3 * j + 2]);
                let d = x - y;
                let r2 = d.norm_sq();
                let re2 = r2 + e2;
                let inv = 1.0 / (re2 * re2.sqrt());
                let term = (fj * (r2 + 2.0 * e2) + d * fj.dot(d)) * inv;
                u += term;
                u_abs += term.norm();
            }
            (0.0, u * pref, 0.0, u_abs * pref)
        })
        .collect()
}

/// How far the f64 tile form may sit from the reference, per unit of
/// Σ|terms|: the reassociation of a sum.
const F64_TOL: f64 = 1e-13;
/// The same for the single-precision split form: f32 rounding of each pair
/// and of the partial sums. One gravity pair rounds ≈ 24 times on its way
/// to a field component (unit roundoff u = 2⁻²⁴), so a term is good to
/// ≈ 24u ≈ 1.4e-6 at worst and to a few u typically; the sums' own rounding
/// adds about u per term in random directions.
const F32_TOL: f64 = 2e-6;

fn assert_matches(got: &Field, want: &Reference, tol: f64, what: &str) -> Result<(), String> {
    for (i, &(phi, v, phi_abs, v_abs)) in want.iter().enumerate() {
        let dp = (got.pot[i] - phi).abs();
        let dv = (got.vec(i) - v).norm();
        if dp > tol * phi_abs || dv > tol * v_abs {
            return Err(format!(
                "{what}: target {i} of {}: pot {} vs {phi}, field {:?} vs {v:?}",
                want.len(),
                got.pot[i],
                got.vec(i)
            ));
        }
    }
    Ok(())
}

/// `tgt`'s outputs from `src` through the f64 tile form.
fn tile_p2p<K: Kernel>(k: &K, tgt: &Soa, src: &Soa, self_tile: bool) -> Field {
    let mut out = Field::zeros(tgt.x.len());
    k.p2p_tile(tgt.tile(), &mut out.tile(), src.tile(), self_tile);
    out
}

/// `tgt`'s outputs from `src` through the split form, in `scratch`.
fn split_p2p<K: Kernel>(
    k: &K,
    scratch: &mut SplitTile,
    tgt: &Soa,
    src: &Soa,
    self_tile: bool,
) -> Field {
    let mut out = Field::zeros(tgt.x.len());
    scratch.load(tgt.tile());
    k.p2p_split(scratch, &mut out.tile(), src.tile(), self_tile);
    out
}

fn bits(f: &Field) -> Vec<u64> {
    [&f.pot, &f.x, &f.y, &f.z]
        .into_iter()
        .flatten()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Distinct target and source tiles, every size pairing.
    #[test]
    fn p2p_tile_matches_scalar_reference(seed in any::<u64>(), eps in 0.0f64..0.05) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gravity = GravityKernel::new(eps);
        let stokes = StokesletKernel::new(eps, 0.7);
        for nt in SIZES {
            for ns in SIZES {
                let (t, s) = (points(&mut rng, nt), points(&mut rng, ns));
                let targets = Soa::new(&t, &[], 0);

                let q = strengths(&mut rng, ns, 1);
                let out = tile_p2p(&gravity, &targets, &Soa::new(&s, &q, 1), false);
                let want = gravity_reference(eps, &t, &s, &q, false);
                prop_assert_eq!(assert_matches(&out, &want, F64_TOL, "gravity"), Ok(()));

                let f = strengths(&mut rng, ns, 3);
                let out = tile_p2p(&stokes, &targets, &Soa::new(&s, &f, 3), false);
                let want = stokeslet_reference(&stokes, &t, &s, &f, false);
                prop_assert_eq!(assert_matches(&out, &want, F64_TOL, "stokeslet"), Ok(()));
            }
        }
    }

    /// The split form against the same references, every size pairing
    /// (across the 4- and 8-wide f32 rows' remainders and past one
    /// `TILE_BLOCK` of sources), one scratch reused throughout, and
    /// continuing the f64 sums `out` already held.
    #[test]
    fn p2p_split_matches_scalar_reference(seed in any::<u64>(), eps in 0.0f64..0.05) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gravity = GravityKernel::new(eps);
        let stokes = StokesletKernel::new(eps, 0.7);
        let mut scratch = SplitTile::default();
        for nt in SIZES {
            for ns in SIZES {
                let (t, s) = (points(&mut rng, nt), points(&mut rng, ns));
                let targets = Soa::new(&t, &[], 0);

                let q = strengths(&mut rng, ns, 1);
                let out = split_p2p(&gravity, &mut scratch, &targets, &Soa::new(&s, &q, 1), false);
                let want = gravity_reference(eps, &t, &s, &q, false);
                prop_assert_eq!(assert_matches(&out, &want, F32_TOL, "gravity"), Ok(()));

                let f = strengths(&mut rng, ns, 3);
                let out = split_p2p(&stokes, &mut scratch, &targets, &Soa::new(&s, &f, 3), false);
                let want = stokeslet_reference(&stokes, &t, &s, &f, false);
                prop_assert_eq!(assert_matches(&out, &want, F32_TOL, "stokeslet"), Ok(()));
            }
        }

        // Two source tiles into one output: the second adds to what the
        // first left, in f64.
        let (t, s) = (points(&mut rng, 9), points(&mut rng, 2 * TILE_BLOCK + 3));
        let q = strengths(&mut rng, s.len(), 1);
        let (s1, s2) = s.split_at(TILE_BLOCK - 1);
        let (q1, q2) = q.split_at(TILE_BLOCK - 1);
        let mut out = Field::zeros(t.len());
        scratch.load(Soa::new(&t, &[], 0).tile());
        for (s, q) in [(s1, q1), (s2, q2)] {
            gravity.p2p_split(&mut scratch, &mut out.tile(), Soa::new(s, q, 1).tile(), false);
        }
        let want = gravity_reference(eps, &t, &s, &q, false);
        prop_assert_eq!(assert_matches(&out, &want, F32_TOL, "gravity, two tiles"), Ok(()));
    }

    /// Self tiles, in both P2P forms: gravity drops its own index softened
    /// or not; the Stokeslet drops it only in the singular limit and
    /// otherwise keeps the finite self term.
    #[test]
    fn self_tile_applies_the_own_index_rule(seed in any::<u64>(), eps in 1e-3f64..0.05) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut scratch = SplitTile::default();
        for n in SIZES {
            let p = points(&mut rng, n);
            let q = strengths(&mut rng, n, 1);
            let f = strengths(&mut rng, n, 3);
            for eps in [0.0, eps] {
                let gravity = GravityKernel::new(eps);
                let bodies = Soa::new(&p, &q, 1);
                let want = gravity_reference(eps, &p, &p, &q, true);
                for (out, tol) in [
                    (tile_p2p(&gravity, &bodies, &bodies, true), F64_TOL),
                    (split_p2p(&gravity, &mut scratch, &bodies, &bodies, true), F32_TOL),
                ] {
                    prop_assert_eq!(assert_matches(&out, &want, tol, "gravity self"), Ok(()));
                    prop_assert!((0..n).all(|i| out.is_finite(i)));
                }

                let stokes = StokesletKernel::new(eps, 1.3);
                let bodies = Soa::new(&p, &f, 3);
                let want = stokeslet_reference(&stokes, &p, &p, &f, eps == 0.0);
                for (out, tol) in [
                    (tile_p2p(&stokes, &bodies, &bodies, true), F64_TOL),
                    (split_p2p(&stokes, &mut scratch, &bodies, &bodies, true), F32_TOL),
                ] {
                    prop_assert_eq!(assert_matches(&out, &want, tol, "stokeslet self"), Ok(()));
                    prop_assert!((0..n).all(|i| out.is_finite(i)));
                }
            }
        }
    }

    /// The `&[Vec3]` adapters are the tile forms: same bits, blocked or not,
    /// continuing whatever the accumulators already held.
    #[test]
    fn aos_adapters_are_bit_identical_to_tile_forms(seed in any::<u64>(), eps in 0.0f64..0.05) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = ExpansionOps::new(5);
        let n = 2 * TILE_BLOCK + 37;
        let (t, s) = (points(&mut rng, n), points(&mut rng, n - 100));
        let pot0 = strengths(&mut rng, n, 1);
        let out0: Vec<Vec3> = points(&mut rng, n);
        let center = Vec3::new(0.5, 0.5, 0.5);

        fn check<K: Kernel>(
            k: &K,
            ops: &ExpansionOps,
            rng: &mut StdRng,
            (t, s, center): (&[Vec3], &[Vec3], Vec3),
            (pot0, out0): (&[f64], &[Vec3]),
        ) -> Result<(), String> {
            let (n, sd) = (t.len(), k.strength_dim());
            let stride = k.channels() * ops.nterms();
            let (qt, qs) = (strengths(rng, n, sd), strengths(rng, s.len(), sd));
            let (targets, sources) = (Soa::new(t, &qt, sd), Soa::new(s, &qs, sd));
            let mut pow = Vec::new();

            for self_tile in [false, true] {
                let src = if self_tile { &targets } else { &sources };
                let (spos, sq) = if self_tile { (t, &qt) } else { (s, &qs) };
                let mut tile = Field::from_aos(pot0, out0);
                k.p2p_tile(targets.tile(), &mut tile.tile(), src.tile(), self_tile);
                let (mut pot, mut out) = (pot0.to_vec(), out0.to_vec());
                k.p2p(t, &mut pot, &mut out, spos, sq, self_tile);
                if bits(&tile) != bits(&Field::from_aos(&pot, &out)) {
                    return Err(format!("{} p2p (self {self_tile})", k.name()));
                }
            }

            let mut m_tile = vec![0.0; stride];
            k.p2m_tile(ops, center, sources.tile(), &mut m_tile, &mut pow);
            let mut m = vec![0.0; stride];
            k.p2m(ops, center, s, &qs, &mut m, &mut pow);
            if m != m_tile {
                return Err(format!("{} p2m", k.name()));
            }

            let mut tile = Field::from_aos(pot0, out0);
            k.l2p_tile(ops, center, &m, targets.tile(), &mut tile.tile(), &mut pow);
            let (mut pot, mut out) = (pot0.to_vec(), out0.to_vec());
            k.l2p(ops, center, &m, t, &mut pot, &mut out, &mut pow);
            if bits(&tile) != bits(&Field::from_aos(&pot, &out)) {
                return Err(format!("{} l2p", k.name()));
            }
            Ok(())
        }

        let io = (pot0.as_slice(), out0.as_slice());
        prop_assert_eq!(check(&GravityKernel::new(eps), &ops, &mut rng, (&t, &s, center), io), Ok(()));
        prop_assert_eq!(check(&StokesletKernel::new(eps, 1.0), &ops, &mut rng, (&t, &s, center), io), Ok(()));
    }

    /// A NaN coordinate is never masked away, in either P2P form: the
    /// body's own output and every target that sees it as a source go
    /// non-finite, in a self tile too, so the audits downstream catch it.
    #[test]
    fn nan_position_yields_non_finite_output(seed in any::<u64>(), eps in 0.0f64..0.05, at in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 5;
        let mut p = points(&mut rng, n);
        p[at].y = f64::NAN;
        let clean = points(&mut rng, 3);

        fn check<K: Kernel>(k: &K, rng: &mut StdRng, p: &[Vec3], clean: &[Vec3], at: usize) -> bool {
            let sd = k.strength_dim();
            let q = strengths(rng, p.len(), sd);
            let bodies = Soa::new(p, &q, sd);
            let cq = strengths(rng, clean.len(), sd);
            let (targets, sources) = (Soa::new(clean, &[], 0), Soa::new(clean, &cq, sd));
            let mut scratch = SplitTile::default();
            let mut p2p = |tgt: &Soa, src: &Soa, self_tile: bool, split: bool| {
                if split {
                    split_p2p(k, &mut scratch, tgt, src, self_tile)
                } else {
                    tile_p2p(k, tgt, src, self_tile)
                }
            };
            [false, true].into_iter().all(|split| {
                let own = p2p(&bodies, &bodies, true, split);
                // As a source against clean targets, and as a target of
                // clean sources.
                let seen = p2p(&targets, &bodies, false, split);
                let hit = p2p(&bodies, &sources, false, split);
                (0..p.len()).all(|i| !own.is_finite(i))
                    && (0..clean.len()).all(|i| !seen.is_finite(i))
                    && !hit.is_finite(at)
                    && (0..p.len()).filter(|&i| i != at).all(|i| hit.is_finite(i))
            })
        }

        prop_assert!(check(&GravityKernel::new(eps), &mut rng, &p, &clean, at));
        prop_assert!(check(&StokesletKernel::new(eps, 1.0), &mut rng, &p, &clean, at));
    }

    /// The peel tables are `MultiIndexSet::idx` lookups done once: gravity
    /// L2P and Stokeslet P2M reproduce the lookup forms bit for bit.
    #[test]
    fn peel_tables_reproduce_idx_lookups(seed in any::<u64>(), order in 0usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = ExpansionOps::new(order);
        let (set, nt) = (ops.set(), ops.nterms());
        let center = Vec3::new(0.4, 0.6, 0.5);
        let p = points(&mut rng, 7);
        let mut pow = vec![0.0; nt];

        // Gravity L2P: φ and ∇φ of a Taylor sum, peeling by lookup.
        let l = strengths(&mut rng, nt, 1);
        let mut out = Field::zeros(p.len());
        let mut scratch = Vec::new();
        GravityKernel::default().l2p_tile(
            &ops, center, &l, Soa::new(&p, &[], 0).tile(), &mut out.tile(), &mut scratch,
        );
        for (i, &x) in p.iter().enumerate() {
            power_series(x - center, set, &mut pow);
            let (mut phi, mut grad) = (0.0, Vec3::ZERO);
            for (b, (bi, bj, bk)) in set.iter() {
                phi += l[b] * pow[b];
                if bi > 0 {
                    grad.x += l[b] * pow[set.idx(bi - 1, bj, bk)];
                }
                if bj > 0 {
                    grad.y += l[b] * pow[set.idx(bi, bj - 1, bk)];
                }
                if bk > 0 {
                    grad.z += l[b] * pow[set.idx(bi, bj, bk - 1)];
                }
            }
            prop_assert_eq!(out.pot[i].to_bits(), phi.to_bits());
            prop_assert_eq!(out.vec(i), grad);
        }

        // Stokeslet P2M: charge moments plus dipole moments, by lookup.
        let f = strengths(&mut rng, p.len(), 3);
        let mut m = vec![0.0; STOKESLET_CHANNELS * nt];
        StokesletKernel::default().p2m_tile(&ops, center, Soa::new(&p, &f, 3).tile(), &mut m, &mut scratch);
        let mut want = vec![0.0; STOKESLET_CHANNELS * nt];
        for (s, &y) in p.iter().enumerate() {
            let fs = Vec3::new(f[3 * s], f[3 * s + 1], f[3 * s + 2]);
            power_series(y - center, set, &mut pow);
            for (a, (ai, aj, ak)) in set.iter() {
                want[a] += fs.x * pow[a];
                want[nt + a] += fs.y * pow[a];
                want[2 * nt + a] += fs.z * pow[a];
                let mut dip = 0.0;
                if ai > 0 {
                    dip += fs.x * pow[set.idx(ai - 1, aj, ak)];
                }
                if aj > 0 {
                    dip += fs.y * pow[set.idx(ai, aj - 1, ak)];
                }
                if ak > 0 {
                    dip += fs.z * pow[set.idx(ai, aj, ak - 1)];
                }
                want[3 * nt + a] += dip;
                want[4 * nt + a] += y.x * dip;
                want[5 * nt + a] += y.y * dip;
                want[6 * nt + a] += y.z * dip;
            }
        }
        prop_assert_eq!(m, want);
    }
}
