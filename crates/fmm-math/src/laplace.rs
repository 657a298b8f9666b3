use crate::expansion::ExpansionOps;
use crate::kernel::Kernel;
use crate::powers::power_series;
use crate::tile::{BodyTile, FieldTile, PairRow, SplitPoint, SplitRow, SplitTile};
use geom::Vec3;

/// The Newtonian gravity / Coulomb kernel `1/r` (one harmonic channel).
///
/// Conventions: for sources of mass `m_s` at `y_s`, the kernel computes per
/// target `x`
///
/// * potential `φ(x) = Σ_s m_s / |x − y_s|` (softened in P2P), and
/// * field `a(x) = ∇φ(x) = Σ_s m_s (y_s − x) / |x − y_s|³`,
///
/// i.e. the *attractive* acceleration direction; callers multiply by the
/// gravitational constant G. `softening` (Plummer softening ε) regularizes
/// close encounters in the direct part only — the far field expands the
/// unsoftened kernel, which is exact for well-separated cells when ε is
/// small compared to cell distances.
#[derive(Clone, Copy, Debug)]
pub struct GravityKernel {
    pub softening: f64,
}

impl GravityKernel {
    pub fn new(softening: f64) -> Self {
        assert!(softening >= 0.0);
        GravityKernel { softening }
    }

    /// The pair row [`Kernel::p2p_split`] sweeps `src` with.
    pub(crate) fn split_row<'a>(&self, src: BodyTile<'a>) -> GravityRow<'a> {
        GravityRow {
            q: src.channel(0),
            eps2: (self.softening * self.softening) as f32,
        }
    }
}

/// Gravity's split pair row: one source tile's masses, and ε² in f32.
#[derive(Clone, Copy)]
pub(crate) struct GravityRow<'a> {
    q: &'a [f64],
    eps2: f32,
}

impl PairRow for GravityRow<'_> {
    fn skips_own(self) -> bool {
        true
    }

    #[inline(always)]
    fn row<const W: usize>(self, t: &mut SplitRow<'_>, s: SplitPoint, j: usize) {
        let (qj, eps2) = (self.q[j] as f32, self.eps2);
        let pot = t.pot.as_chunks_mut::<W>().0;
        let nb = pot.len();
        let [xh, xl, yh, yl, zh, zl] =
            [t.xh, t.xl, t.yh, t.yl, t.zh, t.zl].map(|l| &l.as_chunks::<W>().0[..nb]);
        let (ax, ay, az) = (
            &mut t.ax.as_chunks_mut::<W>().0[..nb],
            &mut t.ay.as_chunks_mut::<W>().0[..nb],
            &mut t.az.as_chunks_mut::<W>().0[..nb],
        );
        // `p2p_tile`'s row in f32, one chunk of targets at a time (read
        // whole before it is written, so it vectorises as one register),
        // the separation from both halves.
        for b in 0..nb {
            let (xh, xl, yh, yl, zh, zl) = (xh[b], xl[b], yh[b], yl[b], zh[b], zl[b]);
            let (mut p, mut x, mut y, mut z) = (pot[b], ax[b], ay[b], az[b]);
            for k in 0..W {
                let dx = (s.xh - xh[k]) + (s.xl - xl[k]);
                let dy = (s.yh - yh[k]) + (s.yl - yl[k]);
                let dz = (s.zh - zh[k]) + (s.zl - zl[k]);
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let inv_r = 1.0 / r2.sqrt();
                let w = qj * (inv_r * inv_r * inv_r);
                p[k] += qj * inv_r;
                x[k] += dx * w;
                y[k] += dy * w;
                z[k] += dz * w;
            }
            (pot[b], ax[b], ay[b], az[b]) = (p, x, y, z);
        }
    }
}

impl Default for GravityKernel {
    fn default() -> Self {
        GravityKernel { softening: 0.0 }
    }
}

impl Kernel for GravityKernel {
    fn channels(&self) -> usize {
        1
    }

    fn strength_dim(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "gravity"
    }

    fn p2m_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        src: BodyTile<'_>,
        m: &mut [f64],
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(m.len(), nt);
        pow_scratch.resize(nt, 0.0);
        for (s, &q) in src.channel(0).iter().enumerate() {
            power_series(src.pos(s) - center, ops.set(), pow_scratch);
            for i in 0..nt {
                m[i] += q * pow_scratch[i];
            }
        }
    }

    fn l2p_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(l.len(), nt);
        debug_assert_eq!(out.len(), tgt.len());
        pow_scratch.resize(nt, 0.0);
        let pow = &mut pow_scratch[..nt];
        for i in 0..tgt.len() {
            power_series(tgt.pos(i) - center, ops.set(), pow);
            let phi: f64 = l.iter().zip(pow.iter()).fold(0.0, |s, (v, p)| s + v * p);
            // ∂_d φ = Σ_{β_d>0} L_β (x−c)^{β−e_d}/(β−e_d)!
            let grad = |axis| {
                ops.peel(axis)
                    .iter()
                    .fold(0.0, |g, &(b, lo)| g + l[b as usize] * pow[lo as usize])
            };
            out.pot[i] += phi;
            out.x[i] += grad(0);
            out.y[i] += grad(1);
            out.z[i] += grad(2);
        }
    }

    fn p2p_tile(
        &self,
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    ) {
        let n = tgt.len();
        assert_eq!(out.len(), n, "output tile out of sync with targets");
        if self_tile {
            assert_eq!(src.len(), n, "a self tile is one body set");
        }
        let eps2 = self.softening * self.softening;
        let (tx, ty, tz) = (&tgt.x[..n], &tgt.y[..n], &tgt.z[..n]);
        let pot = &mut out.pot[..n];
        let (ax, ay, az) = (&mut out.x[..n], &mut out.y[..n], &mut out.z[..n]);
        let q = src.channel(0);
        for j in 0..src.len() {
            let (sx, sy, sz, qj) = (src.x[j], src.y[j], src.z[j], q[j]);
            // Own index: evaluated with the rest of the row (full-width
            // vector loop, no split) and then put back — skipped by index,
            // whatever r² + ε² came to.
            let own = self_tile.then(|| (pot[j], ax[j], ay[j], az[j]));
            // One source against every target: each target's update is
            // independent (no reduction across iterations), so this
            // vectorises; one `sqrt` and one divide per pair, `1/r³` by
            // multiplication.
            for i in 0..n {
                let dx = sx - tx[i];
                let dy = sy - ty[i];
                let dz = sz - tz[i];
                let r2 = dx * dx + dy * dy + dz * dz + eps2;
                let inv_r = 1.0 / r2.sqrt();
                let w = qj * (inv_r * inv_r * inv_r);
                pot[i] += qj * inv_r;
                ax[i] += dx * w;
                ay[i] += dy * w;
                az[i] += dz * w;
            }
            if let Some((p, x, y, z)) = own {
                (pot[j], ax[j], ay[j], az[j]) = (p, x, y, z);
            }
        }
    }

    fn p2p_split(
        &self,
        tgt: &mut SplitTile,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    ) {
        tgt.sweep(out, src, self_tile, self.split_row(src));
    }

    fn p2p_flops_per_pair(&self) -> f64 {
        // A cost-*model* weight (relative price of a pair against the
        // expansion ops on the virtual node), not a count of the
        // instructions `p2p_tile` issues: 3 sub + 5 r² + sqrt(≈4) + div(≈4)
        // + 1 + 6 fma + 2 ≈ 25. Kernel rewrites leave it alone so the
        // virtual clock does not move.
        25.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DerivScratch;

    fn cluster() -> (Vec<Vec3>, Vec<f64>) {
        let pos = vec![
            Vec3::new(0.1, 0.2, -0.1),
            Vec3::new(-0.2, 0.1, 0.15),
            Vec3::new(0.05, -0.25, 0.2),
            Vec3::new(-0.15, 0.0, -0.1),
        ];
        let mass = vec![1.0, 2.0, 0.5, 1.25];
        (pos, mass)
    }

    #[test]
    fn p2p_matches_closed_form_pair() {
        let k = GravityKernel::default();
        let t = [Vec3::ZERO];
        let s = [Vec3::new(2.0, 0.0, 0.0)];
        let q = [3.0];
        let mut pot = [0.0];
        let mut acc = [Vec3::ZERO];
        k.p2p(&t, &mut pot, &mut acc, &s, &q, false);
        assert!((pot[0] - 1.5).abs() < 1e-15);
        // attractive: points from target toward source (+x)
        assert!((acc[0].x - 3.0 / 4.0).abs() < 1e-15);
        assert_eq!(acc[0].y, 0.0);
    }

    #[test]
    fn p2p_self_interaction_skips_diagonal() {
        let k = GravityKernel::default();
        let (pos, mass) = cluster();
        let mut pot = vec![0.0; pos.len()];
        let mut acc = vec![Vec3::ZERO; pos.len()];
        k.p2p(&pos, &mut pot, &mut acc, &pos, &mass, true);
        assert!(pot.iter().all(|p| p.is_finite()));
        assert!(acc.iter().all(|a| a.is_finite()));
        // Newton's third law: Σ m_i a_i = 0 for internal forces.
        let net: Vec3 = pos.iter().enumerate().map(|(i, _)| acc[i] * mass[i]).sum();
        assert!(net.norm() < 1e-12, "net internal force {net:?}");
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let k = GravityKernel::new(0.1);
        let t = [Vec3::ZERO];
        let s = [Vec3::new(1e-12, 0.0, 0.0)];
        let q = [1.0];
        let mut pot = [0.0];
        let mut acc = [Vec3::ZERO];
        k.p2p(&t, &mut pot, &mut acc, &s, &q, false);
        assert!(pot[0] <= 10.0 + 1e-9); // 1/ε
                                        // force → 0 at zero separation: |a| = d/ε³ = 1e-9 up to rounding
        assert!(acc[0].norm() < 1e-9 * (1.0 + 1e-12));
    }

    #[test]
    fn expansion_path_matches_direct_far_field() {
        // P2M -> M2L -> L2P vs direct P2P for a well-separated target leaf.
        let k = GravityKernel::default();
        let (spos, mass) = cluster();
        let tpos = vec![Vec3::new(5.0, 0.3, -0.2), Vec3::new(5.2, -0.1, 0.1)];

        for (p, tol) in [(4usize, 1e-3), (8, 1e-6)] {
            let ops = ExpansionOps::new(p);
            let mut pow = Vec::new();
            let mut m = vec![0.0; ops.nterms()];
            k.p2m(&ops, Vec3::ZERO, &spos, &mass, &mut m, &mut pow);

            let local_center = Vec3::new(5.1, 0.1, 0.0);
            let mut l = vec![0.0; ops.nterms()];
            let mut ds = DerivScratch::default();
            let mut tens = Vec::new();
            ops.m2l(&m, local_center, &mut l, 1, &mut ds, &mut tens);

            let mut pot = vec![0.0; tpos.len()];
            let mut acc = vec![Vec3::ZERO; tpos.len()];
            k.l2p(&ops, local_center, &l, &tpos, &mut pot, &mut acc, &mut pow);

            let mut dpot = vec![0.0; tpos.len()];
            let mut dacc = vec![Vec3::ZERO; tpos.len()];
            k.p2p(&tpos, &mut dpot, &mut dacc, &spos, &mass, false);

            for i in 0..tpos.len() {
                let perr = (pot[i] - dpot[i]).abs() / dpot[i].abs();
                let aerr = (acc[i] - dacc[i]).norm() / dacc[i].norm();
                assert!(perr < tol, "p={p} potential err {perr}");
                assert!(aerr < tol * 10.0, "p={p} accel err {aerr}");
            }
        }
    }
}
