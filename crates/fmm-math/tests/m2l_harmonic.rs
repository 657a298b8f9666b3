//! The harmonic M2L contraction ([`ExpansionOps::m2l_batch`] contracts only
//! the `α_z, β_z <= 1` core, folds the other multipoles onto it and fills the
//! other locals from it) against the full `|α| + |β| <= p` contraction kept
//! here as the reference, plus the harmonicity of the locals it produces and
//! the sizes of its tables.

use fmm_math::{nterms, power_series, DerivScratch, ExpansionOps, M2L_LANES, STOKESLET_CHANNELS};
use geom::Vec3;
use rand::prelude::*;

/// A unit vector in a random direction.
fn direction(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        );
        if let Some(u) = v.normalized() {
            return u;
        }
    }
}

/// `channels` stacked multipoles of random charges in the unit ball around
/// the source center: `M_α = Σ q (y − c)^α / α!`.
fn multipole(ops: &ExpansionOps, rng: &mut StdRng, channels: usize) -> Vec<f64> {
    let nt = ops.nterms();
    let mut m = vec![0.0; channels * nt];
    let mut pow = vec![0.0; nt];
    for c in 0..channels {
        for _ in 0..6 {
            let y = direction(rng) * rng.random_range(0.0..1.0);
            let q = rng.random_range(-1.0..1.0);
            power_series(y, ops.set(), &mut pow);
            for (m, p) in m[c * nt..(c + 1) * nt].iter_mut().zip(&pow) {
                *m += q * p;
            }
        }
    }
    m
}

/// The full contraction `L_β += Σ_{|α|+|β|<=p} (−1)^{|α|} M_α ∂^{α+β}(1/r)`
/// of every source, and per coefficient the scale its rounding is measured
/// against: the largest sum of term magnitudes among the coefficients of
/// its channel and total order (folds and fills mix exactly those, and a
/// single entry of `∂^γ(1/r)` may cancel far below its neighbours').
fn reference(ops: &ExpansionOps, m: &[Vec<f64>], r: &[Vec3], channels: usize) -> [Vec<f64>; 2] {
    let (set, nt, p) = (ops.set(), ops.nterms(), ops.order());
    let (mut l, mut size) = (vec![0.0; channels * nt], vec![0.0; channels * nt]);
    let mut scratch = DerivScratch::default();
    for (m, &r) in m.iter().zip(r) {
        let t = ops.deriv_tensor(&[r], &mut scratch);
        for c in 0..channels {
            for (b, (bi, bj, bk)) in set.iter() {
                for a in 0..nterms(p - set.total_order(b)) {
                    let (ai, aj, ak) = set.tuple(a);
                    let t = t[set.idx(ai + bi, aj + bj, ak + bk)][0];
                    let term = ops.sign(a) * m[c * nt + a] * t;
                    l[c * nt + b] += term;
                    size[c * nt + b] += term.abs();
                }
            }
        }
    }
    let order_of = |i: usize| (i / nt, set.total_order(i % nt));
    let scale = (0..size.len())
        .map(|i| {
            (0..size.len())
                .filter(|&j| order_of(j) == order_of(i))
                .map(|j| size[j])
                .fold(0.0, f64::max)
        })
        .collect();
    [l, scale]
}

/// `k` sources at separation ratio `ratio` (unit-ball clusters, so `|r|` is
/// the ratio) through `m2l_batch` in `chunks(M2L_LANES)`, with the reference.
fn run(
    ops: &ExpansionOps,
    rng: &mut StdRng,
    k: usize,
    ratio: f64,
    channels: usize,
) -> (Vec<f64>, [Vec<f64>; 2]) {
    let m: Vec<Vec<f64>> = (0..k).map(|_| multipole(ops, rng, channels)).collect();
    let r: Vec<Vec3> = (0..k).map(|_| direction(rng) * ratio).collect();
    let mut got = vec![0.0; channels * ops.nterms()];
    let mut scratch = DerivScratch::default();
    let refs: Vec<&[f64]> = m.iter().map(Vec::as_slice).collect();
    for (m, r) in refs.chunks(M2L_LANES).zip(r.chunks(M2L_LANES)) {
        ops.m2l_batch(m, r, &mut got, channels, &mut scratch);
    }
    (got, reference(ops, &m, &r, channels))
}

/// Every coefficient of a batch equals the full contraction to 1e-12 of its
/// terms' magnitude, at every order 0..=10, one and seven channels, every
/// number of live lanes, and separations from 1.5 to 20 cluster radii.
#[test]
fn batch_equals_the_full_contraction() {
    let mut rng = StdRng::seed_from_u64(29);
    for p in 0..=10 {
        let ops = ExpansionOps::new(p);
        let nt = ops.nterms();
        for channels in [1, STOKESLET_CHANNELS] {
            for live in 1..=M2L_LANES {
                for ratio in [1.5, 2.0, 3.0, 5.0, 10.0, 20.0] {
                    let (got, [want, scale]) = run(&ops, &mut rng, live, ratio, channels);
                    for i in 0..got.len() {
                        let err = (got[i] - want[i]).abs();
                        assert!(
                            err <= 1e-12 * scale[i],
                            "p={p} ch={channels} live={live} ratio={ratio} β={}: {} vs {} \
                             (scale {})",
                            i % nt,
                            got[i],
                            want[i],
                            scale[i]
                        );
                    }
                }
            }
        }
    }
}

/// The locals satisfy `L_{β+2x} + L_{β+2y} + L_{β+2z} ≈ 0` for every
/// `|β| <= p − 2` — the field they expand is harmonic, and the truncation
/// keeps all three terms — over lists of several batches.
#[test]
fn locals_are_harmonic() {
    let mut rng = StdRng::seed_from_u64(11);
    for p in 2..=10 {
        let ops = ExpansionOps::new(p);
        let (set, nt) = (ops.set(), ops.nterms());
        for channels in [1, STOKESLET_CHANNELS] {
            for ratio in [1.5, 4.0, 20.0] {
                let (l, [_, scale]) = run(&ops, &mut rng, 2 * M2L_LANES + 3, ratio, channels);
                for c in 0..channels {
                    for (b, (i, j, k)) in set.iter() {
                        if set.total_order(b) + 2 > p {
                            continue;
                        }
                        let at = |i, j, k| c * nt + set.idx(i, j, k);
                        let three = [at(i + 2, j, k), at(i, j + 2, k), at(i, j, k + 2)];
                        let lap: f64 = three.iter().map(|&x| l[x]).sum();
                        let tol = 1e-12 * three.iter().map(|&x| scale[x]).fold(0.0, f64::max);
                        assert!(
                            lap.abs() <= tol,
                            "p={p} ch={channels} ratio={ratio} β=({i},{j},{k}): {lap} > {tol}"
                        );
                    }
                }
            }
        }
    }
}

/// The contracted core has `Σₘ (2m+1)(p−m+1)²` terms and every `γ_z >= 2`
/// index is one fold and one fill: 532 and 35 at p = 6, against the full
/// contraction's 924 terms.
#[test]
fn table_sizes_are_pinned() {
    let ops = ExpansionOps::new(6);
    assert_eq!(ops.m2l_terms(), 532);
    assert_eq!(ops.m2l_folds(), 35);
    for p in 0..=10 {
        let ops = ExpansionOps::new(p);
        let core: usize = (0..=p).map(|m| (2 * m + 1) * (p - m + 1).pow(2)).sum();
        assert_eq!(ops.m2l_terms(), core, "p={p}");
        assert_eq!(ops.m2l_folds(), nterms(p) - (p + 1).pow(2), "p={p}");
    }
}
