//! The far field's M2L against its `f64` oracles. The one-source
//! [`ExpansionOps::m2l`] contracts only the `α_z, β_z <= 1` harmonic core,
//! folds the other multipoles onto it and fills the other locals from it;
//! it is held to the full `|α| + |β| <= p` contraction kept here as the
//! reference. The single-precision [`ExpansionOps::m2l_batch`], over source
//! forms in cell units, is held to the one-source oracle at `f32`
//! precision. Plus the harmonicity of the locals and the sizes of the
//! tables.

use fmm_math::{
    nterms, power_series, DerivScratch, ExpansionOps, M2lScratch, M2lSource, M2L_LANES, MAX_ORDER,
    STOKESLET_CHANNELS,
};
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

/// `channels` stacked multipoles of random charges in the ball of radius
/// `radius` around the source center: `M_α = Σ q (y − c)^α / α!`.
fn multipole(ops: &ExpansionOps, rng: &mut StdRng, channels: usize, radius: f64) -> Vec<f64> {
    let nt = ops.nterms();
    let mut m = vec![0.0; channels * nt];
    let mut pow = vec![0.0; nt];
    for c in 0..channels {
        for _ in 0..6 {
            let y = direction(rng) * rng.random_range(0.0..radius);
            let q = rng.random_range(-1.0..1.0);
            power_series(y, ops.set(), &mut pow);
            for (m, p) in m[c * nt..(c + 1) * nt].iter_mut().zip(&pow) {
                *m += q * p;
            }
        }
    }
    m
}

/// A list of sources into one target of half-width 1: per source its
/// multipole, half-width and displacement `r = c_target − c_source`.
struct List {
    m: Vec<Vec<f64>>,
    w: Vec<f64>,
    r: Vec<Vec3>,
}

/// `k` sources, each at a random separation in `sep` target half-widths
/// with a half-width of 1/4, 1/2, 1, 2 or 4 target half-widths and its
/// charges in its cell's inscribed ball.
fn list(
    ops: &ExpansionOps,
    rng: &mut StdRng,
    k: usize,
    sep: std::ops::Range<f64>,
    channels: usize,
) -> List {
    let w: Vec<f64> = (0..k).map(|_| 2f64.powi(rng.random_range(-2..3))).collect();
    List {
        m: w.iter()
            .map(|&w| multipole(ops, rng, channels, w))
            .collect(),
        w,
        r: (0..k)
            .map(|_| direction(rng) * rng.random_range(sep.clone()))
            .collect(),
    }
}

/// Sources of the given half-widths into a target of half-width 1, each in
/// a random direction at the distance where the acceptance criterion
/// `√3 (w_s + w_t) < θ |r|` holds with a `θ` drawn from `theta`, with its
/// charges in its cell's inscribed ball.
fn accepted(
    ops: &ExpansionOps,
    rng: &mut StdRng,
    widths: &[f64],
    theta: std::ops::Range<f64>,
    channels: usize,
) -> List {
    List {
        m: widths
            .iter()
            .map(|&w| multipole(ops, rng, channels, w))
            .collect(),
        w: widths.to_vec(),
        r: widths
            .iter()
            .map(|&w| direction(rng) * (3f64.sqrt() * (w + 1.0) / rng.random_range(theta.clone())))
            .collect(),
    }
}

/// The worst error of the locals `got` against `want` in the target cell:
/// at random points `t` of the cell, `|Σ_β (got_β − want_β) t^β/β!|`
/// relative to `Σ_β |want_β t^β/β!|`, per channel.
fn cell_error(ops: &ExpansionOps, rng: &mut StdRng, got: &[f64], want: &[f64]) -> f64 {
    let nt = ops.nterms();
    let mut pow = vec![0.0; nt];
    let mut worst = 0.0f64;
    for _ in 0..8 {
        let t = Vec3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        );
        power_series(t, ops.set(), &mut pow);
        for (got, want) in got.chunks(nt).zip(want.chunks(nt)) {
            let (mut diff, mut size) = (0.0, 0.0);
            for ((g, w), t) in got.iter().zip(want).zip(&pow) {
                diff += (g - w) * t;
                size += (w * t).abs();
            }
            worst = worst.max(diff.abs() / size);
        }
    }
    worst
}

/// The full contraction `L_β += Σ_{|α|+|β|<=p} (−1)^{|α|} M_α ∂^{α+β}(1/r)`
/// of every source, and per coefficient the scale its rounding is measured
/// against: the largest sum of term magnitudes among the coefficients of
/// its channel and total order (folds and fills mix exactly those, and a
/// single entry of `∂^γ(1/r)` may cancel far below its neighbours').
fn reference(ops: &ExpansionOps, l: &List, channels: usize) -> [Vec<f64>; 2] {
    let (set, nt, p) = (ops.set(), ops.nterms(), ops.order());
    let (mut out, mut size) = (vec![0.0; channels * nt], vec![0.0; channels * nt]);
    let mut scratch = DerivScratch::default();
    for (m, &r) in l.m.iter().zip(&l.r) {
        let t = ops.deriv_tensor(&[r], &mut scratch);
        for c in 0..channels {
            for (b, (bi, bj, bk)) in set.iter() {
                for a in 0..nterms(p - set.total_order(b)) {
                    let (ai, aj, ak) = set.tuple(a);
                    let t = t[set.idx(ai + bi, aj + bj, ak + bk)][0];
                    let term = ops.sign(a) * m[c * nt + a] * t;
                    out[c * nt + b] += term;
                    size[c * nt + b] += term.abs();
                }
            }
        }
    }
    let group = |i: usize| (i / nt) * (p + 1) + set.total_order(i % nt);
    let mut largest = vec![0.0f64; channels * (p + 1)];
    for (i, s) in size.iter().enumerate() {
        largest[group(i)] = largest[group(i)].max(*s);
    }
    let scale = (0..size.len()).map(|i| largest[group(i)]).collect();
    [out, scale]
}

/// What the `f32` batch may be off by at order `p`, relative to a
/// coefficient's scale: `f32` rounding grown by the tensor recurrence,
/// which in single precision loses about a factor 2–2.5 per order (1 ε at
/// order 0, 51 ε at 6 and 1.5e3 ε at 10 relative to the largest entry of
/// the order, over displacements of 1.5–10 in every direction).
fn f32_bound(p: usize) -> f64 {
    4.0 * 2f64.powi(p as i32) * f64::from(f32::EPSILON)
}

/// The list through the one-source `f64` oracle, one call per source.
fn oracle(ops: &ExpansionOps, l: &List, channels: usize) -> Vec<f64> {
    let mut out = vec![0.0; channels * ops.nterms()];
    let (mut scratch, mut tens) = (DerivScratch::default(), Vec::new());
    for (m, &r) in l.m.iter().zip(&l.r) {
        ops.m2l(m, r, &mut out, channels, &mut scratch, &mut tens);
    }
    out
}

/// The list through the `f32` batch in `chunks(M2L_LANES)`, the way the
/// engine's downsweep feeds it, into a target of half-width 1.
fn batched(ops: &ExpansionOps, l: &List, channels: usize) -> Vec<f64> {
    let mut buf = Vec::new();
    let forms: Vec<Vec<f32>> =
        l.m.iter()
            .zip(&l.w)
            .map(|(m, &w)| {
                let mut form = vec![0.0; channels * ops.form_len()];
                ops.source_form(m, w, channels, &mut form, &mut buf);
                form
            })
            .collect();
    let src: Vec<M2lSource<'_>> = (0..l.m.len())
        .map(|i| M2lSource {
            form: &forms[i],
            half_width: l.w[i],
            r: l.r[i],
        })
        .collect();
    let mut out = vec![0.0; channels * ops.nterms()];
    let mut scratch = M2lScratch::default();
    for chunk in src.chunks(M2L_LANES) {
        ops.m2l_batch(chunk, 1.0, &mut out, channels, &mut scratch);
    }
    out
}

/// The batch equals the full contraction to `f32` precision, through the
/// `f64` oracle: every coefficient of the one-source oracle is within
/// 1e-12 of its terms' magnitude of the full contraction, and every
/// coefficient of the `f32` batch within [`f32_bound`] of it of the oracle
/// (the worst seen is 0.45 of the bound, at p = 10; 0.21 at p = 6). At every order 0..=10, one and seven channels, every number of
/// live lanes (padding lanes add exactly `+0.0`, `m2l_lanes.rs`), sources
/// from 1.5 to 20 target half-widths away and 1/4 to 4 of its width.
#[test]
fn batch_equals_the_full_contraction() {
    let mut rng = StdRng::seed_from_u64(29);
    for p in 0..=10 {
        let ops = ExpansionOps::new(p);
        let nt = ops.nterms();
        for channels in [1, STOKESLET_CHANNELS] {
            for live in 1..=M2L_LANES {
                for sep in [1.5..3.0, 3.0..20.0] {
                    let l = list(&ops, &mut rng, live, sep.clone(), channels);
                    let [full, scale] = reference(&ops, &l, channels);
                    let want = oracle(&ops, &l, channels);
                    let got = batched(&ops, &l, channels);
                    for i in 0..got.len() {
                        assert!(
                            (want[i] - full[i]).abs() <= 1e-12 * scale[i],
                            "oracle p={p} ch={channels} live={live} sep={sep:?} β={}: {} vs {} \
                             (scale {})",
                            i % nt,
                            want[i],
                            full[i],
                            scale[i]
                        );
                        assert!(
                            (got[i] - want[i]).abs() <= f32_bound(p) * scale[i],
                            "batch p={p} ch={channels} live={live} sep={sep:?} β={}: {} vs {} \
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

/// Above the orders [`batch_equals_the_full_contraction`] covers, up to
/// [`MAX_ORDER`], the highest the tables accept: the batch's local stays
/// finite, within [`f32_bound`] of the oracle per coefficient (0.031 of its
/// scale at p = 16; the worst seen is 0.45 of the bound), and within 1e-4
/// of the oracle's potential anywhere in the target cell, relative to the
/// magnitude of its terms there (the worst seen over 600 random full
/// batches per order is 2.1e-5, at p = 13; 9.8e-6 at p = 10). Above p = 16
/// the recurrence's rounding outgrows the bound (2^23 ε against 2^22 at
/// p = 20) and the cell error reaches 2.6e-3 at p = 30, so the tables stop
/// there. Sources of 1/4 to 4 target widths where the acceptance criterion
/// holds at θ from 1/2 to 1.
#[test]
fn orders_up_to_the_highest_hold_the_potential_in_the_cell() {
    let mut rng = StdRng::seed_from_u64(31);
    for p in 11..=MAX_ORDER {
        let ops = ExpansionOps::new(p);
        for channels in [1, STOKESLET_CHANNELS] {
            for live in [1, M2L_LANES] {
                let widths: Vec<f64> = (0..live)
                    .map(|_| 2f64.powi(rng.random_range(-2..3)))
                    .collect();
                let l = accepted(&ops, &mut rng, &widths, 0.5..1.0, channels);
                let [_, scale] = reference(&ops, &l, channels);
                let want = oracle(&ops, &l, channels);
                let got = batched(&ops, &l, channels);
                for i in 0..got.len() {
                    assert!(
                        got[i].is_finite() && (got[i] - want[i]).abs() <= f32_bound(p) * scale[i],
                        "p={p} ch={channels} live={live} i={i}: {} vs {} (scale {})",
                        got[i],
                        want[i],
                        scale[i]
                    );
                }
                let err = cell_error(&ops, &mut rng, &got, &want);
                assert!(err <= 1e-4, "p={p} ch={channels} live={live}: {err}");
            }
        }
    }
}

/// Sources 13 to 21 levels above or below the target (an adaptive tree's
/// M2L lists reach 5 on the benchmark workloads), alone and in full
/// batches mixed with sources of the target's width: every lane runs in
/// its own cell units, so no width ratio's power leaves `f32` range upward
/// and none that underflows carries a term that matters — the locals stay
/// finite and within [`f32_bound`] of the oracle per coefficient.
#[test]
fn level_gaps_far_beyond_the_trees_stay_within_the_bound() {
    let mut rng = StdRng::seed_from_u64(37);
    for p in [6, 10] {
        let ops = ExpansionOps::new(p);
        for g in 13..=21 {
            for live in [1, M2L_LANES] {
                let widths: Vec<f64> = (0..live)
                    .map(|i| match (i + g) % 3 {
                        0 => 2f64.powi(g as i32),
                        1 => 2f64.powi(-(g as i32)),
                        _ => 2f64.powi(rng.random_range(-2..3)),
                    })
                    .collect();
                let l = accepted(&ops, &mut rng, &widths, 0.5..1.0, 1);
                let [_, scale] = reference(&ops, &l, 1);
                let want = oracle(&ops, &l, 1);
                let got = batched(&ops, &l, 1);
                for i in 0..got.len() {
                    assert!(
                        got[i].is_finite() && (got[i] - want[i]).abs() <= f32_bound(p) * scale[i],
                        "p={p} gap={g} live={live} i={i}: {} vs {} (scale {})",
                        got[i],
                        want[i],
                        scale[i]
                    );
                }
            }
        }
    }
}

/// The batch's locals satisfy `L_{β+2x} + L_{β+2y} + L_{β+2z} ≈ 0` for
/// every `|β| <= p − 2` — the field they expand is harmonic, and the
/// truncation keeps all three terms — over lists of several batches.
#[test]
fn locals_are_harmonic() {
    let mut rng = StdRng::seed_from_u64(11);
    for p in 2..=10 {
        let ops = ExpansionOps::new(p);
        let (set, nt) = (ops.set(), ops.nterms());
        for channels in [1, STOKESLET_CHANNELS] {
            for sep in [1.5..3.0, 3.0..20.0] {
                let l = list(&ops, &mut rng, 2 * M2L_LANES + 3, sep.clone(), channels);
                let got = batched(&ops, &l, channels);
                let [_, scale] = reference(&ops, &l, channels);
                for c in 0..channels {
                    for (b, (i, j, k)) in set.iter() {
                        if set.total_order(b) + 2 > p {
                            continue;
                        }
                        let at = |i, j, k| c * nt + set.idx(i, j, k);
                        let three = [at(i + 2, j, k), at(i, j + 2, k), at(i, j, k + 2)];
                        let lap: f64 = three.iter().map(|&x| got[x]).sum();
                        let tol =
                            f32_bound(p) * three.iter().map(|&x| scale[x]).fold(0.0, f64::max);
                        assert!(
                            lap.abs() <= tol,
                            "p={p} ch={channels} sep={sep:?} β=({i},{j},{k}): {lap} > {tol}"
                        );
                    }
                }
            }
        }
    }
}

/// The contracted core has `Σₘ (2m+1)(p−m+1)²` terms over the `(p+1)²`
/// coefficients of a source form, and every `γ_z >= 2` index is one fold
/// and one fill: 532 terms, 49 form coefficients and 35 folds at p = 6,
/// against the full contraction's 924 terms over 84 coefficients.
#[test]
fn table_sizes_are_pinned() {
    let ops = ExpansionOps::new(6);
    assert_eq!(ops.m2l_terms(), 532);
    assert_eq!(ops.form_len(), 49);
    assert_eq!(ops.m2l_folds(), 35);
    for p in 0..=10 {
        let ops = ExpansionOps::new(p);
        let core: usize = (0..=p).map(|m| (2 * m + 1) * (p - m + 1).pow(2)).sum();
        assert_eq!(ops.m2l_terms(), core, "p={p}");
        assert_eq!(ops.form_len(), (p + 1).pow(2), "p={p}");
        assert_eq!(ops.m2l_folds(), nterms(p) - (p + 1).pow(2), "p={p}");
    }
}
