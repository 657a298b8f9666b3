//! The single-precision lane-batched M2L ([`ExpansionOps::m2l_batch`])
//! against the sum of its one-lane batches and against the `f64`
//! one-source oracle ([`ExpansionOps::m2l`]), the exactness of its tail
//! padding, its run-to-run bit-stability, and every lane of the `f64`
//! tensor program against the closed forms of `∂^γ(1/r)`. Plus the guard
//! that pins the flop model the virtual hardware is seeded from.

use fmm_math::{
    DerivScratch, ExpansionOps, GravityKernel, Kernel, M2lScratch, M2lSource, OpFlops,
    StokesletKernel, M2L_LANES, STOKESLET_CHANNELS,
};
use geom::Vec3;
use proptest::prelude::*;
use rand::prelude::*;

/// A random displacement of length 3..8 — well separated from unit-size
/// clusters, never singular.
fn displacement(rng: &mut StdRng) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
            rng.random_range(-1.0..1.0),
        );
        if let Some(u) = v.normalized() {
            return u * rng.random_range(3.0..8.0);
        }
    }
}

/// `k` random sources into a target of half-width 1: stacked
/// `channels`-channel multipoles (coefficients of order `n` up to `w^n`,
/// as a cell of half-width `w` has them), half-widths 1/4..4 and
/// displacements.
struct Sources {
    m: Vec<Vec<f64>>,
    w: Vec<f64>,
    r: Vec<Vec3>,
}

fn sources(ops: &ExpansionOps, rng: &mut StdRng, k: usize, channels: usize) -> Sources {
    let w: Vec<f64> = (0..k).map(|_| 2f64.powi(rng.random_range(-2..3))).collect();
    let nt = ops.nterms();
    let m = w
        .iter()
        .map(|&w| {
            (0..channels * nt)
                .map(|i| rng.random_range(-1.0..1.0) * w.powi(ops.set().total_order(i % nt) as i32))
                .collect()
        })
        .collect();
    let r = (0..k).map(|_| displacement(rng)).collect();
    Sources { m, w, r }
}

/// The sources' forms, through `m2l_batch` in `chunks(lanes)`, the way the
/// engine's downsweep feeds it at `lanes = M2L_LANES`.
fn batched(ops: &ExpansionOps, s: &Sources, channels: usize, lanes: usize) -> Vec<f64> {
    let mut buf = Vec::new();
    let forms: Vec<Vec<f32>> =
        s.m.iter()
            .zip(&s.w)
            .map(|(m, &w)| {
                let mut form = vec![0.0; channels * ops.form_len()];
                ops.source_form(m, w, channels, &mut form, &mut buf);
                form
            })
            .collect();
    let src: Vec<M2lSource<'_>> = (0..forms.len())
        .map(|i| M2lSource {
            form: &forms[i],
            half_width: s.w[i],
            r: s.r[i],
        })
        .collect();
    let mut l = vec![0.0; channels * ops.nterms()];
    let mut scratch = M2lScratch::default();
    for chunk in src.chunks(lanes) {
        ops.m2l_batch(chunk, 1.0, &mut l, channels, &mut scratch);
    }
    l
}

/// Per coefficient, the scale its rounding is measured against: the
/// largest sum of term magnitudes `Σ |M_α ∂^{α+β}(1/r)|` over the
/// sources among the coefficients of its channel and total order (a single
/// coefficient, or a whole order of them, may cancel far below its terms).
fn term_scale(ops: &ExpansionOps, s: &Sources, channels: usize) -> Vec<f64> {
    let (set, nt, p) = (ops.set(), ops.nterms(), ops.order());
    let mut size = vec![0.0; channels * nt];
    let mut scratch = DerivScratch::default();
    for (m, &r) in s.m.iter().zip(&s.r) {
        let t = ops.deriv_tensor(&[r], &mut scratch);
        for c in 0..channels {
            for (b, (bi, bj, bk)) in set.iter() {
                let admissible = set
                    .iter()
                    .take_while(|&(a, _)| set.total_order(a) + set.total_order(b) <= p);
                for (a, (ai, aj, ak)) in admissible {
                    size[c * nt + b] +=
                        (m[c * nt + a] * t[set.idx(ai + bi, aj + bj, ak + bk)][0]).abs();
                }
            }
        }
    }
    let group = |i: usize| (i / nt) * (p + 1) + set.total_order(i % nt);
    let mut largest = vec![0.0f64; channels * (p + 1)];
    for (i, s) in size.iter().enumerate() {
        largest[group(i)] = largest[group(i)].max(*s);
    }
    (0..size.len()).map(|i| largest[group(i)]).collect()
}

/// List lengths: every tail size of one and of two chunks, and one over.
const LENGTHS: std::ops::RangeInclusive<usize> = 1..=2 * M2L_LANES + 1;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    // Each case runs every list length at seven orders and both channel
    // counts, so two cases already cost about 13 s in a debug build.
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A batch of k sources is the sum of k one-source calls, for full
    /// batches, tails and multi-chunk lists, at both channel counts and
    /// every order in use: of k one-lane batches to `f64` rounding (a
    /// lane's `f32` sums do not depend on the other lanes), and of k calls
    /// of the `f64` oracle to `f32` precision grown by the tensor
    /// recurrence (`m2l_harmonic.rs`).
    #[test]
    fn batch_equals_sum_of_single_source_calls(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for order in 2..=8 {
            let ops = ExpansionOps::new(order);
            for channels in [1, STOKESLET_CHANNELS] {
                let len = channels * ops.nterms();
                for k in LENGTHS {
                    let s = sources(&ops, &mut rng, k, channels);
                    let got = batched(&ops, &s, channels, M2L_LANES);
                    let lanes = batched(&ops, &s, channels, 1);
                    let mut want = vec![0.0; len];
                    let (mut scratch, mut tens) = (DerivScratch::default(), Vec::new());
                    for (m, &r) in s.m.iter().zip(&s.r) {
                        ops.m2l(m, r, &mut want, channels, &mut scratch, &mut tens);
                    }
                    let scale = term_scale(&ops, &s, channels);
                    let f32_tol = 4.0 * 2f64.powi(order as i32) * f64::from(f32::EPSILON);
                    for (i, &scale) in scale.iter().enumerate() {
                        prop_assert!(
                            (got[i] - lanes[i]).abs() <= 1e-13 * scale,
                            "p={order} ch={channels} k={k} i={i}: {} vs one-lane {}", got[i], lanes[i]
                        );
                        prop_assert!(
                            (got[i] - want[i]).abs() <= f32_tol * scale,
                            "p={order} ch={channels} k={k} i={i}: {} vs oracle {}", got[i], want[i]
                        );
                    }
                }
            }
        }
    }

    /// A padded tail is bit-equal to the same sources followed by explicit
    /// zero-multipole sources, and the same list twice gives the same bits.
    #[test]
    fn padding_is_exact_and_batches_are_bit_stable(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for order in 2..=8 {
            let ops = ExpansionOps::new(order);
            for channels in [1, STOKESLET_CHANNELS] {
                let len = channels * ops.nterms();
                for k in LENGTHS {
                    let mut s = sources(&ops, &mut rng, k, channels);
                    let padded = batched(&ops, &s, channels, M2L_LANES);
                    prop_assert_eq!(bits(&padded), bits(&batched(&ops, &s, channels, M2L_LANES)));
                    while !s.m.len().is_multiple_of(M2L_LANES) {
                        s.m.push(vec![0.0; len]);
                        s.w.push(2f64.powi(rng.random_range(-2..3)));
                        s.r.push(displacement(&mut rng));
                    }
                    let explicit = batched(&ops, &s, channels, M2L_LANES);
                    prop_assert_eq!(
                        bits(&padded), bits(&explicit),
                        "p={} ch={} k={}", order, channels, k
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every lane of the tensor program reproduces the closed forms of the
    /// low-order derivatives of 1/r and is harmonic (`Σ_d ∂^(γ+2e_d) = 0`),
    /// with a different displacement in each lane.
    #[test]
    fn tensor_lanes_match_closed_forms_and_are_harmonic(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = 8;
        let ops = ExpansionOps::new(p);
        let set = ops.set();
        let d: [Vec3; M2L_LANES] = std::array::from_fn(|_| displacement(&mut rng));
        let mut scratch = DerivScratch::default();
        let t = ops.deriv_tensor(&d, &mut scratch);
        for (lane, v) in d.iter().enumerate() {
            let (x, y, z, r) = (v.x, v.y, v.z, v.norm());
            let closed = [
                ((0, 0, 0), 1.0 / r),
                ((1, 0, 0), -x / r.powi(3)),
                ((0, 1, 0), -y / r.powi(3)),
                ((0, 0, 1), -z / r.powi(3)),
                ((2, 0, 0), (3.0 * x * x - r * r) / r.powi(5)),
                ((0, 2, 0), (3.0 * y * y - r * r) / r.powi(5)),
                ((1, 1, 0), 3.0 * x * y / r.powi(5)),
                ((1, 0, 1), 3.0 * x * z / r.powi(5)),
                ((1, 1, 1), -15.0 * x * y * z / r.powi(7)),
            ];
            for ((i, j, k), want) in closed {
                let got = t[set.idx(i, j, k)][lane];
                prop_assert!((got - want).abs() < 1e-12, "lane {lane} ({i},{j},{k})");
            }
            for (idx, (i, j, k)) in set.iter() {
                if set.total_order(idx) + 2 > p {
                    continue;
                }
                let terms = [
                    t[set.idx(i + 2, j, k)][lane],
                    t[set.idx(i, j + 2, k)][lane],
                    t[set.idx(i, j, k + 2)][lane],
                ];
                let scale = terms.iter().fold(1e-300f64, |s, v| s.max(v.abs()));
                let lap: f64 = terms.iter().sum();
                prop_assert!((lap / scale).abs() < 1e-10, "lane {lane} ({i},{j},{k}): {lap}");
            }
        }
        // The lanes are independent: each equals its own one-lane run.
        let t = t.to_vec();
        for (lane, &v) in d.iter().enumerate() {
            let single = ops.deriv_tensor(&[v], &mut scratch);
            for idx in 0..set.len() {
                prop_assert_eq!(single[idx][0].to_bits(), t[idx][lane].to_bits());
            }
        }
    }
}

/// The flop model seeds the virtual hardware's work sizes, so a kernel
/// rewrite that moved these numbers would silently move the virtual clock.
#[test]
fn flop_model_is_pinned_at_order_6() {
    let ops = ExpansionOps::new(6);
    assert_eq!(ops.m2l_flops(1), 5124.0); // 4·7·84 + 3·924
    assert_eq!(ops.m2l_flops(7), 21756.0); // 4·7·84 + 3·924·7
    assert_eq!(
        GravityKernel::default().op_flops(&ops),
        OpFlops {
            p2m_per_body: 336.0,
            m2m: 2016.0,
            m2l: 5124.0,
            l2l: 2016.0,
            l2p_per_body: 336.0,
            p2p_per_pair: 25.0,
        }
    );
    assert_eq!(
        StokesletKernel::new(1e-3, 1.0).op_flops(&ops),
        OpFlops {
            p2m_per_body: 1344.0,
            m2m: 13104.0,
            m2l: 21756.0,
            l2l: 13104.0,
            l2p_per_body: 1344.0,
            p2p_per_pair: 41.0,
        }
    );
}
