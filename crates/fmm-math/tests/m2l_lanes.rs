//! The lane-batched M2L ([`ExpansionOps::m2l_batch`]) against its own
//! one-source instance ([`ExpansionOps::m2l`]), the exactness of its tail
//! padding, its run-to-run bit-stability, and every lane of the tensor
//! program against the closed forms of `∂^γ(1/r)`. Plus the guard that pins
//! the flop model the virtual hardware is seeded from.

use fmm_math::{
    DerivScratch, ExpansionOps, GravityKernel, Kernel, OpFlops, StokesletKernel, M2L_LANES,
    STOKESLET_CHANNELS,
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

/// `k` random sources: stacked `channels`-channel multipoles and
/// displacements.
fn sources(rng: &mut StdRng, k: usize, len: usize) -> (Vec<Vec<f64>>, Vec<Vec3>) {
    let m = (0..k)
        .map(|_| (0..len).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let r = (0..k).map(|_| displacement(rng)).collect();
    (m, r)
}

/// Feed a source list through `m2l_batch` in `chunks(M2L_LANES)`, the way
/// the engine's downsweep does.
fn batched(ops: &ExpansionOps, m: &[Vec<f64>], r: &[Vec3], channels: usize) -> Vec<f64> {
    let mut l = vec![0.0; channels * ops.nterms()];
    let mut scratch = DerivScratch::default();
    let m: Vec<&[f64]> = m.iter().map(Vec::as_slice).collect();
    for (m, r) in m.chunks(M2L_LANES).zip(r.chunks(M2L_LANES)) {
        ops.m2l_batch(m, r, &mut l, channels, &mut scratch);
    }
    l
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A batch of k sources is the sum of k one-source calls, for full
    /// batches, tails and multi-chunk lists, at both channel counts and
    /// every order in use.
    #[test]
    fn batch_equals_sum_of_single_source_calls(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for order in 2..=8 {
            let ops = ExpansionOps::new(order);
            for channels in [1, STOKESLET_CHANNELS] {
                let len = channels * ops.nterms();
                for k in 1..=2 * M2L_LANES + 1 {
                    let (m, r) = sources(&mut rng, k, len);
                    let got = batched(&ops, &m, &r, channels);
                    let mut want = vec![0.0; len];
                    let (mut scratch, mut tens) = (DerivScratch::default(), Vec::new());
                    for (m, &r) in m.iter().zip(&r) {
                        ops.m2l(m, r, &mut want, channels, &mut scratch, &mut tens);
                    }
                    // Relative to the largest coefficient of the same total
                    // order (those share a magnitude; a single coefficient
                    // may cancel to nothing).
                    let mut scale = vec![0.0f64; order + 1];
                    for (i, w) in want.iter().enumerate() {
                        let n = ops.set().total_order(i % ops.nterms());
                        scale[n] = scale[n].max(w.abs());
                    }
                    for i in 0..len {
                        let tol = 1e-13 * scale[ops.set().total_order(i % ops.nterms())];
                        prop_assert!(
                            (got[i] - want[i]).abs() <= tol,
                            "p={order} ch={channels} k={k} i={i}: {} vs {}", got[i], want[i]
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
                for k in 1..=2 * M2L_LANES + 1 {
                    let (mut m, mut r) = sources(&mut rng, k, len);
                    let padded = batched(&ops, &m, &r, channels);
                    prop_assert_eq!(bits(&padded), bits(&batched(&ops, &m, &r, channels)));
                    while m.len() % M2L_LANES != 0 {
                        m.push(vec![0.0; len]);
                        r.push(displacement(&mut rng));
                    }
                    let explicit = batched(&ops, &m, &r, channels);
                    prop_assert_eq!(
                        bits(&padded), bits(&explicit),
                        "p={} ch={} k={}", order, channels, k
                    );
                }
            }
        }
    }

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
