//! Property tests of the simulated GPU system: timing model monotonicity,
//! efficiency bounds, partition coverage, and device-count scaling.

use gpu_sim::{partition_by_interactions, run_kernel, GpuJob, GpuSystem, C2050};
use proptest::prelude::*;

/// Leaves as `(targets, source counts)`.
fn arb_leaves(max: usize) -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    prop::collection::vec(
        (1usize..400, prop::collection::vec(1usize..300, 1..12)),
        1..max,
    )
}

fn arb_jobs(max: usize) -> impl Strategy<Value = Vec<GpuJob>> {
    arb_leaves(max).prop_map(|leaves| leaves.into_iter().map(|(t, s)| GpuJob::p2p(t, s)).collect())
}

/// The paper's walk as first written, over `n` devices of one speed: the
/// reference the share-weighted walk must reduce to.
fn plain_walk(weights: &[u64], n: usize) -> Vec<Vec<usize>> {
    let mut groups = vec![Vec::new(); n];
    if weights.is_empty() {
        return groups;
    }
    let total: u64 = weights.iter().sum();
    let share = total.div_ceil(n as u64).max(1);
    let mut g = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        groups[g].push(i);
        acc += w;
        if acc >= share && g + 1 < n {
            g += 1;
            acc = 0;
        }
    }
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel time never decreases when a job is added.
    #[test]
    fn kernel_time_monotone_in_jobs(jobs in arb_jobs(40), extra in arb_jobs(4)) {
        let t0 = run_kernel(&jobs).elapsed_s;
        let mut more = jobs.clone();
        more.extend(extra);
        let t1 = run_kernel(&more).elapsed_s;
        prop_assert!(t1 + 1e-15 >= t0);
    }

    /// Efficiency is a proper fraction, and occupied work is at least the
    /// useful work.
    #[test]
    fn efficiency_bounds(jobs in arb_jobs(40)) {
        let r = run_kernel(&jobs);
        prop_assert!(r.occupied_pairs >= r.useful_pairs);
        let e = r.efficiency();
        prop_assert!(e > 0.0 && e <= 1.0, "efficiency {e}");
        let expect: u64 = jobs.iter().map(GpuJob::work).sum();
        prop_assert_eq!(r.useful_pairs, expect);
    }

    /// Kernel time is bounded below by the total useful work over all SM
    /// thread slots, and above by serializing every block on one SM.
    #[test]
    fn kernel_time_bounds(leaves in arb_leaves(30)) {
        let spec = C2050;
        let jobs: Vec<GpuJob> = leaves.iter().map(|(t, s)| GpuJob::p2p(*t, s.clone())).collect();
        let r = run_kernel(&jobs);
        if r.blocks == 0 {
            return Ok(());
        }
        let elapsed = r.elapsed_s - spec.launch_overhead_s;
        // Lower bound: occupied thread-steps spread perfectly over all SMs.
        let lower = r.occupied_pairs as f64 * spec.pair_cycles
            / (spec.sms as f64 * spec.block_size as f64)
            / spec.clock_hz;
        prop_assert!(elapsed >= lower * 0.999, "elapsed {elapsed} < lower {lower}");
        // Upper bound: one SM runs everything serially (with tile loads).
        let serial: f64 = leaves
            .iter()
            .filter(|(t, s)| *t > 0 && s.iter().sum::<usize>() > 0)
            .map(|(t, s)| {
                let blocks = t.div_ceil(spec.block_size) as f64;
                let cyc: f64 = s
                    .iter()
                    .map(|&n| {
                        n.div_ceil(spec.block_size) as f64 * spec.tile_load_cycles
                            + n as f64 * spec.pair_cycles
                    })
                    .sum();
                blocks * cyc
            })
            .sum::<f64>()
            / spec.clock_hz;
        prop_assert!(elapsed <= serial * 1.001 + 1e-15, "elapsed {elapsed} > serial {serial}");
    }

    /// Adding GPUs is never a *large* regression. (Strict monotonicity is
    /// false for the paper's single-pass walk — shifting share boundaries
    /// can strand one straggler job — but any regression is bounded by the
    /// scheduling-anomaly factor.)
    #[test]
    fn more_gpus_bounded_regression(jobs in arb_jobs(40), n in 1usize..4) {
        let time = |gpus: usize, jobs: &[GpuJob]| {
            GpuSystem::homogeneous(gpus)
                .unwrap()
                .execute(jobs)
                .unwrap()
                .gpu_time()
                .unwrap()
        };
        let t_1 = time(1, &jobs);
        let t_m = time(n + 1, &jobs);
        prop_assert!(t_m <= 1.5 * t_1 + 1e-12, "1->{} gpus: {t_1} -> {t_m}", n + 1);
        // And with enough uniform work, scaling genuinely helps.
        let big: Vec<GpuJob> = (0..256).map(|_| GpuJob::p2p(128, [256; 8])).collect();
        let b1 = time(1, &big);
        let b4 = time(4, &big);
        prop_assert!(b4 < 0.35 * b1, "b1 {b1} b4 {b4}");
    }

    /// System-level totals are partition-invariant: useful pairs add up the
    /// same however jobs are split.
    #[test]
    fn totals_partition_invariant(jobs in arb_jobs(40), n in 1usize..6) {
        let sys = GpuSystem::homogeneous(n).unwrap();
        let t = sys.execute(&jobs).unwrap();
        let expect: u64 = jobs.iter().map(GpuJob::work).sum();
        prop_assert_eq!(t.total_pairs(), expect);
    }

    /// The partition walk never assigns out of order and never skips.
    #[test]
    fn partition_walk_correct(weights in prop::collection::vec(0u64..100_000, 0..300), n in 1usize..9) {
        let groups = partition_by_interactions(&weights, &vec![1.0; n]);
        let flat: Vec<usize> = groups.concat();
        prop_assert_eq!(flat, (0..weights.len()).collect::<Vec<_>>());
    }
}

proptest! {
    /// With equal shares the weighted walk reduces exactly to the paper's,
    /// also at paper scale: 1M bodies give ≈ 6k leaf jobs of ≈ 1e7
    /// interactions each.
    #[test]
    fn weighted_with_equal_shares_is_plain(
        weights in prop::collection::vec(0u64..10_000, 0..200),
        big in prop::collection::vec(0u64..20_000_000, 5_000..7_000),
        n in 1usize..6,
    ) {
        for w in [&weights, &big] {
            prop_assert_eq!(plain_walk(w, n), partition_by_interactions(w, &vec![1.0; n]));
        }
    }

    /// The weighted walk covers every item exactly once in order.
    #[test]
    fn weighted_partition_covers(
        weights in prop::collection::vec(0u64..10_000, 0..200),
        shares in prop::collection::vec(0.1f64..10.0, 1..6),
    ) {
        let groups = partition_by_interactions(&weights, &shares);
        prop_assert_eq!(groups.len(), shares.len());
        let flat: Vec<usize> = groups.concat();
        prop_assert_eq!(flat, (0..weights.len()).collect::<Vec<_>>());
    }
}
