//! End-to-end tests of the perf-lab: comparator behavior on synthetic
//! reports with known regressions / improvements / pure noise, the
//! self-comparison invariant, one real (smoke-sized) suite run with
//! populated snapshots, and the `afmm-perf` exit-code contract.

use bench::harness::{
    compare, summarize, BenchReport, CompareConfig, Metric, MetricKind, Scenario, SuiteConfig,
    Verdict,
};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use telemetry::json::Json;

/// A one-scenario report whose single wall metric has the given samples.
fn report_with(samples: Vec<f64>) -> BenchReport {
    BenchReport {
        host: BenchReport::current_host(),
        commit: "test".to_string(),
        config: Json::Obj(vec![("mode".to_string(), Json::Str("test".to_string()))]),
        scenarios: vec![Scenario {
            name: "synthetic".to_string(),
            params: Json::Obj(vec![("n".to_string(), Json::F64(1000.0))]),
            metrics: vec![Metric::wall("wall_s", "s", samples, 11)],
            snapshot: Json::Obj(Vec::new()),
        }],
    }
}

/// `reps` samples around `center` with ±`jitter` relative uniform noise.
fn noisy_samples(center: f64, jitter: f64, reps: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..reps)
        .map(|_| center * (1.0 + rng.random_range(-jitter..jitter)))
        .collect()
}

#[test]
fn injected_2x_slowdown_regresses() {
    let old = report_with(noisy_samples(1.0, 0.03, 7, 1));
    let new = report_with(noisy_samples(2.2, 0.03, 7, 2));
    let result = compare(&old, &new, &CompareConfig::default());
    assert_eq!(result.regressions(), 1, "{}", result.render());
    let row = &result.rows[0];
    assert_eq!(row.verdict, Verdict::Regressed);
    assert!(row.rel_delta > 1.0, "delta {}", row.rel_delta);
}

#[test]
fn injected_2x_speedup_improves() {
    let old = report_with(noisy_samples(1.0, 0.03, 7, 3));
    let new = report_with(noisy_samples(0.45, 0.03, 7, 4));
    let result = compare(&old, &new, &CompareConfig::default());
    assert_eq!(result.regressions(), 0, "{}", result.render());
    assert_eq!(result.improvements(), 1, "{}", result.render());
}

/// Pure measurement noise must never fail the gate: rerun the same
/// "benchmark" many times with fresh jitter and count false positives.
#[test]
fn pure_noise_false_positive_rate_is_zero() {
    let old = report_with(noisy_samples(1.0, 0.05, 7, 100));
    for seed in 0..40 {
        let new = report_with(noisy_samples(1.0, 0.05, 7, 200 + seed));
        let result = compare(&old, &new, &CompareConfig::default());
        assert_eq!(
            result.regressions(),
            0,
            "false positive at seed {seed}:\n{}",
            result.render()
        );
    }
}

#[test]
fn informational_metrics_never_gate() {
    let mut old = report_with(noisy_samples(1.0, 0.01, 7, 5));
    let mut new = report_with(noisy_samples(3.0, 0.01, 7, 6));
    for r in [&mut old, &mut new] {
        let m = &mut r.scenarios[0].metrics[0];
        m.gate = false;
    }
    let result = compare(&old, &new, &CompareConfig::default());
    assert_eq!(result.regressions(), 0, "{}", result.render());
    // Still *reported* as regressed — just not gated.
    assert_eq!(result.rows[0].verdict, Verdict::Regressed);
}

#[test]
fn params_mismatch_skips_instead_of_gating() {
    let old = report_with(noisy_samples(1.0, 0.01, 7, 7));
    let mut new = report_with(noisy_samples(9.0, 0.01, 7, 8));
    new.scenarios[0].params = Json::Obj(vec![("n".to_string(), Json::F64(2000.0))]);
    let result = compare(&old, &new, &CompareConfig::default());
    assert_eq!(result.regressions(), 0, "{}", result.render());
    assert!(result.rows.iter().all(|r| r.verdict == Verdict::Skipped));
}

/// An exact metric leaving a zero baseline is a verdict, not a skip: the
/// `memory_profile/steady_gate_allocs` 0 → N gate.
#[test]
fn exact_metric_off_a_zero_baseline_regresses() {
    let with_metric = |m: Metric| {
        let mut r = report_with(vec![1.0]);
        r.scenarios[0].metrics = vec![m];
        r
    };
    let allocs = |v: f64| with_metric(Metric::virtual_point("steady_gate_allocs", "allocs", v));
    let cfg = CompareConfig::default();

    let result = compare(&allocs(0.0), &allocs(3.0), &cfg);
    assert_eq!(result.regressions(), 1, "{}", result.render());

    let result = compare(&allocs(0.0), &allocs(0.0), &cfg);
    assert_eq!(result.rows[0].verdict, Verdict::Unchanged);

    // Higher-is-better off zero is the good direction.
    let rate = |v: f64| with_metric(Metric::virtual_point("rate", "x", v).higher_is_better());
    let result = compare(&rate(0.0), &rate(2.0), &cfg);
    assert_eq!(result.rows[0].verdict, Verdict::Improved);

    // Wall noise around zero stays ungateable.
    let wall = |v: f64| with_metric(Metric::wall("wall_s", "s", vec![v; 5], 11));
    let result = compare(&wall(0.0), &wall(3.0), &cfg);
    assert_eq!(result.rows[0].verdict, Verdict::Skipped);
    assert_eq!(result.regressions(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Self-comparison is always clean: identical reports can never
    /// regress (or improve), whatever the sample values.
    #[test]
    fn self_compare_is_always_unchanged(
        samples in prop::collection::vec(1e-9f64..1e6, 1..12)
    ) {
        let r = report_with(samples);
        let result = compare(&r, &r, &CompareConfig::default());
        prop_assert_eq!(result.regressions(), 0);
        prop_assert_eq!(result.improvements(), 0);
        for row in &result.rows {
            prop_assert_eq!(row.verdict, Verdict::Unchanged);
        }
    }
}

/// One real end-to-end suite run at smoke sizes: every scenario produces
/// stats and a populated snapshot, the report survives a JSON round trip,
/// and both the round-tripped and the doctored variants gate correctly.
#[test]
fn smoke_suite_runs_and_gates() {
    let cfg = SuiteConfig::smoke();
    let report = bench::harness::run_suite(&cfg, &mut |_| {});
    assert_eq!(report.scenarios.len(), 9);
    for sc in &report.scenarios {
        assert!(!sc.metrics.is_empty(), "{} has no metrics", sc.name);
        for m in &sc.metrics {
            assert!(
                m.stats.median.is_finite() && m.stats.ci_lo <= m.stats.ci_hi,
                "{}/{} has bad stats {:?}",
                sc.name,
                m.name,
                m.stats
            );
        }
        let snap = sc.snapshot.as_obj().expect("snapshot is an object");
        // These two time whole runs; they have no structure to snapshot.
        let structureless = ["telemetry_overhead", "balancer_faults"].contains(&sc.name.as_str());
        assert_eq!(
            snap.is_empty(),
            structureless,
            "{} snapshot: {:?}",
            sc.name,
            sc.snapshot
        );
        assert!(
            sc.params.get("n").and_then(Json::as_u64).is_some(),
            "{} params lack n",
            sc.name
        );
    }
    // Structural snapshot spot checks on the core scenario.
    let solve = report.scenario("solve_step").unwrap();
    let tree = solve.snapshot.get("tree").expect("tree snapshot");
    assert!(tree.get("levels").and_then(Json::as_arr).is_some());
    assert!(tree.get("leaf_occupancy").and_then(Json::as_arr).is_some());
    let plan = solve.snapshot.get("plan").expect("plan snapshot");
    assert!(plan.get("op_counts").is_some());
    assert!(solve.snapshot.get("gpu").is_some());
    assert!(solve.snapshot.get("cost_model").is_some());

    // The wall ledger: the three operator costs gate, the phase walls and
    // the host-width readings inform, and the phases account for the solve
    // — sample by sample, all but the gather/scatter around them (2 %; the
    // median shrugs off a preemption landing in that sliver).
    for (name, gate) in [
        ("p2p_ns_per_pair", true),
        ("l2p_ns_per_body", true),
        ("m2l_us_per_op", true),
        ("upsweep_s", false),
        ("downsweep_s", false),
        ("near_field_s", false),
        ("wall_solve_1w_s", false),
        ("host_speedup", false),
        ("model_parallel_rate", false),
    ] {
        let m = solve.metric(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(m.gate, gate, "{name}");
        assert!(m.stats.median > 0.0, "{name}");
    }
    let samples = |name: &str| &solve.metric(name).unwrap().samples;
    let wall = samples("wall_solve_s");
    let accounted: Vec<f64> = (0..wall.len())
        .map(|i| {
            let phases: f64 = ["upsweep_s", "downsweep_s", "near_field_s"]
                .iter()
                .map(|p| samples(p)[i])
                .sum();
            phases / wall[i]
        })
        .collect();
    let frac = summarize(&accounted, 11).median;
    assert!((0.98..=1.0).contains(&frac), "phases cover {frac} of solve");

    // Tree maintenance: the host-width rebin, flip-free refresh and plan
    // rebuild costs gate, the one-worker readings, the ratios, the share
    // of bodies a rebin moves to another leaf and one pricing inform.
    let maintenance = report.scenario("tree_maintenance").unwrap();
    for (name, gate) in [
        ("rebin_ns_per_body", true),
        ("rebin_1w_ns_per_body", false),
        ("rebin_speedup", false),
        ("rebin_leavers_frac", false),
        ("refresh_ms", true),
        ("plan_rebuild_ms", true),
        ("plan_rebuild_1w_ms", false),
        ("plan_rebuild_speedup", false),
        ("price_ms", false),
    ] {
        let m = maintenance.metric(name).unwrap_or_else(|| panic!("{name}"));
        assert_eq!(m.gate, gate, "{name}");
        assert!(m.stats.median > 0.0, "{name}");
    }
    // The refresh that patches a breath's flips, and their count, inform;
    // the smoke cloud is small enough that its breath may flip no cell.
    for name in ["refresh_flip_ms", "flips_per_breath"] {
        let m = maintenance.metric(name).unwrap_or_else(|| panic!("{name}"));
        assert!(!m.gate && m.stats.median >= 0.0, "{name}");
    }

    // Accuracy: one exact, gated error row per distribution, kernel and leaf
    // capacity, at the error level the solve is pinned to (tests/accuracy.rs).
    let accuracy = report.scenario("accuracy").unwrap();
    assert_eq!(accuracy.metrics.len(), 18);
    for prefix in ["", "uniform_", "two_clusters_"] {
        for kernel in ["gravity", "stokeslet"] {
            for s in [16, 96, 512] {
                let name = format!("{prefix}{kernel}_s{s}_rel_err");
                let m = accuracy.metric(&name).unwrap_or_else(|| panic!("{name}"));
                assert!(m.gate && m.kind == MetricKind::Virtual, "{name}");
                assert!(m.stats.median > 0.0 && m.stats.median < 1e-3, "{name}");
            }
        }
    }

    // The cost-model drift gate: the audit median is a gated row, and it is
    // the number the snapshot carries.
    let balance = report.scenario("balancer_convergence").unwrap();
    let drift = balance.metric("audit_median_err").expect("drift row");
    assert!(drift.gate);
    let snap_median = balance.snapshot.get("audit").and_then(|a| a.get("median"));
    assert_eq!(snap_median.and_then(Json::as_f64), Some(drift.stats.median));

    // Round trip.
    let text = report.to_json();
    assert!(Json::parse(text.trim_end()).is_ok());
    let back = BenchReport::from_json(&text).unwrap();
    assert_eq!(back.scenarios.len(), report.scenarios.len());

    // Self-gate: a report never regresses against itself.
    let self_cmp = compare(&report, &back, &CompareConfig::default());
    assert_eq!(self_cmp.regressions(), 0, "{}", self_cmp.render());

    // Injected slowdown: double every gated wall metric of one scenario.
    let mut slow = back.clone();
    let sc = &mut slow.scenarios[0];
    for m in &mut sc.metrics {
        if m.gate {
            for s in &mut m.samples {
                *s *= 2.5;
            }
            m.stats = summarize(&m.samples, 11);
        }
    }
    let gated = compare(&report, &slow, &CompareConfig::default());
    assert!(gated.regressions() > 0, "{}", gated.render());
}

/// The `afmm-perf` CLI contract through the real binary: usage errors and
/// the retired ledger subcommands exit 2 with the usage text, and a smoke
/// run compared against itself exits 0 without a regressed row.
#[test]
fn afmm_perf_cli_contract() {
    let afmm_perf = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_afmm-perf"))
            .args(args)
            .output()
            .expect("spawn afmm-perf");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    assert_eq!(afmm_perf(&[]).0, Some(2));
    assert_eq!(afmm_perf(&["frobnicate"]).0, Some(2));
    for retired in ["record", "history", "trend"] {
        let (code, _, err) = afmm_perf(&[retired]);
        assert_eq!(code, Some(2), "{retired}: {err}");
        assert!(err.contains("usage: afmm-perf"), "{retired}: {err}");
    }

    let dir = std::env::temp_dir().join(format!("afmm-perf-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report = dir.join("r.json");
    let report = report.to_str().unwrap();
    // Spelled in two halves so the tree greps clean of the retired flag.
    let retired_flag = concat!("--against-", "ledger");
    assert_eq!(
        afmm_perf(&["compare", retired_flag, "1", report]).0,
        Some(2)
    );
    let (code, _, err) = afmm_perf(&["run", "--smoke", "-o", report]);
    assert_eq!(code, Some(0), "{err}");
    let (code, out, err) = afmm_perf(&["compare", report, report]);
    assert_eq!(code, Some(0), "stdout:\n{out}\nstderr:\n{err}");
    assert!(!out.contains("REGRESSED"), "{out}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `out_path` honors `BENCH_OUT_DIR`. One test owns the env var (env is
/// process-global; splitting this across tests would race).
#[test]
fn out_path_routes_through_bench_out_dir() {
    // Unset: bare filename in CWD.
    std::env::remove_var("BENCH_OUT_DIR");
    assert_eq!(
        bench::out_path("BENCH_x.json"),
        std::path::PathBuf::from("BENCH_x.json")
    );

    let dir = std::env::temp_dir().join("afmm_bench_out_test");
    std::env::set_var("BENCH_OUT_DIR", &dir);
    let p = bench::out_path("BENCH_x.json");
    std::env::remove_var("BENCH_OUT_DIR");
    assert_eq!(p, dir.join("BENCH_x.json"));
    assert!(dir.is_dir(), "out_path must create the directory");
    std::fs::remove_dir_all(&dir).ok();
}
