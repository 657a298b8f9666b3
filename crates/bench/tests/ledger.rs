//! Integration tests for the perf ledger: trend-detection properties on
//! synthetic series, byte-stable persistence, `compare --against-ledger`
//! equivalence with a plain compare, and the `afmm-perf` exit-code
//! contract driven through the real binary.

use bench::harness::{
    compare, synthesize_baseline, trend_rows, BenchReport, CompareConfig, Ledger, LedgerEntry,
    Metric, Scenario, Verdict, SCHEMA_VERSION,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::process::Command;
use telemetry::json::{obj, Json};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("afmm-ledger-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic report with one scenario and one gated wall metric at
/// `wall` seconds (plus an informational one that must never gate).
fn synthetic_report(commit: &str, wall: f64) -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        host: obj(vec![
            ("os", Json::Str("linux".into())),
            ("arch", Json::Str("x86_64".into())),
            ("cpus", Json::F64(16.0)),
        ]),
        commit: commit.to_string(),
        config: obj(vec![("mode", Json::Str("quick".into()))]),
        scenarios: vec![Scenario {
            name: "solve_step".to_string(),
            params: obj(vec![("n", Json::F64(4096.0)), ("s", Json::F64(64.0))]),
            metrics: vec![
                Metric::wall(
                    "wall_s",
                    "s",
                    vec![wall, wall * 1.02, wall * 0.98, wall * 1.01],
                    9,
                ),
                Metric::wall("overhead", "frac", vec![wall * 0.01], 9).informational(),
            ],
            snapshot: Json::Obj(Vec::new()),
        }],
    }
}

fn entries_with_walls(walls: &[f64]) -> Vec<LedgerEntry> {
    walls
        .iter()
        .enumerate()
        .map(|(i, &w)| {
            LedgerEntry::from_report(&synthetic_report(&format!("c{i:03}"), w), i as u64)
        })
        .collect()
}

/// Deterministic jitter in [-amp, +amp] from a tiny LCG.
fn jittered(center: f64, amp: f64, n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            center * (1.0 + amp * (2.0 * u - 1.0))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A 2× step injected into an otherwise quiet 10-entry series is
    /// flagged as a gated regression, confirmed within 2 post-step
    /// entries, wherever the step lands and whatever the jitter seed.
    #[test]
    fn injected_step_is_flagged(seed in 0u64..1000, step_at in 6usize..9) {
        let mut walls = jittered(1.0, 0.03, 10, seed);
        for w in walls.iter_mut().skip(step_at) {
            *w *= 2.0;
        }
        let entries = entries_with_walls(&walls);
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let rows = trend_rows(&series, &telemetry::TrendConfig::default());
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        prop_assert_eq!(wall.report.kind, telemetry::TrendKind::Step);
        prop_assert!(wall.regression);
        let at = wall.report.at.unwrap();
        prop_assert!(
            at >= step_at && at < step_at + 2,
            "step at {} detected at {}", step_at, at
        );
        // The informational metric stepped identically but must not gate.
        let info = rows.iter().find(|r| r.metric == "overhead").unwrap();
        prop_assert!(!info.regression);
    }

    /// Pure ±5% noise never produces a step or drift verdict: zero false
    /// positives over 40 independent jittered series.
    #[test]
    fn pure_noise_has_no_false_positives(seed in 0u64..1_000_000) {
        let walls = jittered(1.0, 0.05, 10, seed);
        let entries = entries_with_walls(&walls);
        let series: Vec<&LedgerEntry> = entries.iter().collect();
        let rows = trend_rows(&series, &telemetry::TrendConfig::default());
        for r in rows {
            prop_assert!(!r.regression, "{}/{} flagged on noise", r.scenario, r.metric);
            prop_assert!(
                !matches!(r.report.kind, telemetry::TrendKind::Step | telemetry::TrendKind::Drift),
                "{}/{} classified {:?} on noise", r.scenario, r.metric, r.report.kind
            );
        }
    }
}

#[test]
fn appended_file_round_trips_byte_stable() {
    let dir = temp_dir("bytes");
    let path = dir.join("ledger.jsonl");
    for (i, e) in entries_with_walls(&[0.5, 0.75, 1.25]).iter().enumerate() {
        Ledger::append(&path, e).unwrap();
        let _ = i;
    }
    let text = std::fs::read_to_string(&path).unwrap();
    let (ledger, warnings) = Ledger::load(&path).unwrap();
    assert!(warnings.is_empty(), "{warnings:?}");
    let rewritten: String = ledger.entries.iter().map(|e| e.to_json() + "\n").collect();
    assert_eq!(rewritten, text, "read → re-serialize must be byte-stable");
    let _ = std::fs::remove_dir_all(&dir);
}

/// With exactly the baseline entry in the ledger, `--against-ledger 1`
/// must reproduce a plain compare against that baseline report: same
/// verdicts, same deltas, same thresholds.
#[test]
fn against_ledger_k1_reproduces_plain_compare() {
    let baseline = synthetic_report("base", 1.0);
    for new_wall in [1.0, 1.4, 3.0] {
        let new = synthetic_report("head", new_wall);
        let plain = compare(&baseline, &new, &CompareConfig::default());
        let entry = LedgerEntry::from_report(&baseline, 1);
        let series = [&entry];
        let synthesized = synthesize_baseline(&series, 1).unwrap();
        let via_ledger = compare(&synthesized, &new, &CompareConfig::default());
        assert_eq!(plain.rows.len(), via_ledger.rows.len());
        for (p, l) in plain.rows.iter().zip(&via_ledger.rows) {
            assert_eq!(p.verdict, l.verdict, "{}/{}", p.scenario, p.metric);
            assert_eq!(p.rel_delta, l.rel_delta, "{}/{}", p.scenario, p.metric);
            assert_eq!(p.threshold, l.threshold, "{}/{}", p.scenario, p.metric);
            assert_eq!(p.old_median, l.old_median, "{}/{}", p.scenario, p.metric);
        }
        assert_eq!(plain.regressions(), via_ledger.regressions());
        if new_wall >= 3.0 {
            assert!(plain.regressions() > 0, "3× must regress the gate");
        }
    }
}

#[test]
fn rolling_baseline_is_robust_to_one_outlier() {
    // One lucky 0.5× run in the window must not drag the rolling median
    // enough to fail a steady-state head run.
    let entries = entries_with_walls(&[1.0, 0.5, 1.02, 0.98, 1.01]);
    let series: Vec<&LedgerEntry> = entries.iter().collect();
    let baseline = synthesize_baseline(&series, 5).unwrap();
    let head = synthetic_report("head", 1.0);
    let result = compare(&baseline, &head, &CompareConfig::default());
    assert_eq!(result.regressions(), 0, "{}", result.render());
    assert!(result
        .rows
        .iter()
        .any(|r| r.metric == "wall_s" && r.verdict == Verdict::Unchanged));
}

// ---- binary-level exit-code contract ----

/// A ledger line as `afmm-perf record` wrote it at the parent of PR 14
/// (smoke run; trimmed to the 10C4G metrics of the Dag-vs-barrier scenario
/// and the `sched` extract, host and mode rewritten to the synthetic
/// series).
const PRE_PR14_LEDGER_LINE: &str = r#"{"schema_version":1,"unix_s":1758000000,"host":{"os":"linux","arch":"x86_64","cpus":16},"host_key":"linux-x86_64-16c","commit":"6d02969","mode":"quick","scenarios":[{"name":"dag_pipeline","params":{"n":2000,"distribution":"plummer","s":96,"configs":"10C4G,10C1G,8C2G"},"metrics":[{"name":"wall_dag_step_s","unit":"s","kind":"wall","direction":"lower","gate":true,"median":0.00033684700000000004,"mad":0.000008043999999999993,"ci_lo":0.000328803,"ci_hi":0.000344891},{"name":"virtual_barrier_10c4g_s","unit":"s","kind":"virtual","direction":"lower","gate":true,"median":0.0016451,"mad":0,"ci_lo":0.0016451,"ci_hi":0.0016451},{"name":"virtual_dag_10c4g_s","unit":"s","kind":"virtual","direction":"lower","gate":true,"median":0.001550670000000001,"mad":0,"ci_lo":0.001550670000000001,"ci_hi":0.001550670000000001},{"name":"dag_speedup_10c4g","unit":"x","kind":"virtual","direction":"higher","gate":true,"median":1.0608962577466508,"mad":0,"ci_lo":1.0608962577466508,"ci_hi":1.0608962577466508}]}],"sched":{"pass":"by_level","cores":10,"gpu_lanes":4,"makespan_s":0.001550670000000001,"critpath_len":55,"critpath_sum_s":0.001550670000000001,"lane_idle_frac":0.15388851951672955,"pipeline_overlap":0.4999802329483943,"crit_cpu_frac":1,"crit_gpu_frac":0,"dependency_frac":0.010524482965427871,"starvation_frac":0.9894755170345721,"serialization_frac":0,"crit_phase_frac":{"p2m":0.06007725692765057,"m2m":0.019913972669878207,"m2l":0.8430355910670867,"l2l":0.05220969000496622,"l2p":0.024763489330418352,"p2p":0},"gpu_lane_util":[0.4999802329483943,0.4792318383554259,0.41261266868935453,0.45814698330959863]},"cost_model":null,"audit":null,"mem":null}"#;

fn afmm_perf(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_afmm-perf"))
        .args(args)
        .output()
        .expect("spawn afmm-perf");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_report(path: &Path, report: &BenchReport) {
    std::fs::write(path, report.to_json()).unwrap();
}

#[test]
fn binary_exit_code_contract() {
    let dir = temp_dir("bin");
    let ledger = dir.join("ledger.jsonl");
    let ledger_s = ledger.to_str().unwrap();
    let report_path = dir.join("r.json");
    write_report(&report_path, &synthetic_report("c000", 1.0));
    let report_s = report_path.to_str().unwrap();

    // Usage and I/O errors → 2.
    assert_eq!(afmm_perf(&[]).0, 2);
    assert_eq!(afmm_perf(&["frobnicate"]).0, 2);
    assert_eq!(afmm_perf(&["record"]).0, 2);
    assert_eq!(afmm_perf(&["record", "/nonexistent/report.json"]).0, 2);
    assert_eq!(
        afmm_perf(&["compare", "--against-ledger", "0", report_s]).0,
        2
    );
    assert_eq!(afmm_perf(&["trend", "--bogus-flag"]).0, 2);
    // Against-ledger with an empty ledger: no history to gate on → 2.
    assert_eq!(
        afmm_perf(&[
            "compare",
            "--against-ledger",
            "1",
            report_s,
            "--ledger",
            ledger_s
        ])
        .0,
        2
    );

    // Record a quiet series, then a confirmed 2× step.
    for (i, wall) in [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 2.0, 2.02]
        .iter()
        .enumerate()
    {
        let p = dir.join(format!("r{i}.json"));
        write_report(&p, &synthetic_report(&format!("c{i:03}"), *wall));
        let (code, _, err) = afmm_perf(&[
            "record",
            p.to_str().unwrap(),
            "--ledger",
            ledger_s,
            "--time",
            &format!("{}", 1_700_000_000 + i as u64 * 86_400),
        ]);
        assert_eq!(code, 0, "record #{i} failed:\n{err}");
    }

    // History over the recorded series → 0, and it shows the series.
    let (code, out, err) = afmm_perf(&[
        "history",
        "--ledger",
        ledger_s,
        "--host",
        "linux-x86_64-16c",
        "--quick",
    ]);
    assert_eq!(code, 0, "{err}");
    assert!(out.contains("solve_step/wall_s"), "{out}");
    assert!(out.contains("10 entries"), "{out}");

    // Trend sees the confirmed gated step → 1, and names it.
    let (code, out, err) = afmm_perf(&[
        "trend",
        "--ledger",
        ledger_s,
        "--host",
        "linux-x86_64-16c",
        "--quick",
    ]);
    assert_eq!(code, 1, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("REGRESSED"), "{out}");
    assert!(err.contains("FAIL"), "{err}");

    // A head run at the stepped level vs the last entry alone → unchanged
    // (K=1 reproduces plain compare against that run).
    let head = dir.join("head.json");
    write_report(&head, &synthetic_report("head", 2.01));
    let (code, _, err) = afmm_perf(&[
        "compare",
        "--against-ledger",
        "1",
        head.to_str().unwrap(),
        "--ledger",
        ledger_s,
    ]);
    assert_eq!(code, 0, "{err}");

    // The same head vs the rolling median of all 10 (≈1.0) → regression.
    let (code, out, err) = afmm_perf(&[
        "compare",
        "--against-ledger",
        "10",
        head.to_str().unwrap(),
        "--ledger",
        ledger_s,
    ]);
    assert_eq!(code, 1, "stdout:\n{out}\nstderr:\n{err}");
    assert!(out.contains("REGRESSED"), "{out}");

    // Trend on a host with no entries → 0 (nothing to gate).
    let (code, _, err) = afmm_perf(&["trend", "--ledger", ledger_s, "--host", "nohost-0c"]);
    assert_eq!(code, 0, "{err}");

    // A ledger grown before PR 14 (CI restores a cached one) holds entries
    // with a `sched` extract and the retired scenario's metrics. They
    // still read: a compare against them skips the rows no report has any
    // more, newer entries append behind them, and `trend` reports no error.
    let old_ledger = dir.join("old_ledger.jsonl");
    let old_s = old_ledger.to_str().unwrap();
    std::fs::write(&old_ledger, format!("{PRE_PR14_LEDGER_LINE}\n")).unwrap();
    let (code, out, err) = afmm_perf(&[
        "compare",
        "--against-ledger",
        "1",
        head.to_str().unwrap(),
        "--ledger",
        old_s,
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(
        out.lines()
            .any(|l| l.contains("skipped") && l.contains("missing in new report")),
        "{out}"
    );
    for t in ["1758086400", "1758172800"] {
        let (code, _, err) = afmm_perf(&[
            "record",
            head.to_str().unwrap(),
            "--ledger",
            old_s,
            "--time",
            t,
        ]);
        assert_eq!(code, 0, "{err}");
    }
    let (code, out, err) = afmm_perf(&[
        "trend",
        "--ledger",
        old_s,
        "--host",
        "linux-x86_64-16c",
        "--quick",
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(!err.contains("warning") && !err.contains("error"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One real smoke-suite pass through the binary: run → record twice →
/// against-ledger compare of the same report must be clean.
#[test]
fn binary_smoke_suite_end_to_end() {
    let dir = temp_dir("e2e");
    let report = dir.join("r.json");
    let report_s = report.to_str().unwrap();
    let ledger = dir.join("ledger.jsonl");
    let ledger_s = ledger.to_str().unwrap();

    let (code, _, err) = afmm_perf(&["run", "--smoke", "-o", report_s]);
    assert_eq!(code, 0, "{err}");

    for t in ["1700000000", "1700086400"] {
        let (code, _, err) = afmm_perf(&["record", report_s, "--ledger", ledger_s, "--time", t]);
        assert_eq!(code, 0, "{err}");
    }

    let (code, out, err) = afmm_perf(&[
        "compare",
        "--against-ledger",
        "2",
        report_s,
        "--ledger",
        ledger_s,
    ]);
    assert_eq!(code, 0, "stdout:\n{out}\nstderr:\n{err}");
    assert!(
        err.contains("baseline synthesized from the last 2"),
        "{err}"
    );
    assert!(!out.contains("REGRESSED"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}
