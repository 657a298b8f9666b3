//! **afmm-perf** — the perf-lab driver: run the benchmark suite, compare
//! two reports with the noise-aware gate, refresh the checked-in baseline.
//!
//! ```text
//! afmm-perf run [--quick|--smoke] [-o out.json]   run the suite → BENCH_perf.json
//! afmm-perf compare <old.json> <new.json>         classify deltas; exit 1 on regression
//! afmm-perf baseline [--full] [-o path]           refresh bench/baseline.json
//! ```
//!
//! Exit codes follow `afmm-trace`: 0 = ok, 1 = statistically significant
//! regression (a gated `compare` verdict), 2 = usage or I/O error.
//! `compare` prints a fixed-width verdict table; a metric only fails the
//! gate when its bootstrap CIs don't overlap *and* the median delta clears
//! the relative-MAD threshold (see `bench::harness::compare`). Reports embed
//! structural introspection snapshots, so a regression comes with the
//! tree/plan/GPU/cost-model context needed to attribute it. `run` and
//! `baseline` print the `solve_step` wall ledger and `memory_profile`'s
//! footprint and — under `--features memprof` — its allocator table, all
//! read back from the report.

use std::process::ExitCode;

/// With the `memprof` feature the counting allocator wraps the system one,
/// lighting up the `memory_profile` scenario's allocator metrics. Without
/// the feature nothing is wrapped and those metrics are omitted.
#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

use bench::harness::{compare, run_suite, BenchReport, CompareConfig, SuiteConfig};
use telemetry::json::Json;

const USAGE: &str = "usage: afmm-perf <run|compare|baseline> [...]
  run [--quick|--smoke] [-o out.json]   run the suite, write a BenchReport JSON
  compare <old.json> <new.json>         noise-aware comparison; exit 1 on regression
  baseline [--full] [-o path]           run the suite and refresh the checked-in baseline";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("afmm-perf: {msg}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return fail(USAGE);
    };
    match cmd.as_str() {
        "run" => cmd_run(&args[1..]),
        "compare" => cmd_compare(&args[1..]),
        "baseline" => cmd_baseline(&args[1..]),
        other => fail(format!("unknown subcommand \"{other}\"\n{USAGE}")),
    }
}

fn run_and_render(cfg: &SuiteConfig) -> BenchReport {
    let report = run_suite(cfg, &mut |line| eprintln!("# {line}"));
    print_solve_ledger(&report);
    print_memory_profile(&report);
    report
}

/// The `solve_step` wall ledger: phase walls against the whole solve, the
/// host's measured speedup over one worker beside the scheduler model's
/// `parallel_rate` for the same task graph (and under it what the same
/// workers buy `tree_maintenance`'s rebin and plan rebuild), and the host's
/// measured operator costs beside the cost model's coefficients for the same
/// operators (both per core: virtual core-time per application, probes on
/// one thread), so model-vs-host skew is visible at a glance.
fn print_solve_ledger(report: &BenchReport) {
    let Some(solve) = report.scenario("solve_step") else {
        return;
    };
    let median = |name: &str| solve.metric(name).map(|m| m.stats.median);
    let Some(wall) = median("wall_solve_s") else {
        return;
    };
    eprintln!("# solve_step wall ledger (wall_solve_s = {wall:.4} s):");
    let mut phases = 0.0;
    for name in ["upsweep_s", "downsweep_s", "near_field_s"] {
        if let Some(t) = median(name) {
            phases += t;
            eprintln!("#   {name:<20} {t:>10.4} s  {:>5.1} %", 100.0 * t / wall);
        }
    }
    eprintln!(
        "#   {:<20} {phases:>10.4} s  {:>5.1} %",
        "phases total",
        100.0 * phases / wall
    );
    if let (Some(one), Some(speedup), Some(rate)) = (
        median("wall_solve_1w_s"),
        median("host_speedup"),
        median("model_parallel_rate"),
    ) {
        let cpus = report
            .host
            .get("cpus")
            .and_then(Json::as_f64)
            .unwrap_or(1.0);
        eprintln!(
            "#   {:<20} {speedup:>10.2} x      host, {cpus} workers (one worker: {one:.4} s) | model parallel_rate = {rate:.2} cores  (host/model {:.2})",
            "host_speedup",
            speedup / rate
        );
    }
    let rebin = report.scenario("tree_maintenance");
    let rebin_median = |name: &str| rebin?.metric(name).map(|m| m.stats.median);
    if let (Some(ns), Some(one), Some(speedup)) = (
        rebin_median("rebin_ns_per_body"),
        rebin_median("rebin_1w_ns_per_body"),
        rebin_median("rebin_speedup"),
    ) {
        let n = rebin
            .and_then(|sc| sc.params.get("n"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        eprintln!(
            "#   {:<20} {speedup:>10.2} x      rebin of {n} bodies: {ns:.1} ns/body (one worker: {one:.1} ns/body)",
            "rebin_speedup"
        );
    }
    if let (Some(ms), Some(one), Some(speedup)) = (
        rebin_median("plan_rebuild_ms"),
        rebin_median("plan_rebuild_1w_ms"),
        rebin_median("plan_rebuild_speedup"),
    ) {
        eprintln!(
            "#   {:<20} {speedup:>10.2} x      plan rebuild on that tree: {ms:.1} ms (one worker: {one:.1} ms)",
            "plan_rebuild_speedup"
        );
    }
    eprintln!("# per core, host against cost model:");
    let model = solve.snapshot.get("cost_model");
    // (metric, unit, model coefficient in seconds, units per second)
    for (name, unit, coeff, per_s) in [
        ("p2p_ns_per_pair", "ns/pair", "c_cpu_pair", 1e9),
        ("l2p_ns_per_body", "ns/body", "c_l2p", 1e9),
        ("m2l_us_per_op", "us/op", "c_m2l", 1e6),
    ] {
        let (Some(host), Some(c)) = (
            median(name),
            model.and_then(|m| m.get(coeff)).and_then(Json::as_f64),
        ) else {
            continue;
        };
        eprintln!(
            "#   {name:<20} {host:>10.2} {unit}  host | model {coeff} = {:.2} {unit}  (host/model {:.2})",
            c * per_s,
            host / (c * per_s)
        );
    }
}

/// The two human-readable views of `memory_profile`, from its snapshot: the
/// structural footprint breakdown (capacity granularity, any build), and —
/// with the counting allocator in — the per-scope allocation table of the
/// frozen-position gate phase, whose `rebin` and `plan.refresh` rows are what
/// `steady_gate_allocs` adds up.
fn print_memory_profile(report: &BenchReport) {
    let Some(snap) = report.scenario("memory_profile").map(|sc| &sc.snapshot) else {
        return;
    };
    if let Some(mem) = snap.get("mem").and_then(Json::as_obj) {
        eprintln!("# memory_profile structural footprint:");
        for (key, v) in mem {
            eprintln!("#   {key:<40} {:>14.1}", v.as_f64().unwrap_or(0.0));
        }
    }
    let Some(alloc) = snap.get("allocator") else {
        return;
    };
    let count = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    eprintln!("# memory_profile allocator view (gate phase, per scope):");
    eprintln!(
        "#   {:<24} {:>10} {:>14} {:>16}",
        "scope", "allocs", "alloc_bytes", "peak_live_bytes"
    );
    for (scope, row) in alloc.get("scopes").and_then(Json::as_obj).unwrap_or(&[]) {
        eprintln!(
            "#   {scope:<24} {:>10.0} {:>14.0} {:>16.0}",
            count(row, "allocs"),
            count(row, "alloc_bytes"),
            count(row, "peak_live_bytes")
        );
    }
    if let Some(g) = alloc.get("global") {
        eprintln!(
            "#   {:<24} {:>10.0} {:>14.0} {:>16.0}  (live {:.0})",
            "process",
            count(g, "allocs"),
            count(g, "alloc_bytes"),
            count(g, "peak_live_bytes"),
            count(g, "live_bytes")
        );
    }
}

fn write_report(report: &BenchReport, path: &std::path::Path) -> Result<(), String> {
    std::fs::write(path, report.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    BenchReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_run(args: &[String]) -> ExitCode {
    let mut cfg = SuiteConfig::full();
    let mut output = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => cfg = SuiteConfig::quick(),
            "--smoke" => cfg = SuiteConfig::smoke(),
            "--full" => cfg = SuiteConfig::full(),
            "-o" | "--output" => match it.next() {
                Some(p) => output = Some(std::path::PathBuf::from(p)),
                None => return fail("-o requires a path"),
            },
            other => return fail(format!("unexpected argument \"{other}\"\n{USAGE}")),
        }
    }
    let report = run_and_render(&cfg);
    let path = output.unwrap_or_else(|| bench::out_path("BENCH_perf.json"));
    if let Err(e) = write_report(&report, &path) {
        return fail(e);
    }
    eprintln!(
        "# wrote {} ({} scenarios, commit {})",
        path.display(),
        report.scenarios.len(),
        &report.commit[..report.commit.len().min(12)]
    );
    ExitCode::SUCCESS
}

fn cmd_compare(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        return fail(USAGE);
    };
    let (old, new) = match (load_report(old_path), load_report(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let result = compare(&old, &new, &CompareConfig::default());
    print!("{}", result.render());
    let (om, nm) = bench::harness::compare::modes(&old, &new);
    if om != nm {
        eprintln!("# note: comparing a \"{om}\" baseline against a \"{nm}\" report");
    }
    if result.regressions() > 0 {
        eprintln!(
            "# FAIL: {} statistically significant regression(s) vs {old_path}",
            result.regressions()
        );
        return ExitCode::from(1);
    }
    eprintln!("# OK: no significant regressions vs {old_path}");
    ExitCode::SUCCESS
}

/// Default location of the checked-in baseline: `bench/baseline.json` at
/// the workspace root (resolved from this crate's manifest dir so the
/// command works from any CWD inside the repo).
fn default_baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("bench/baseline.json")
}

fn cmd_baseline(args: &[String]) -> ExitCode {
    // The baseline is what CI's quick run gates against, so it is recorded
    // at quick-mode sizes unless --full is given.
    let mut cfg = SuiteConfig::quick();
    let mut output = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => cfg = SuiteConfig::full(),
            "--smoke" => cfg = SuiteConfig::smoke(),
            "-o" | "--output" => match it.next() {
                Some(p) => output = Some(std::path::PathBuf::from(p)),
                None => return fail("-o requires a path"),
            },
            other => return fail(format!("unexpected argument \"{other}\"\n{USAGE}")),
        }
    }
    let report = run_and_render(&cfg);
    let path = output.unwrap_or_else(default_baseline_path);
    if let Some(dir) = path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("create {}: {e}", dir.display()));
        }
    }
    if let Err(e) = write_report(&report, &path) {
        return fail(e);
    }
    eprintln!(
        "# baseline refreshed: {} ({} mode, commit {})",
        path.display(),
        cfg.mode,
        &report.commit[..report.commit.len().min(12)]
    );
    ExitCode::SUCCESS
}
