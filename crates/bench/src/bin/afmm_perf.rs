//! **afmm-perf** — the perf-lab driver: run the benchmark suite, compare
//! two reports with the noise-aware gate, refresh the checked-in baseline,
//! and keep the longitudinal perf ledger.
//!
//! ```text
//! afmm-perf run [--quick|--smoke] [-o out.json]   run the suite → BENCH_perf.json
//! afmm-perf compare <old.json> <new.json>         classify deltas; exit 1 on regression
//! afmm-perf compare --against-ledger K <new.json> gate vs rolling median of last K runs
//! afmm-perf baseline [--full] [-o path]           refresh bench/baseline.json
//! afmm-perf record <report.json>                  append a run to the ledger
//! afmm-perf history [--quick|--full|--smoke]      per-metric series with median/MAD bands
//! afmm-perf trend [--quick|--full|--smoke]        step/drift/spike classification
//! ```
//!
//! Exit codes follow `afmm-trace`: 0 = ok, 1 = statistically significant
//! regression (a gated `compare` verdict, or a confirmed gated step for
//! `trend`), 2 = usage or I/O error. `compare` prints a fixed-width
//! verdict table; a metric only fails the gate when its bootstrap CIs
//! don't overlap *and* the median delta clears the relative-MAD threshold
//! (see `bench::harness::compare`). Reports embed structural introspection
//! snapshots, so a regression comes with the tree/plan/GPU/cost-model
//! context needed to attribute it.
//!
//! The ledger (`bench/ledger.jsonl`, or `$BENCH_OUT_DIR/ledger.jsonl` when
//! that is set) is append-only JSONL, one entry per recorded run, keyed
//! into series by `(host fingerprint, suite mode)`; each entry carries the
//! run's cost-model coefficients and prediction-audit stats.

use std::process::ExitCode;

/// With the `memprof` feature the counting allocator wraps the system one,
/// lighting up the `memory_profile` scenario's allocator metrics. Without
/// the feature nothing is wrapped and those metrics are omitted.
#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

use bench::harness::{
    compare, host_key, render_history, render_trends, run_suite, synthesize_baseline, trend_rows,
    BenchReport, CompareConfig, Ledger, LedgerEntry, SuiteConfig,
};
use telemetry::json::Json;

const USAGE: &str = "usage: afmm-perf <run|compare|baseline|record|history|trend> [...]
  run [--quick|--smoke] [-o out.json]   run the suite, write a BenchReport JSON
  compare <old.json> <new.json>         noise-aware comparison; exit 1 on regression
  compare --against-ledger K <new.json> [--ledger path]
                                        gate vs the rolling median of the last K
                                        same-host, same-mode ledger entries
  baseline [--full] [-o path]           run the suite and refresh the checked-in baseline
  record <report.json> [--ledger path] [--time unix_s]
                                        append the run to the perf ledger
  history [--quick|--full|--smoke] [--host key] [--ledger path]
                                        print per-metric series with median/MAD bands
  trend [--quick|--full|--smoke] [--host key] [--ledger path]
                                        classify each gated series (step/drift/spike);
                                        exit 1 on a confirmed gated step regression";

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
        "record" => cmd_record(&args[1..]),
        "history" => cmd_history(&args[1..]),
        "trend" => cmd_trend(&args[1..]),
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
/// workers buy `tree_maintenance`'s rebin), and the host's measured operator
/// costs beside the cost model's coefficients for the same operators (both
/// per core: virtual core-time per application, probes on one thread), so
/// model-vs-host skew is visible at a glance.
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
            eprintln!("#   {name:<16} {t:>10.4} s  {:>5.1} %", 100.0 * t / wall);
        }
    }
    eprintln!(
        "#   {:<16} {phases:>10.4} s  {:>5.1} %",
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
            "#   {:<16} {speedup:>10.2} x      host, {cpus} workers (one worker: {one:.4} s) | model parallel_rate = {rate:.2} cores  (host/model {:.2})",
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
            "#   {:<16} {speedup:>10.2} x      rebin of {n} bodies: {ns:.1} ns/body (one worker: {one:.1} ns/body)",
            "rebin_speedup"
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
            "#   {name:<16} {host:>10.2} {unit}  host | model {coeff} = {:.2} {unit}  (host/model {:.2})",
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
    let gauges = snap.get("metrics").and_then(|m| m.get("gauges"));
    if let Some(gauges) = gauges.and_then(Json::as_obj) {
        eprintln!("# memory_profile allocator view (gate phase, per scope):");
        for (key, v) in gauges {
            eprintln!("#   {key:<40} {:>14.0}", v.as_f64().unwrap_or(0.0));
        }
    }
}

fn write_report(report: &BenchReport, path: &std::path::Path) -> Result<(), String> {
    std::fs::write(path, report.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn load_report(path: &str) -> Result<BenchReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (report, warnings) =
        BenchReport::from_json_warn(&text).map_err(|e| format!("{path}: {e}"))?;
    for w in warnings {
        eprintln!("# warning: {path}: {w}");
    }
    Ok(report)
}

/// Workspace-root file path (resolved from this crate's manifest dir so
/// commands work from any CWD inside the repo).
fn workspace_path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Default ledger location: `$BENCH_OUT_DIR/ledger.jsonl` when the
/// override is set (same routing as every other bench artifact), else the
/// persistent `bench/ledger.jsonl` at the workspace root.
fn default_ledger_path() -> std::path::PathBuf {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(d) if !d.is_empty() => bench::out_path("ledger.jsonl"),
        _ => workspace_path("bench/ledger.jsonl"),
    }
}

fn load_ledger(path: &std::path::Path) -> Result<Ledger, String> {
    let (ledger, warnings) = Ledger::load(path)?;
    for w in warnings {
        eprintln!("# warning: {}: {w}", path.display());
    }
    Ok(ledger)
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
    let mut against_ledger: Option<usize> = None;
    let mut ledger_path = default_ledger_path();
    let mut paths: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--against-ledger" => match it.next().and_then(|k| k.parse::<usize>().ok()) {
                Some(k) if k >= 1 => against_ledger = Some(k),
                _ => return fail("--against-ledger requires a window size K >= 1"),
            },
            "--ledger" => match it.next() {
                Some(p) => ledger_path = std::path::PathBuf::from(p),
                None => return fail("--ledger requires a path"),
            },
            _ => paths.push(a),
        }
    }
    let (old, new, old_path) = match (against_ledger, paths.as_slice()) {
        (None, [old_path, new_path]) => match (load_report(old_path), load_report(new_path)) {
            (Ok(o), Ok(n)) => (o, n, old_path.to_string()),
            (Err(e), _) | (_, Err(e)) => return fail(e),
        },
        (Some(k), [new_path]) => {
            let new = match load_report(new_path) {
                Ok(n) => n,
                Err(e) => return fail(e),
            };
            let ledger = match load_ledger(&ledger_path) {
                Ok(l) => l,
                Err(e) => return fail(e),
            };
            let key = host_key(&new.host);
            let mode = new
                .config
                .get("mode")
                .and_then(Json::as_str)
                .unwrap_or("unknown");
            let series = ledger.series(&key, mode);
            let Some(old) = synthesize_baseline(&series, k) else {
                return fail(format!(
                    "no ledger history for series {key}/{mode} in {}",
                    ledger_path.display()
                ));
            };
            if series.len() < k {
                eprintln!(
                    "# warning: --against-ledger {k} requested but the {key}/{mode} \
                     series has only {} entr{}; the rolling median is thinner than \
                     asked for and a single outlier run weighs more",
                    series.len(),
                    if series.len() == 1 { "y" } else { "ies" }
                );
            }
            eprintln!(
                "# baseline synthesized from the last {} of {} ledger entries ({key}/{mode})",
                k.min(series.len()),
                series.len()
            );
            let label = format!("ledger:{key}/{mode}");
            (old, new, label)
        }
        _ => return fail(USAGE),
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

fn cmd_record(args: &[String]) -> ExitCode {
    let mut ledger_path = default_ledger_path();
    let mut unix_s: Option<u64> = None;
    let mut report_path: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--ledger" => match it.next() {
                Some(p) => ledger_path = std::path::PathBuf::from(p),
                None => return fail("--ledger requires a path"),
            },
            "--time" => match it.next().and_then(|t| t.parse::<u64>().ok()) {
                Some(t) => unix_s = Some(t),
                None => return fail("--time requires unix seconds"),
            },
            other if report_path.is_none() && !other.starts_with('-') => report_path = Some(a),
            other => return fail(format!("unexpected argument \"{other}\"\n{USAGE}")),
        }
    }
    let Some(report_path) = report_path else {
        return fail("record requires a report path");
    };
    let report = match load_report(report_path) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let unix_s = unix_s.unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    });
    let entry = LedgerEntry::from_report(&report, unix_s);
    if let Err(e) = Ledger::append(&ledger_path, &entry) {
        return fail(e);
    }
    eprintln!(
        "# recorded {}/{} commit {} -> {}",
        entry.host_key,
        entry.mode,
        &entry.commit[..entry.commit.len().min(12)],
        ledger_path.display()
    );
    ExitCode::SUCCESS
}

/// Shared flag parsing for `history` / `trend`: ledger path, host key
/// (default: this machine), optional mode filter.
struct SeriesArgs {
    ledger_path: std::path::PathBuf,
    host: String,
    mode: Option<String>,
}

fn parse_series_args(args: &[String]) -> Result<SeriesArgs, String> {
    let mut out = SeriesArgs {
        ledger_path: default_ledger_path(),
        host: host_key(&BenchReport::current_host()),
        mode: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => out.mode = Some("quick".to_string()),
            "--full" => out.mode = Some("full".to_string()),
            "--smoke" => out.mode = Some("smoke".to_string()),
            "--mode" => match it.next() {
                Some(m) => out.mode = Some(m.to_string()),
                None => return Err("--mode requires a suite mode".to_string()),
            },
            "--host" => match it.next() {
                Some(h) => out.host = h.to_string(),
                None => return Err("--host requires a host key".to_string()),
            },
            "--ledger" => match it.next() {
                Some(p) => out.ledger_path = std::path::PathBuf::from(p),
                None => return Err("--ledger requires a path".to_string()),
            },
            other => return Err(format!("unexpected argument \"{other}\"\n{USAGE}")),
        }
    }
    Ok(out)
}

/// The `(host, mode)` series selected by the flags: the given mode, or
/// every mode this host has recorded.
fn selected_series(ledger: &Ledger, sel: &SeriesArgs) -> Vec<(String, String)> {
    match &sel.mode {
        Some(m) => vec![(sel.host.clone(), m.clone())],
        None => ledger
            .series_keys()
            .into_iter()
            .filter(|(h, _)| *h == sel.host)
            .collect(),
    }
}

fn cmd_history(args: &[String]) -> ExitCode {
    let sel = match parse_series_args(args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let ledger = match load_ledger(&sel.ledger_path) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let keys = selected_series(&ledger, &sel);
    if keys.is_empty() {
        eprintln!(
            "# no ledger entries for host {} in {}",
            sel.host,
            sel.ledger_path.display()
        );
        return ExitCode::SUCCESS;
    }
    for (host, mode) in keys {
        let series = ledger.series(&host, &mode);
        print!("{}", render_history(&series, &host, &mode));
    }
    ExitCode::SUCCESS
}

fn cmd_trend(args: &[String]) -> ExitCode {
    let sel = match parse_series_args(args) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let ledger = match load_ledger(&sel.ledger_path) {
        Ok(l) => l,
        Err(e) => return fail(e),
    };
    let keys = selected_series(&ledger, &sel);
    if keys.is_empty() {
        eprintln!(
            "# no ledger entries for host {} in {}",
            sel.host,
            sel.ledger_path.display()
        );
        return ExitCode::SUCCESS;
    }
    let cfg = telemetry::TrendConfig::default();
    let mut regressions = 0;
    for (host, mode) in keys {
        let series = ledger.series(&host, &mode);
        let rows = trend_rows(&series, &cfg);
        print!("{}", render_trends(&rows, &host, &mode));
        regressions += rows.iter().filter(|r| r.regression).count();
    }
    if regressions > 0 {
        eprintln!("# FAIL: {regressions} confirmed gated step regression(s) in the ledger");
        return ExitCode::from(1);
    }
    eprintln!("# OK: no confirmed gated step regressions");
    ExitCode::SUCCESS
}
