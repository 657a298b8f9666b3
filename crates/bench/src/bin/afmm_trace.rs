//! **afmm-trace** — the offline trace toolchain: read a telemetry JSONL
//! trace back and export, summarize, validate, or diff it.
//!
//! ```text
//! afmm-trace export   <trace.jsonl> [-o out.json]   Chrome trace_event JSON
//! afmm-trace summary  <trace.jsonl>                 event counts + timeline
//! afmm-trace validate <trace.jsonl>                 replay invariant check
//! afmm-trace diff     <a.jsonl> <b.jsonl>           step-aligned comparison
//! ```
//!
//! Exit codes: 0 = ok, 1 = invariant violation / diff mismatch, 2 = usage,
//! I/O, or parse error. The exported file loads in Perfetto or
//! `chrome://tracing`, with one track per FMM phase, one per GPU device,
//! and instant events for the balancer flight record.

use std::collections::BTreeMap;
use std::process::ExitCode;

use afmm::{diff_traces, validate_trace_report, DEFAULT_PHASE_TOLERANCE};
use telemetry::{ChromeTraceExporter, EventRecord, Value};

const USAGE: &str = "usage: afmm-trace <export|summary|validate|diff> <trace.jsonl> [...]
  export   <trace.jsonl> [-o out.json]    write Chrome trace_event JSON
  summary  <trace.jsonl>                  print event counts and LB timeline
  validate <trace.jsonl>                  check replay invariants
  diff     <a.jsonl> <b.jsonl>            step-aligned trajectory comparison";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("afmm-trace: {msg}");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<Vec<EventRecord>, String> {
    telemetry::read_trace(path).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return fail(USAGE);
    };
    match cmd.as_str() {
        "export" => cmd_export(&args[1..]),
        "summary" => cmd_summary(&args[1..]),
        "validate" => cmd_validate(&args[1..]),
        "diff" => cmd_diff(&args[1..]),
        other => fail(format!("unknown subcommand \"{other}\"\n{USAGE}")),
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut output = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-o" | "--output" => match it.next() {
                Some(p) => output = Some(p.clone()),
                None => return fail("-o requires a path"),
            },
            _ if input.is_none() => input = Some(a.clone()),
            _ => return fail(format!("unexpected argument \"{a}\"\n{USAGE}")),
        }
    }
    let Some(input) = input else {
        return fail(USAGE);
    };
    let records = match load(&input) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let json = ChromeTraceExporter::export(&records);
    debug_assert!(telemetry::json::Json::parse(&json).is_ok());
    // Default output goes through `bench::out_path` (honoring
    // `$BENCH_OUT_DIR`) so CI runs land artifacts in the scratch dir
    // instead of the working tree; `-o` still overrides verbatim.
    let out_path = output.map(std::path::PathBuf::from).unwrap_or_else(|| {
        let stem = std::path::Path::new(&input)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| input.clone());
        bench::out_path(&format!("{}.chrome.json", stem.trim_end_matches(".jsonl")))
    });
    if let Err(e) = std::fs::write(&out_path, &json) {
        return fail(format!("write {}: {e}", out_path.display()));
    }
    eprintln!(
        "# exported {} records from {input} to {} ({} bytes); open in Perfetto \
         or chrome://tracing",
        records.len(),
        out_path.display(),
        json.len()
    );
    ExitCode::SUCCESS
}

fn cmd_summary(args: &[String]) -> ExitCode {
    let [input] = args else {
        return fail(USAGE);
    };
    let records = match load(input) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let steps = records.iter().filter(|r| r.name == "step.record").count();
    let mut by_name: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records {
        *by_name.entry(r.name).or_default() += 1;
    }
    println!("trace: {input}");
    println!("records: {}  steps: {steps}", records.len());
    println!("events by name:");
    for (name, n) in &by_name {
        println!("  {name:<24} {n}");
    }
    let transitions: Vec<&EventRecord> = records
        .iter()
        .filter(|r| r.name == "lb.transition")
        .collect();
    if !transitions.is_empty() {
        println!("balancer timeline:");
        for t in transitions {
            let get = |k: &str| match t.field(k) {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::U64(v)) => v.to_string(),
                _ => "?".into(),
            };
            println!(
                "  step {:>4}: {} -> {} ({}, S={})",
                t.step,
                get("from"),
                get("to"),
                get("cause"),
                get("s")
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_validate(args: &[String]) -> ExitCode {
    let [input] = args else {
        return fail(USAGE);
    };
    let records = match load(input) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let report = validate_trace_report(&records);
    if report.reconciled_steps > 0 {
        eprintln!(
            "# phase reconciliation: max residual {:.3e} (tolerance {:.3e}) at step {} over {} step(s)",
            report.max_phase_residual,
            DEFAULT_PHASE_TOLERANCE,
            report.max_phase_residual_step.unwrap_or(0),
            report.reconciled_steps
        );
    }
    if report.violations.is_empty() {
        let steps = records.iter().filter(|r| r.name == "step.record").count();
        eprintln!(
            "# {input}: OK — {} records, {steps} steps, all replay invariants hold",
            records.len()
        );
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "# {input}: {} invariant violation(s)",
        report.violations.len()
    );
    for v in &report.violations {
        println!("{v}");
    }
    ExitCode::from(1)
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [a, b] = args else {
        return fail(USAGE);
    };
    let (ra, rb) = match (load(a), load(b)) {
        (Ok(ra), Ok(rb)) => (ra, rb),
        (Err(e), _) | (_, Err(e)) => return fail(e),
    };
    let diff = diff_traces(&ra, &rb);
    println!(
        "a: {} steps  b: {} steps  max compute-time ratio: {:.3}",
        diff.steps_a, diff.steps_b, diff.max_time_ratio
    );
    if diff.is_match() {
        println!("trajectories match (same S and state at every aligned step)");
        return ExitCode::SUCCESS;
    }
    println!("{} mismatch(es):", diff.mismatches.len());
    for m in &diff.mismatches {
        println!("  {m}");
    }
    ExitCode::from(1)
}
