//! **afmm-sched** — the scheduler x-ray toolchain: inspect the per-task DAG
//! traces an `ExecPolicy { mode: Dag, trace: true }` run records.
//!
//! ```text
//! afmm-sched demo    [-o trace.jsonl] [--steps N] [--bodies N] [--cores C] [--gpus G]
//!                                          record a small traced run
//! afmm-sched explain <trace.jsonl> [--step N]
//!                                          critical path + attribution table
//! afmm-sched gantt   <trace.jsonl> [-o out.json]
//!                                          lane-track Chrome trace export
//! ```
//!
//! Exit codes: 0 = ok; 1 = malformed trace, no scheduler x-ray in the
//! trace, critical-path sum disagreeing with the recorded makespan (beyond
//! 1e-9 relative), or attribution fractions not summing to 1; 2 = usage.
//!
//! `explain` is also the CI reconciliation gate: it recomputes the critical
//! path's duration sum from the per-task `sched.task` spans and cross-checks
//! it against the `sched.critpath` summary the run recorded — a mismatch
//! means the trace (or the analyzer) is lying about where the makespan went.

use std::process::ExitCode;

use afmm::{ExecPolicy, FmmParams, HeteroNode, LbConfig, SchedMode, Strategy, StrategyTracker};
use fmm_math::GravityKernel;
use telemetry::{ChromeTraceExporter, EventRecord, JsonlSink, Recorder};

const USAGE: &str = "usage: afmm-sched <demo|explain|gantt> [...]
  demo    [-o trace.jsonl] [--steps N] [--bodies N] [--cores C] [--gpus G]
                                         record a traced DAG-scheduled run
  explain <trace.jsonl> [--step N]       print critical path + attribution
  gantt   <trace.jsonl> [-o out.json]    export scheduler-lane Chrome trace";

/// Relative tolerance for the crit-sum vs makespan reconciliation and for
/// the attribution-fraction sum checks. The analyzer's abutting invariant
/// telescopes exactly; only float rounding over ~1e3 tasks remains.
const RECONCILE_TOL: f64 = 1e-9;

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("afmm-sched: {msg}");
    ExitCode::from(2)
}

/// Data problems (malformed trace, missing x-ray, failed reconciliation)
/// exit 1 so CI can distinguish them from usage errors.
fn bad_trace(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("afmm-sched: {msg}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return fail(USAGE);
    };
    match cmd.as_str() {
        "demo" => cmd_demo(&args[1..]),
        "explain" => cmd_explain(&args[1..]),
        "gantt" => cmd_gantt(&args[1..]),
        other => fail(format!("unknown subcommand \"{other}\"\n{USAGE}")),
    }
}

fn cmd_demo(args: &[String]) -> ExitCode {
    let mut output = None;
    let mut steps = 6usize;
    let mut bodies = 4_000usize;
    let mut cores = 10usize;
    let mut gpus = 4usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<usize, ExitCode> {
            it.next()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&v| v > 0)
                .ok_or_else(|| fail(format!("{name} requires a positive integer")))
        };
        match a.as_str() {
            "-o" | "--output" => match it.next() {
                Some(p) => output = Some(std::path::PathBuf::from(p)),
                None => return fail("-o requires a path"),
            },
            "--steps" => match num("--steps") {
                Ok(v) => steps = v,
                Err(e) => return e,
            },
            "--bodies" => match num("--bodies") {
                Ok(v) => bodies = v,
                Err(e) => return e,
            },
            "--cores" => match num("--cores") {
                Ok(v) => cores = v,
                Err(e) => return e,
            },
            "--gpus" => match num("--gpus") {
                Ok(v) => gpus = v,
                Err(e) => return e,
            },
            other => return fail(format!("unexpected argument \"{other}\"\n{USAGE}")),
        }
    }
    let path = output.unwrap_or_else(|| bench::out_path("BENCH_sched_trace.jsonl"));
    let rec = Recorder::enabled();
    match JsonlSink::create(&path) {
        Ok(sink) => rec.set_sink(sink),
        Err(e) => return fail(format!("create {}: {e}", path.display())),
    }
    let b = nbody::plummer(bodies, 1.0, 1.0, 1213);
    let mut tracker = StrategyTracker::with_telemetry(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(cores, gpus),
        Strategy::Full,
        LbConfig::default(),
        &b.pos,
        None,
        rec.clone(),
    );
    tracker.set_exec_policy(ExecPolicy {
        mode: SchedMode::Dag,
        trace: true,
        ..Default::default()
    });
    for step in 0..steps {
        if let Err(e) = tracker.step(&b.pos) {
            return fail(format!("step {step}: {e}"));
        }
    }
    rec.flush();
    eprintln!(
        "# recorded {steps} traced steps (N={bodies}, {cores}C{gpus}G) to {}",
        path.display()
    );
    ExitCode::SUCCESS
}

fn load(path: &str) -> Result<Vec<EventRecord>, String> {
    telemetry::read_trace(path).map_err(|e| format!("{path}: {e}"))
}

/// The `sched.critpath` summary event of the chosen step, or the latest one.
fn pick_step(records: &[EventRecord], want: Option<u64>) -> Option<&EventRecord> {
    let mut found = None;
    for r in records.iter().filter(|r| r.name == "sched.critpath") {
        match want {
            Some(s) if r.step == s => return Some(r),
            Some(_) => {}
            None => found = Some(r),
        }
    }
    found
}

fn cmd_explain(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut step = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--step" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => step = Some(s),
                None => return fail("--step requires a step number"),
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
        Err(e) => return bad_trace(e),
    };
    let Some(summary) = pick_step(&records, step) else {
        return bad_trace(match step {
            Some(s) => format!("{input}: no sched.critpath record at step {s}"),
            None => format!(
                "{input}: no scheduler x-ray in trace — record one with \
                 ExecPolicy {{ mode: Dag, trace: true }} (afmm-sched demo)"
            ),
        });
    };
    let step = summary.step;
    let f = |k: &str| summary.field_f64(k).unwrap_or(f64::NAN);
    let u = |k: &str| summary.field_u64(k).unwrap_or(0);
    let makespan = f("makespan");
    let recorded_sum = f("sum");
    let len = u("len") as usize;

    // The step's per-task slices, and the critical path in walk order.
    let tasks: Vec<&EventRecord> = records
        .iter()
        .filter(|r| r.name == "sched.task" && r.step == step)
        .collect();
    let mut crit: Vec<(i64, &EventRecord)> = tasks
        .iter()
        .filter_map(|r| {
            let c = r.field_i64("crit")?;
            (c >= 0).then_some((c, *r))
        })
        .collect();
    crit.sort_by_key(|(c, _)| *c);
    if crit.len() != len || crit.iter().enumerate().any(|(i, (c, _))| *c != i as i64) {
        return bad_trace(format!(
            "{input}: step {step} carries {} on-path sched.task slices but the \
             summary says the critical path has {len} — malformed trace",
            crit.len()
        ));
    }

    println!("scheduler x-ray — step {step} ({input})");
    println!(
        "  pass: {}   node: {} cores + {} GPU lanes   tasks: {}",
        summary.field_str("pass").unwrap_or("?"),
        u("cores"),
        u("gpu_lanes"),
        tasks.len()
    );
    println!(
        "  makespan: {makespan:.6e} s   lane idle: {:.1}%   CPU/GPU overlap: {:.1}%",
        100.0 * f("lane_idle_frac"),
        100.0 * f("pipeline_overlap")
    );

    println!("\ncritical path ({len} tasks):");
    println!(
        "  {:>4} {:>6} {:<6} {:<7} {:>12} {:>12} {:>12}",
        "#", "task", "phase", "lane", "start", "finish", "dur"
    );
    let mut crit_sum = 0.0f64;
    for (i, (_, r)) in crit.iter().enumerate() {
        let dur = r.dur_s.unwrap_or(0.0);
        let start = r.field_f64("start").unwrap_or(f64::NAN);
        crit_sum += dur;
        println!(
            "  {:>4} {:>6} {:<6} {:<7} {:>12.6e} {:>12.6e} {:>12.6e}",
            i,
            r.field_u64("task").unwrap_or(0),
            r.field_str("phase").unwrap_or("?"),
            r.field_str("lane").unwrap_or("?"),
            start,
            start + dur,
            dur
        );
    }

    println!("\nattribution (fractions of the critical path):");
    println!(
        "  by cause:  dependency {:.1}%   CPU starvation {:.1}%   GPU serialization {:.1}%",
        100.0 * f("dep_frac"),
        100.0 * f("starve_frac"),
        100.0 * f("serial_frac")
    );
    println!(
        "  by lane:   CPU {:.1}%   GPU {:.1}%",
        100.0 * f("cpu_frac"),
        100.0 * f("gpu_frac")
    );
    let phases = ["p2m", "m2m", "m2l", "l2l", "l2p", "p2p"];
    let phase_line: Vec<String> = phases
        .iter()
        .map(|p| format!("{p} {:.1}%", 100.0 * f(&format!("frac_{p}"))))
        .collect();
    println!("  by phase:  {}", phase_line.join("   "));

    let lanes: Vec<&EventRecord> = records
        .iter()
        .filter(|r| r.name == "sched.lane" && r.step == step)
        .collect();
    if !lanes.is_empty() {
        println!("\nlane utilization:");
        for l in lanes {
            println!(
                "  {:<7} util {:>5.1}%   {:>5} tasks   {:>3} idle gaps (max {:.3e} s)",
                l.field_str("lane").unwrap_or("?"),
                100.0 * l.field_f64("util").unwrap_or(f64::NAN),
                l.field_u64("tasks").unwrap_or(0),
                l.field_u64("idle_gaps").unwrap_or(0),
                l.field_f64("idle_max").unwrap_or(f64::NAN)
            );
        }
    }

    // ---- reconciliation gate ----
    let scale = makespan.abs().max(1e-12);
    if !makespan.is_finite() || (crit_sum - makespan).abs() > RECONCILE_TOL * scale + 1e-15 {
        return bad_trace(format!(
            "step {step}: critical-path durations sum to {crit_sum:.12e} but the \
             recorded makespan is {makespan:.12e} — reconciliation failed"
        ));
    }
    if (recorded_sum - crit_sum).abs() > RECONCILE_TOL * scale + 1e-15 {
        return bad_trace(format!(
            "step {step}: recomputed crit sum {crit_sum:.12e} disagrees with the \
             recorded sum {recorded_sum:.12e}"
        ));
    }
    let families: [(&str, f64); 3] = [
        ("cause", f("dep_frac") + f("starve_frac") + f("serial_frac")),
        ("lane", f("cpu_frac") + f("gpu_frac")),
        (
            "phase",
            phases.iter().map(|p| f(&format!("frac_{p}"))).sum::<f64>(),
        ),
    ];
    for (family, total) in families {
        if (total - 1.0).abs() > RECONCILE_TOL {
            return bad_trace(format!(
                "step {step}: {family} attribution fractions sum to {total:.12} (want 1.0)"
            ));
        }
    }
    println!(
        "\nreconciled: crit-path sum {crit_sum:.6e} s == makespan (within {RECONCILE_TOL:.0e} \
         relative); all attribution families sum to 1"
    );
    ExitCode::SUCCESS
}

fn cmd_gantt(args: &[String]) -> ExitCode {
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
        Err(e) => return bad_trace(e),
    };
    let slices = records.iter().filter(|r| r.name == "sched.task").count();
    if slices == 0 {
        return bad_trace(format!(
            "{input}: no sched.task spans — nothing to chart (run with \
             ExecPolicy {{ mode: Dag, trace: true }})"
        ));
    }
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
        bench::out_path(&format!("{}.gantt.json", stem.trim_end_matches(".jsonl")))
    });
    if let Err(e) = std::fs::write(&out_path, &json) {
        return fail(format!("write {}: {e}", out_path.display()));
    }
    eprintln!(
        "# exported {slices} task slices ({} records total) to {}; the \
         \"scheduler lanes\" process renders the per-lane Gantt chart in Perfetto",
        records.len(),
        out_path.display()
    );
    ExitCode::SUCCESS
}
