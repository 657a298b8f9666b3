//! **afmm-chaos** — the chaos soak runner: hundreds of seeded fault +
//! corruption scenarios thrown at a supervised tracker, gated on two
//! properties the resilience layer promises:
//!
//! * **no wrong answers** — every scenario that completes produces a final
//!   field within FMM accuracy of a direct-sum reference (corrupted state
//!   is caught by the audits before it reaches a result);
//! * **bounded recovery** — after any disturbance the supervisor returns
//!   the run to clean (`RecoveryAction::None`) steps within
//!   `RECOVERY_BOUND` supervised steps.
//!
//! Each scenario is one [`ChaosPlan`] generated from its seed: the fault
//! half (dropouts, slowdowns, CPU load, timing noise — including multi-
//! event storms) is installed as the tracker's
//! [`FaultSchedule`](afmm::FaultSchedule); the corruption half (NaN
//! bodies, plan truncation, stale epochs, mid-run kill-and-restore) is
//! injected behind the engine's back via
//! [`afmm::chaos::inject`]. Node shape and body count vary with the seed so
//! the soak also covers CPU-only and 4-GPU configurations.
//!
//! ```text
//! afmm-chaos [--smoke] [scenarios] [steps] [bodies]
//! ```
//!
//! `--smoke` is the CI profile (12 scenarios, short runs); the default full
//! soak runs 200. Scenario 0 records a telemetry trace to
//! `BENCH_chaos_trace.jsonl` for `afmm-trace validate`; the report goes to
//! `BENCH_chaos.json` (both via `$BENCH_OUT_DIR`). Exit codes: 0 = all
//! gates hold, 1 = gate failure, 2 = usage.

use afmm::chaos::{inject, ChaosPlan};
use afmm::{
    FmmParams, HeteroNode, LbConfig, RecoveryAction, Strategy, StrategyTracker, Supervisor,
    SupervisorConfig,
};
use fmm_math::GravityKernel;
use geom::Vec3;
use nbody::plummer;
use telemetry::json::{obj, Json};

/// A disturbance must be healed within this many supervised steps.
const RECOVERY_BOUND: usize = 5;
/// Final-field relative error above this is a wrong answer (order-6
/// cartesian expansions sit near 2e-5; an unaudited corrupted plan is
/// orders of magnitude off or NaN).
const FIELD_TOL: f64 = 1e-3;
/// Direct-sum reference targets per scenario.
const PROBES: usize = 24;

struct Outcome {
    seed: u64,
    devices: usize,
    bodies: usize,
    events: usize,
    corruptions: usize,
    completed: bool,
    /// Longest run of consecutive steps that needed a recovery rung.
    max_recovery_streak: usize,
    field_err: f64,
    retries: u64,
    rebuilds: u64,
    cpu_fallbacks: u64,
    restores: u64,
    audit_failures: u64,
    panics: u64,
    note: String,
}

impl Outcome {
    fn wrong_answer(&self) -> bool {
        self.completed && (self.field_err.is_nan() || self.field_err >= FIELD_TOL)
    }

    fn recovery_bounded(&self) -> bool {
        self.max_recovery_streak <= RECOVERY_BOUND
    }
}

/// Deterministic slow contraction: positions are a pure function of the
/// step index, so a restore that rewinds the run replays the exact same
/// trajectory.
fn trajectory(base: &[Vec3], step: usize) -> Vec<Vec3> {
    let f = 0.997_f64.powi(step as i32);
    base.iter().map(|p| *p * f).collect()
}

/// Node shape per seed: mostly the paper's 2-GPU System A, with 1-GPU,
/// 4-GPU and CPU-only configurations mixed in.
fn devices_for(seed: u64) -> usize {
    [2, 1, 4, 2, 0][(seed % 5) as usize]
}

fn run_scenario(seed: u64, steps: usize, base_bodies: usize, trace: bool) -> Outcome {
    let devices = devices_for(seed);
    let n = base_bodies + 97 * (seed % 5) as usize;
    let b = plummer(n, 1.0, 1.0, 7000 + seed);
    let plan = ChaosPlan::generate(seed, steps, devices, n);

    let node = HeteroNode::system_a(10, devices);
    let cfg = LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    };
    let kernel = GravityKernel::default();
    let mut tracker = StrategyTracker::new(
        kernel,
        FmmParams::default(),
        node,
        Strategy::Full,
        cfg,
        &b.pos,
        None,
    );
    if trace {
        let rec = telemetry::Recorder::enabled();
        let path = bench::out_path("BENCH_chaos_trace.jsonl");
        match telemetry::JsonlSink::create(&path) {
            Ok(sink) => rec.set_sink(sink),
            Err(e) => eprintln!("# trace sink unavailable ({e}); events kept in-memory only"),
        }
        tracker.set_recorder(rec);
    }
    tracker.set_fault_schedule(plan.fault_schedule());
    let mut sup = Supervisor::new(
        tracker,
        SupervisorConfig {
            checkpoint_every: 8,
        },
    );

    // Corruption events fire once each (a restore rewinds the step index,
    // and re-killing on every replay of the same step would never finish).
    let mut fired = vec![false; plan.events.len()];
    let mut streak = 0usize;
    let mut max_streak = 0usize;
    let mut completed = true;
    let mut note = String::new();
    let mut last_pos = trajectory(&b.pos, 0);
    let mut iters = 0usize;
    let iter_cap = steps * 6 + 20;

    while sup.step_index() < steps {
        iters += 1;
        if iters > iter_cap {
            completed = false;
            note = format!("did not reach step {steps} within {iter_cap} iterations");
            break;
        }
        let idx = sup.step_index();
        let mut pos = trajectory(&b.pos, idx);
        for (i, tc) in plan.events.iter().enumerate() {
            if tc.step == idx && tc.event.is_corruption() && !fired[i] {
                fired[i] = true;
                // A KillRestore rewinds the step index and replaces `pos`
                // with the checkpoint's positions, which match it.
                inject(&tc.event, &mut sup, &mut pos);
            }
        }
        match sup.step(&pos) {
            Ok((_, RecoveryAction::None)) => {
                streak = 0;
                last_pos = pos;
            }
            Ok(_) => {
                streak += 1;
                max_streak = max_streak.max(streak);
                last_pos = pos;
            }
            Err(e) => {
                completed = false;
                note = format!("step {idx}: {e}");
                break;
            }
        }
    }

    // Correctness probe: the supervised engine's field at the last stepped
    // positions vs a direct sum at a subsample of targets.
    let field_err = if completed {
        let sol = sup.tracker_mut().engine_mut().solve(&last_pos, &b.mass);
        let stride = (n / PROBES).max(1);
        // Direct sum at a subsample of targets (self term excluded, G = 1,
        // no softening — the GravityKernel defaults the engine solves with).
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for i in (0..n).step_by(stride) {
            let x = last_pos[i];
            let mut acc = Vec3::ZERO;
            for (j, (&y, &m)) in last_pos.iter().zip(&b.mass).enumerate() {
                if j == i {
                    continue;
                }
                let d = y - x;
                let r2 = d.norm_sq();
                acc += d * (m / (r2 * r2.sqrt()));
            }
            num += (sol.field[i] - acc).norm_sq();
            den += acc.norm_sq();
        }
        (num / den.max(f64::MIN_POSITIVE)).sqrt()
    } else {
        f64::NAN
    };

    let r = sup.report();
    Outcome {
        seed,
        devices,
        bodies: n,
        events: plan.events.len(),
        corruptions: plan
            .events
            .iter()
            .filter(|t| t.event.is_corruption())
            .count(),
        completed,
        max_recovery_streak: max_streak,
        field_err,
        retries: r.retries,
        rebuilds: r.rebuilds,
        cpu_fallbacks: r.cpu_fallbacks,
        restores: r.restores,
        audit_failures: r.audit_failures,
        panics: r.panics_contained,
        note,
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let smoke = raw.iter().any(|a| a == "--smoke");
    let rest: Vec<String> = raw.into_iter().filter(|a| a != "--smoke").collect();
    let mut args =
        bench::cli::Args::from_vec("afmm-chaos", "[--smoke] [scenarios] [steps] [bodies]", rest);
    let (def_scenarios, def_steps, def_bodies) = if smoke {
        (12, 40, 1000)
    } else {
        (200, 60, 2000)
    };
    let scenarios = args.opt_usize_or_exit("scenarios", def_scenarios);
    let steps = args.opt_usize_or_exit("steps", def_steps);
    let bodies = args.opt_usize_or_exit("bodies", def_bodies);
    args.finish_or_exit();

    println!(
        "# afmm-chaos: {scenarios} scenarios x {steps} steps, ~{bodies} bodies \
         ({} profile)",
        if smoke { "smoke" } else { "full" }
    );

    let mut outcomes = Vec::with_capacity(scenarios);
    for seed in 0..scenarios as u64 {
        let out = run_scenario(seed, steps, bodies, seed == 0);
        if !out.completed || out.wrong_answer() || !out.recovery_bounded() {
            eprintln!(
                "# seed {}: completed={} field_err={:.6e} max_streak={} {}",
                out.seed, out.completed, out.field_err, out.max_recovery_streak, out.note
            );
        }
        outcomes.push(out);
    }

    let incomplete = outcomes.iter().filter(|o| !o.completed).count();
    let wrong = outcomes.iter().filter(|o| o.wrong_answer()).count();
    let unbounded = outcomes.iter().filter(|o| !o.recovery_bounded()).count();
    let recovered = outcomes
        .iter()
        .filter(|o| o.retries + o.rebuilds + o.cpu_fallbacks + o.restores > 0)
        .count();
    let max_streak = outcomes
        .iter()
        .map(|o| o.max_recovery_streak)
        .max()
        .unwrap_or(0);
    let worst_err = outcomes
        .iter()
        .filter(|o| o.completed)
        .map(|o| o.field_err)
        .fold(0.0f64, f64::max);

    let count = |n: usize| Json::U64(n as u64);
    let rows = outcomes
        .iter()
        .map(|o| {
            obj(vec![
                ("seed", Json::U64(o.seed)),
                ("devices", count(o.devices)),
                ("bodies", count(o.bodies)),
                ("events", count(o.events)),
                ("corruptions", count(o.corruptions)),
                ("completed", Json::Bool(o.completed)),
                ("max_recovery_streak", count(o.max_recovery_streak)),
                ("field_err", Json::F64(o.field_err)),
                ("retries", Json::U64(o.retries)),
                ("rebuilds", Json::U64(o.rebuilds)),
                ("cpu_fallbacks", Json::U64(o.cpu_fallbacks)),
                ("restores", Json::U64(o.restores)),
                ("audit_failures", Json::U64(o.audit_failures)),
                ("panics", Json::U64(o.panics)),
            ])
        })
        .collect();
    let config = obj(vec![
        ("scenarios", count(scenarios)),
        ("steps", count(steps)),
        ("bodies", count(bodies)),
        ("smoke", Json::Bool(smoke)),
        ("recovery_bound", count(RECOVERY_BOUND)),
        ("field_tol", Json::F64(FIELD_TOL)),
    ]);
    let summary = obj(vec![
        ("incomplete", count(incomplete)),
        ("wrong_answers", count(wrong)),
        ("recovery_unbounded", count(unbounded)),
        ("recovered_scenarios", count(recovered)),
        ("max_recovery_streak", count(max_streak)),
        ("worst_field_err", Json::F64(worst_err)),
    ]);
    let mut doc = obj(vec![
        ("config", config),
        ("summary", summary),
        ("scenarios", Json::Arr(rows)),
    ])
    .to_json();
    doc.push('\n');
    let path = bench::out_path("BENCH_chaos.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("# FAIL: write {}: {e}", path.display());
        std::process::exit(2);
    }

    println!(
        "# {} scenarios: {recovered} exercised a recovery rung, \
         max recovery streak {max_streak} (bound {RECOVERY_BOUND}), \
         worst field error {worst_err:.6e} (tol {FIELD_TOL:e})",
        outcomes.len(),
    );
    println!("# report: {}", path.display());

    let mut failed = false;
    if incomplete > 0 {
        eprintln!("# GATE FAIL: {incomplete} scenario(s) did not complete");
        failed = true;
    }
    if wrong > 0 {
        eprintln!("# GATE FAIL: {wrong} scenario(s) completed with a wrong answer");
        failed = true;
    }
    if unbounded > 0 {
        eprintln!(
            "# GATE FAIL: {unbounded} scenario(s) exceeded the {RECOVERY_BOUND}-step \
             recovery bound"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("# all gates hold");
}
