//! **Resilience experiment** (no paper figure — robustness extension): the
//! Fig-8-style strategy comparison re-run under injected faults. A static
//! Plummer workload is timed for `steps` steps; halfway through, one fault
//! class fires (GPU dropout, GPU slowdown, external CPU load, or timing
//! noise) and we watch whether each strategy's balancer re-converges.
//!
//! For every scenario × strategy the report gives:
//!
//! * `steady_before` — mean compute over the window just before the fault;
//! * `steady_after` — mean compute over the final 10 steps;
//! * `regression_frac` — `steady_after / steady_before - 1`;
//! * `time_to_recover` — steps after the fault until compute stays within
//!   `1.5 × steady_before` for 3 consecutive steps (`null` = never, i.e.
//!   the regression is unbounded for the purposes of the run).
//!
//! The headline contrast: after a GPU dropout the Full strategy re-enters
//! Search (warm-started) and posts a finite `time_to_recover`, while the
//! no-op StaticS balancer keeps its stale decomposition and never gets back
//! under the bar.
//!
//! Output: a single JSON document (one line, the shared `telemetry::json`
//! writer), written to `BENCH_fault_scenarios.json` via
//! [`bench::out_path`] (honours `$BENCH_OUT_DIR`) and echoed to stdout.
//! Override scale: `fault_scenarios [steps] [bodies]`.

use afmm::{
    FaultEvent, FaultSchedule, FmmParams, HeteroNode, LbConfig, Strategy, StrategyTracker,
    TimedFault,
};
use fmm_math::GravityKernel;
use telemetry::json::{obj, Json};

/// One strategy's run through a scenario, reduced to the report metrics.
struct StrategyOutcome {
    strategy: &'static str,
    steady_before: f64,
    steady_after: f64,
    regression_frac: f64,
    time_to_recover: Option<usize>,
    total_lb: f64,
    panicked: bool,
    /// `anomaly.*` events the online detector emitted over the run.
    anomalies: usize,
    /// Step of the first anomaly — for faults, how fast it was attributed.
    first_anomaly_step: Option<usize>,
}

struct Scenario {
    name: &'static str,
    description: &'static str,
    faults: Vec<TimedFault>,
}

fn scenarios(fault_step: usize) -> Vec<Scenario> {
    vec![
        Scenario {
            name: "baseline",
            description: "no fault; reference steady state",
            faults: vec![],
        },
        Scenario {
            name: "gpu_dropout",
            description: "device 1 of 2 drops out mid-run",
            faults: vec![TimedFault {
                step: fault_step,
                event: FaultEvent::GpuDropout { device: 1 },
            }],
        },
        Scenario {
            name: "gpu_slowdown",
            description: "device 0 throttles to 1/3 throughput",
            faults: vec![TimedFault {
                step: fault_step,
                event: FaultEvent::GpuSlowdown {
                    device: 0,
                    factor: 3.0,
                },
            }],
        },
        Scenario {
            name: "cpu_load",
            description: "external job inflates measured CPU time 2.5x",
            faults: vec![TimedFault {
                step: fault_step,
                event: FaultEvent::ExternalCpuLoad { factor: 2.5 },
            }],
        },
        Scenario {
            name: "timing_noise",
            description: "lognormal measurement jitter, sigma = 0.08",
            faults: vec![TimedFault {
                step: fault_step,
                event: FaultEvent::TimingNoise { sigma: 0.08 },
            }],
        },
    ]
}

/// Run one tracker through the scenario and reduce the series.
#[allow(clippy::too_many_arguments)]
fn run_strategy(
    strategy: Strategy,
    label: &'static str,
    faults: &[TimedFault],
    pos: &[geom::Vec3],
    node: &HeteroNode,
    cfg: &LbConfig,
    steps: usize,
    fault_step: usize,
) -> StrategyOutcome {
    // Telemetry on: the online anomaly detector watches every run, so the
    // report can show each fault being flagged (and the baseline staying
    // silent). Proven bit-identical to a recorder-less run in tests.
    let mut tracker = StrategyTracker::with_telemetry(
        GravityKernel::default(),
        FmmParams::default(),
        node.clone(),
        strategy,
        *cfg,
        pos,
        None,
        telemetry::Recorder::enabled(),
    );
    let mut schedule = FaultSchedule::new();
    for f in faults {
        schedule.push(f.step, f.event);
    }
    tracker.set_fault_schedule(schedule);

    let mut computes = Vec::with_capacity(steps);
    let mut total_lb = 0.0;
    let mut panicked = false;
    for _ in 0..steps {
        // A fault scenario must degrade service, not abort the run.
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tracker.step(pos))) {
            Ok(Ok(rec)) => {
                computes.push(rec.compute());
                total_lb += rec.t_lb;
            }
            Ok(Err(e)) => {
                eprintln!("# {label}: step error: {e}");
                panicked = true;
                break;
            }
            Err(_) => {
                eprintln!("# {label}: PANIC during step");
                panicked = true;
                break;
            }
        }
    }

    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len().max(1) as f64;
    let pre_lo = fault_step.saturating_sub(15);
    let steady_before = mean(&computes[pre_lo..fault_step.min(computes.len())]);
    let tail = computes.len().saturating_sub(10);
    let steady_after = mean(&computes[tail..]);

    // First post-fault step from which compute stays under 1.5x the
    // pre-fault steady state for 3 consecutive steps.
    let bar = 1.5 * steady_before;
    let mut time_to_recover = None;
    'outer: for i in fault_step..computes.len() {
        if i + 3 > computes.len() {
            break;
        }
        for &c in &computes[i..i + 3] {
            if c > bar {
                continue 'outer;
            }
        }
        time_to_recover = Some(i - fault_step);
        break;
    }

    StrategyOutcome {
        strategy: label,
        steady_before,
        steady_after,
        regression_frac: steady_after / steady_before - 1.0,
        time_to_recover,
        total_lb,
        panicked,
        anomalies: tracker.anomalies().len(),
        first_anomaly_step: tracker.anomalies().first().map(|(step, _)| *step),
    }
}

fn main() {
    let mut args = bench::cli::Args::parse("fault_scenarios", "[steps] [bodies]");
    let steps = args.opt_usize_or_exit("steps", 120);
    let n = args.opt_usize_or_exit("bodies", 8000);
    args.finish_or_exit();
    let fault_step = steps / 2;

    let b = nbody::plummer(n, 1.0, 1.0, 9001);
    let node = HeteroNode::system_a(10, 2);
    let cfg = LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    };

    let opt_step = |s: Option<usize>| s.map_or(Json::Null, |s| Json::U64(s as u64));
    let mut scenario_rows = Vec::new();
    for sc in scenarios(fault_step) {
        let mut strategy_rows = Vec::new();
        for (strategy, label) in [(Strategy::Full, "full"), (Strategy::StaticS, "static_s")] {
            let out = run_strategy(
                strategy, label, &sc.faults, &b.pos, &node, &cfg, steps, fault_step,
            );
            strategy_rows.push(obj(vec![
                ("strategy", Json::Str(out.strategy.into())),
                ("steady_before", Json::F64(out.steady_before)),
                ("steady_after", Json::F64(out.steady_after)),
                ("regression_frac", Json::F64(out.regression_frac)),
                ("time_to_recover", opt_step(out.time_to_recover)),
                ("total_lb", Json::F64(out.total_lb)),
                ("panicked", Json::Bool(out.panicked)),
                ("anomalies", Json::U64(out.anomalies as u64)),
                ("first_anomaly_step", opt_step(out.first_anomaly_step)),
            ]));
        }
        scenario_rows.push(obj(vec![
            ("name", Json::Str(sc.name.into())),
            ("description", Json::Str(sc.description.into())),
            ("strategies", Json::Arr(strategy_rows)),
        ]));
    }

    let config = obj(vec![
        ("steps", Json::U64(steps as u64)),
        ("bodies", Json::U64(n as u64)),
        ("fault_step", Json::U64(fault_step as u64)),
        ("node", Json::Str("system_a(10, 2)".into())),
    ]);
    let mut doc = obj(vec![
        ("config", config),
        ("scenarios", Json::Arr(scenario_rows)),
    ])
    .to_json();
    doc.push('\n');
    let path = bench::out_path("BENCH_fault_scenarios.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("# FAIL: write {}: {e}", path.display());
        std::process::exit(2);
    }
    print!("{doc}");
    eprintln!("# report: {}", path.display());
}
