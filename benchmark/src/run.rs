//! One run of one workload: generate inputs, set up, step, check, and turn
//! what was measured into named metrics.

use crate::inputs::{self, Inputs};
use crate::loops::{self, Accuracy, Stepper};
use crate::probes::Probes;
use crate::spec::{
    Kind, MetricSpec, Workload, END_TO_END, FIELD_TOLERANCE, PER_LAYER, RUN_SECONDS, SETUP_REPS,
};
use crate::stats::{mean, median, quartiles, tail};
use crate::trace::{Tracer, NO_PARENT};
use afmm::{LbState, RunSummary, StepRecord};
use std::time::Instant;

/// Fewest measured steps a run is ever cut to.
const MIN_STEPS: usize = 10;
const MIN_TRACED_STEPS: usize = 4;
/// Measured steps under `check`.
const CHECK_STEPS: usize = 5;

#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Tiny sizes, for `check` and the tests.
    pub check: bool,
}

impl RunArgs {
    pub fn n(&self) -> usize {
        if self.check {
            self.workload.check_n
        } else {
            self.workload.n
        }
    }

    /// Measured steps: the workload's count scaled by `--seconds`.
    pub fn steps(&self) -> usize {
        if self.check {
            return CHECK_STEPS;
        }
        let (base, floor) = if self.traced {
            (self.workload.traced_steps, MIN_TRACED_STEPS)
        } else {
            (self.workload.steps, MIN_STEPS)
        };
        let scaled = (base as u64 * self.seconds).div_ceil(RUN_SECONDS) as usize;
        scaled.max(floor)
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub spec: &'static MetricSpec,
    pub value: f64,
    /// `wall_step_s` only: what else the step walls say.
    pub steps: Option<StepWalls>,
}

#[derive(Clone, Copy, Debug)]
pub struct StepWalls {
    pub samples: usize,
    pub median: f64,
    /// Value and percentile of the highest rank with ten samples beyond it.
    pub tail: Option<(f64, f64)>,
}

pub struct RunResult {
    pub args: RunArgs,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Wall seconds of each measured step, in order.
    pub step_walls: Vec<f64>,
    pub traced: Option<Traced>,
}

/// What only a traced run has.
pub struct Traced {
    pub tracer: Tracer,
    /// The program's own telemetry, as the sink's JSONL lines.
    pub program_events: Vec<String>,
    /// Traced and untraced `StepRecord` series were identical.
    pub records_match: bool,
    /// Where the measured steps' wall went.
    pub self_times: Vec<SelfTime>,
}

#[derive(Clone, Debug)]
pub struct SelfTime {
    pub name: &'static str,
    pub calls: usize,
    pub self_s: f64,
    pub share: f64,
}

/// What one pass over a workload's steps produced.
struct Series<'a> {
    stepper: Box<dyn Stepper + 'a>,
    /// Every step's record; index 0 is the cold step.
    records: Vec<StepRecord>,
    /// Wall seconds of the measured steps (cold step excluded).
    walls: Vec<f64>,
    setup: Vec<f64>,
    attempted: usize,
    failed: usize,
    accuracy: Option<Accuracy>,
}

fn finite_record(r: &StepRecord) -> bool {
    r.t_cpu.is_finite() && r.t_gpu.is_finite() && r.t_lb.is_finite()
}

/// Set up `setup_reps` times (constructor + cold first step, generated inputs
/// to first result), keep the last instance and run `steps` measured steps
/// with it, closed loop: a step starts when the previous one has returned.
fn run_series<'a>(
    args: &RunArgs,
    inp: &'a Inputs,
    replica: bool,
    setup_reps: usize,
    rec: &telemetry::Recorder,
    tr: &mut Tracer,
) -> Result<Series<'a>, String> {
    let w = args.workload;
    let steps = args.steps();
    let mut setup = Vec::new();
    let mut first = None;
    for _ in 0..setup_reps {
        drop(first.take());
        let t = Instant::now();
        let mut stepper = loops::build(w, inp, replica, rec);
        stepper.prepare(0);
        tr.set_step(0);
        let id = tr.open("step");
        let cold = stepper.step(tr);
        tr.close(id);
        setup.push(t.elapsed().as_secs_f64());
        first = Some((stepper, cold.map_err(|e| format!("cold step failed: {e}"))?));
    }
    let (mut stepper, cold) = first.ok_or("no set-up repetition ran")?;
    let mut records = vec![cold];
    let mut walls = Vec::with_capacity(steps);
    let mut attempted = 1;
    let mut failed = usize::from(!finite_record(&cold));
    let mut accuracy = None;
    for k in 1..=steps {
        stepper.prepare(k);
        // The last solve is checked against direct sum over the positions it saw.
        let solve_pos = (k == steps && w.kind != Kind::Track).then(|| stepper.positions().to_vec());
        tr.set_step(k);
        let id = tr.open("step");
        let t = Instant::now();
        let out = stepper.step(tr);
        let wall = t.elapsed().as_secs_f64();
        tr.close(id);
        attempted += 1;
        match out {
            Ok(r) if finite_record(&r) && stepper.positions().iter().all(|p| p.is_finite()) => {
                records.push(r);
                walls.push(wall);
            }
            Ok(_) => {
                eprintln!("step {k}: non-finite output");
                failed += 1;
            }
            Err(e) => {
                eprintln!("step {k}: {e}");
                failed += 1;
            }
        }
        if let Some(pos) = solve_pos {
            accuracy = stepper.accuracy(&pos);
            if let Some(a) = &accuracy {
                if a.field_rel_err.is_nan() || a.field_rel_err > FIELD_TOLERANCE {
                    eprintln!(
                        "step {k}: field_rel_err {} over {FIELD_TOLERANCE}",
                        a.field_rel_err
                    );
                    failed += 1;
                }
            }
        }
    }
    Ok(Series {
        stepper,
        records,
        walls,
        setup,
        attempted,
        failed,
        accuracy,
    })
}

fn same_records(a: &[StepRecord], b: &[StepRecord]) -> bool {
    let key = |r: &StepRecord| {
        (
            r.step,
            r.s,
            r.state,
            r.t_cpu.to_bits(),
            r.t_gpu.to_bits(),
            r.t_lb.to_bits(),
            r.gpu_efficiency.to_bits(),
            r.p2p_interactions,
            r.m2l_ops,
        )
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| key(x) == key(y))
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The computed values as the table's metrics, in the table's order.
fn in_table_order(table: &'static [MetricSpec], values: &[(&'static str, f64)]) -> Vec<Metric> {
    table
        .iter()
        .map(|spec| {
            let value = values.iter().find(|v| v.0 == spec.name);
            Metric {
                spec,
                value: value.expect("every metric in the table is computed").1,
                steps: None,
            }
        })
        .collect()
}

pub fn run(args: RunArgs) -> Result<RunResult, String> {
    let inp = inputs::generate(args.workload, args.n(), args.seed);
    if args.traced {
        run_traced(args, &inp)
    } else {
        run_untraced(args, &inp)
    }
}

fn run_untraced(args: RunArgs, inp: &Inputs) -> Result<RunResult, String> {
    let mut tr = Tracer::new(false);
    let rec = telemetry::Recorder::disabled();
    let s = run_series(&args, inp, false, SETUP_REPS, &rec, &mut tr)?;
    let measured = &s.records[1..];
    let settle = s
        .records
        .iter()
        .position(|r| r.state == LbState::Observation)
        .unwrap_or(s.records.len());
    let values = [
        // The host is a shared VM that slows by 10 to 25 % for seconds to
        // minutes at a time. Interference only ever adds time, so the two
        // plain timings report the fast end of what they saw: the fastest
        // set-up and the lower quartile of the step walls.
        (
            "setup_s",
            s.setup.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        (
            "wall_step_s",
            quartiles(&s.walls).map_or(f64::NAN, |(q1, _)| q1),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        // A workload that never solves has no field; it reports the
        // tolerance itself, a constant no change can move.
        (
            "field_rel_err",
            s.accuracy
                .as_ref()
                .map_or(FIELD_TOLERANCE, |a| a.field_rel_err),
        ),
        (
            "virtual_step_s",
            mean(&measured.iter().map(StepRecord::total).collect::<Vec<_>>()),
        ),
        ("settle_step", settle as f64),
    ];
    let mut metrics = in_table_order(&END_TO_END, &values);
    for m in metrics.iter_mut().filter(|m| m.spec.name == "wall_step_s") {
        m.steps = Some(StepWalls {
            samples: s.walls.len(),
            median: median(&s.walls),
            tail: tail(&s.walls),
        });
    }
    let correct = s.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(RunResult {
        args,
        correct,
        attempted: s.attempted,
        failed: s.failed,
        metrics,
        step_walls: s.walls,
        traced: None,
    })
}

fn run_traced(args: RunArgs, inp: &Inputs) -> Result<RunResult, String> {
    // Reference first: the driver, untraced, over the same inputs and steps.
    let reference = {
        let mut off = Tracer::new(false);
        run_series(
            &args,
            inp,
            false,
            1,
            &telemetry::Recorder::disabled(),
            &mut off,
        )?
    };
    let rec = telemetry::Recorder::enabled();
    let sink = telemetry::VecSink::new();
    rec.set_sink(sink.clone());
    let mut tr = Tracer::new(true);
    let mut s = run_series(&args, inp, true, 1, &rec, &mut tr)?;
    let records_match = same_records(&reference.records, &s.records);
    if !records_match {
        eprintln!("traced StepRecords differ from the untraced run: per-layer numbers are invalid");
    }

    // The engine's own solve-phase spans become children of that step's
    // `afmm.try_solve` span.
    let solves = tr.named("afmm.try_solve");
    let events = rec.events();
    for &id in &solves {
        let step = tr.spans[id as usize].step as u64;
        let phases: Vec<(&'static str, f64)> = events
            .iter()
            .filter(|e| e.step == step)
            .filter_map(|e| Some((solve_phase(e.name)?, e.dur_s?)))
            .collect();
        tr.import_children(id, &phases);
    }

    // Only the collapse loop has an energy; its start is the generated bodies'.
    let energy_drift = s.stepper.energy().map_or(0.0, |e1| {
        let e0 = loops::collapse_energy(&inp.bodies);
        ((e1 - e0) / e0).abs()
    });
    let probes = s
        .stepper
        .probe(&mut tr)
        .ok_or("traced stepper has no probes")??;
    let stats = s
        .stepper
        .stats()
        .ok_or("traced stepper has no loop stats")?;

    let values = per_layer_values(
        args.n(),
        &s,
        &reference,
        &tr,
        &probes,
        stats,
        &events,
        energy_drift,
    );
    let metrics = in_table_order(&PER_LAYER, &values);
    let failed = s.failed + reference.failed;
    let correct = failed == 0 && records_match && metrics.iter().all(|m| m.value.is_finite());
    let self_times = self_time_table(&tr);
    Ok(RunResult {
        args,
        correct,
        attempted: s.attempted + reference.attempted,
        failed,
        metrics,
        step_walls: s.walls,
        traced: Some(Traced {
            tracer: tr,
            program_events: sink.lines(),
            records_match,
            self_times,
        }),
    })
}

/// The engine's solve-phase telemetry spans, under the names the trace and
/// the per-layer metrics use for them.
fn solve_phase(event: &str) -> Option<&'static str> {
    match event {
        "solve.upsweep" => Some("afmm.solve.upsweep"),
        "solve.downsweep" => Some("afmm.solve.downsweep"),
        "solve.near_field" => Some("afmm.solve.near_field"),
        _ => None,
    }
}

/// Where the measured steps' wall went: per span name, calls and self time
/// (`step` is the loop's own uncovered remainder), largest first.
fn self_time_table(tr: &Tracer) -> Vec<SelfTime> {
    let own = tr.self_times_s();
    let mut by_name = std::collections::BTreeMap::<&'static str, (usize, f64)>::new();
    let probe_roots = tr.named("probe");
    let in_probe = |mut id: u32| loop {
        if probe_roots.contains(&id) {
            return true;
        }
        match tr.spans[id as usize].parent {
            NO_PARENT => return false,
            p => id = p,
        }
    };
    for (id, (span, &t)) in tr.spans.iter().zip(&own).enumerate() {
        if span.step == 0 || in_probe(id as u32) {
            continue;
        }
        let row = by_name.entry(span.name).or_default();
        row.0 += 1;
        row.1 += t;
    }
    let total: f64 = by_name.values().map(|r| r.1).sum();
    let mut rows: Vec<SelfTime> = by_name
        .into_iter()
        .map(|(name, (calls, self_s))| SelfTime {
            name,
            calls,
            self_s,
            share: self_s / total,
        })
        .collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

#[allow(clippy::too_many_arguments)]
fn per_layer_values(
    bodies: usize,
    s: &Series,
    reference: &Series,
    tr: &Tracer,
    p: &Probes,
    stats: &loops::LoopStats,
    events: &[telemetry::EventRecord],
    energy_drift: f64,
) -> Vec<(&'static str, f64)> {
    let k = p.kernels;
    let measured = &s.records[1..];
    let steps = measured.len().max(1) as f64;
    // Mean duration per measured step of the spans called `name`.
    let per_step = |name: &str| tr.durations_s(name, 1).iter().fold(0.0, |a, d| a + d) / steps;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let solve_s = per_step("afmm.try_solve");
    let c = stats.last_counts;
    let accounted = k.p2m_per_body * c.p2m_bodies as f64
        + k.m2m * c.m2m_ops as f64
        + k.m2l * c.m2l_ops as f64
        + k.l2l * c.l2l_ops as f64
        + k.l2p_per_body * c.l2p_bodies as f64
        + k.p2p_per_pair * c.p2p_interactions as f64;
    let last_solve = tr
        .durations_s("afmm.try_solve", 1)
        .last()
        .copied()
        .unwrap_or(0.0);

    let post = tr.durations_s("afmm.post_step", 1);
    let reports = &stats.reports[1.min(stats.reports.len())..];
    let count = |f: fn(&afmm::LbReport) -> bool| reports.iter().filter(|r| f(r)).count() as f64;
    let enforces = count(|r| r.enforced);
    let fgo_batches: Vec<bool> = events
        .iter()
        .filter(|e| e.name == "lb.fgo_batch" && e.step >= 1)
        .filter_map(|e| e.field_bool("accepted"))
        .collect();

    let idle: Vec<f64> = measured
        .iter()
        .map(|r| 1.0 - ratio(r.t_cpu.min(r.t_gpu), r.t_cpu.max(r.t_gpu)))
        .collect();

    // Step k does the same work in both series, so pair them: the median of
    // the paired differences ignores the bursts either series ran into.
    let overhead: Vec<f64> = s
        .walls
        .iter()
        .zip(&reference.walls)
        .map(|(traced, untraced)| (traced - untraced) / untraced)
        .collect();
    let own = tr.self_times_s();
    let (mut step_total, mut step_own) = (0.0, 0.0);
    for (span, &t) in tr.spans.iter().zip(&own) {
        if span.name == "step" && span.parent == NO_PARENT && span.step >= 1 {
            step_total += span.dur_s();
            step_own += t;
        }
    }
    let step_spans = tr
        .spans
        .iter()
        .filter(|sp| sp.step >= 1 && sp.name != "step")
        .count();
    let program_events = events.iter().filter(|e| e.step >= 1).count();

    let accuracy_ns = s.accuracy.as_ref().map_or(0.0, |a| a.direct_ns_per_pair);
    vec![
        ("fmm-math.p2p_ns_per_pair", k.p2p_per_pair * 1e9),
        ("fmm-math.l2p_ns_per_body", k.l2p_per_body * 1e9),
        (
            "fmm-math.p2p_gflops",
            ratio(k.p2p_flops_per_pair, k.p2p_per_pair * 1e9),
        ),
        ("fmm-math.m2l_us_per_op", k.m2l * 1e6),
        ("fmm-math.l2l_us_per_op", k.l2l * 1e6),
        ("fmm-math.m2m_us_per_op", k.m2m * 1e6),
        ("fmm-math.p2m_ns_per_body", k.p2m_per_body * 1e9),
        ("fmm-math.m2l_gflops", ratio(k.m2l_flops, k.m2l * 1e9)),
        ("octree.build_ms", p.build_s * 1e3),
        ("octree.rebin_ms", per_step("octree.rebin") * 1e3),
        ("octree.traverse_ms", p.traverse_s * 1e3),
        ("octree.refresh_ms", per_step("octree.refresh") * 1e3),
        ("octree.patch_us_per_edit", p.patch_s_per_edit * 1e6),
        ("octree.enforce_ms", per_step("octree.enforce") * 1e3),
        ("octree.nodes", p.tree.visible_nodes as f64),
        ("octree.leaves", p.tree.nonempty_leaves as f64),
        ("octree.depth", p.tree.depth as f64),
        ("octree.leaf_fill", ratio(p.tree.mean_leaf, p.s as f64)),
        ("octree.m2l_ops", c.m2l_ops as f64),
        ("octree.p2p_pairs", c.p2p_interactions as f64),
        ("afmm.solve_s", solve_s),
        ("afmm.solve.upsweep_s", per_step("afmm.solve.upsweep")),
        ("afmm.solve.downsweep_s", per_step("afmm.solve.downsweep")),
        ("afmm.solve.near_field_s", per_step("afmm.solve.near_field")),
        ("afmm.solve_accounted_frac", ratio(accounted, last_solve)),
        // Throughput of the library's driver over the untraced reference
        // series: unlike `wall_step_s` it sees the tail steps, and with them
        // every burst of host interference, so it carries no bound.
        (
            "afmm.body_steps_per_s",
            ratio(
                (bodies * reference.walls.len()) as f64,
                reference.walls.iter().sum(),
            ),
        ),
        ("afmm.time_step_ms", per_step("afmm.time_step") * 1e3),
        ("afmm.post_step_ms", per_step("afmm.post_step") * 1e3),
        (
            "afmm.post_step_max_ms",
            post.iter().copied().fold(0.0, f64::max) * 1e3,
        ),
        ("afmm.predict_us", p.predict_s * 1e6),
        ("afmm.checkpoint_ms", p.checkpoint_s * 1e3),
        ("afmm.restore_ms", p.restore_s * 1e3),
        (
            "afmm.checkpoint_mb",
            p.checkpoint_bytes as f64 / (1024.0 * 1024.0),
        ),
        (
            "afmm.virtual.t_cpu_s",
            mean(&measured.iter().map(|r| r.t_cpu).collect::<Vec<_>>()),
        ),
        (
            "afmm.virtual.t_gpu_s",
            mean(&measured.iter().map(|r| r.t_gpu).collect::<Vec<_>>()),
        ),
        ("afmm.virtual.idle_frac", mean(&idle)),
        (
            "afmm.virtual.lb_frac",
            RunSummary::from_records(measured).lb_fraction(),
        ),
        (
            "afmm.cost.median_rel_err",
            median(&stats.prediction_rel_err),
        ),
        ("afmm.lb.rebuilds", count(|r| r.rebuilt)),
        ("afmm.lb.enforces", enforces),
        (
            "afmm.lb.fgo_rounds",
            reports.iter().map(|r| r.fgo_rounds).sum::<usize>() as f64,
        ),
        (
            "afmm.lb.fgo_accept_frac",
            ratio(
                fgo_batches.iter().filter(|&&a| a).count() as f64,
                fgo_batches.len() as f64,
            ),
        ),
        (
            "afmm.lb.patched_frac",
            ratio(count(|r| r.patched), enforces),
        ),
        ("sched-sim.simulate_ms", p.simulate_s * 1e3),
        ("sched-sim.schedule_ms", p.schedule_s * 1e3),
        ("sched-sim.tasks", p.tasks as f64),
        (
            "sched-sim.ns_per_task",
            ratio(p.simulate_s * 1e9, p.tasks as f64),
        ),
        ("sched-sim.parallel_rate", p.parallel_rate),
        ("gpu-sim.execute_ms", p.gpu_execute_s * 1e3),
        ("gpu-sim.jobs", p.gpu_jobs as f64),
        ("gpu-sim.efficiency", p.gpu_efficiency),
        ("gpu-sim.imbalance", p.gpu_imbalance),
        ("nbody.integrate_ms", per_step("nbody.integrate") * 1e3),
        ("nbody.direct_ns_per_pair", accuracy_ns),
        ("nbody.energy_rel_drift", energy_drift),
        ("telemetry.overhead_frac", median(&overhead)),
        (
            "telemetry.events_per_step",
            (step_spans + program_events) as f64 / steps,
        ),
        ("telemetry.step_uncovered_frac", ratio(step_own, step_total)),
    ]
}
