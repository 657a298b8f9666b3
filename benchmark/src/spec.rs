//! The benchmark's fixed vocabulary: workloads, metrics, bounds. The root
//! `BENCHMARK.json` is generated from these tables (`manifest` subcommand)
//! and a test keeps the two identical, so a bound is written down once.

/// Seconds of measured stepping the step counts below are sized for on the
/// reference host; `--seconds` scales the counts proportionally.
pub const RUN_SECONDS: u64 = 10;
/// Seed used when none is given. 29 is the held-out seed: never run while a
/// change is being written, only to confirm its claim afterwards.
pub const DEFAULT_SEED: u64 = 11;
/// A field whose `field_rel_err` against direct sum exceeds this fails the step.
pub const FIELD_TOLERANCE: f64 = 5e-4;
/// Set-up (constructor + cold first step) is repeated this often per run and
/// the fastest reported, so one burst of interference does not set `setup_s`.
pub const SETUP_REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Gravity, S pinned, engine-level loop with leapfrog.
    PinnedGravity,
    /// Regularized Stokeslet, S pinned, points advected by the flow.
    PinnedStokes,
    /// `GravitySim::step` with the full balancer on a collapsing cloud.
    Collapse,
    /// `StrategyTracker::step` on an analytic trajectory, no numeric solve.
    Track,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub n: usize,
    /// Pinned leaf capacity (0 = the balancer chooses).
    pub s: usize,
    /// Measured steps of the untraced run at `RUN_SECONDS` (after one cold step).
    pub steps: usize,
    /// Measured steps of the traced run, which also replays the untraced
    /// series for comparison and therefore gets about half the budget.
    pub traced_steps: usize,
    /// Body count under `check` (tiny sizes).
    pub check_n: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "plummer_near",
        why: "S=512: near field is ~95% of the step, so only P2P/L2P work moves it; an M2L change must read no change here",
        kind: Kind::PinnedGravity,
        n: 16_384,
        s: 512,
        steps: 10,
        traced_steps: 5,
        check_n: 1_500,
    },
    Workload {
        name: "plummer_far",
        why: "S=16: downsweep is ~91% of the step, so only M2L/L2L and traversal/plan work moves it; a P2P change must read no change",
        kind: Kind::PinnedGravity,
        n: 16_384,
        s: 16,
        steps: 10,
        traced_steps: 5,
        check_n: 1_500,
    },
    Workload {
        name: "stokes_mixed",
        why: "7-channel Stokeslet at S=160, near/far about 65/32: a gravity-specialised kernel rewrite that costs the second kernel shows here",
        kind: Kind::PinnedStokes,
        n: 12_000,
        s: 160,
        steps: 14,
        traced_steps: 7,
        check_n: 1_500,
    },
    Workload {
        name: "collapse_balanced",
        why: "the paper's whole loop on moving density: the only workload where balancer decisions, plan patches and the host solve meet",
        kind: Kind::Collapse,
        n: 12_000,
        s: 0,
        steps: 22,
        traced_steps: 16,
        check_n: 1_500,
    },
    Workload {
        name: "track_1m",
        why: "paper-scale N=1M with no numeric solve: host time is all tree/plan/scheduler/balancer; a kernel change must read no change",
        kind: Kind::Track,
        n: 1_000_000,
        s: 0,
        steps: 100,
        traced_steps: 40,
        check_n: 20_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median the metric may worsen
    /// by. Per-layer metrics have no bound (0).
    pub bound: f64,
    /// Bit-identical between two runs of one commit and seed; `compare`
    /// demands equality instead of applying the bound.
    pub deterministic: bool,
}

use Better::{Higher, Lower};

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    deterministic: bool,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    e2e(name, unit, better, 0.0, false)
}

/// Each bound is three times the widest spread (interquartile range over
/// median) the metric showed across ten seeds on any workload, or the cap of
/// 0.25 where that is less, because the driver's steadiness rule compares
/// runs of different seeds; the two plain timings sit at the cap because the
/// shared host itself shifts by up to a fifth from one hour to the next.
pub const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", Lower, 0.25, false),
    e2e("wall_step_s", "s", Lower, 0.25, false),
    e2e("peak_rss_mb", "MB", Lower, 0.10, false),
    e2e("field_rel_err", "rel", Lower, 0.25, true),
    e2e("virtual_step_s", "virtual_s", Lower, 0.15, true),
    e2e("settle_step", "steps", Lower, 0.25, true),
];

/// Layer = crate; the prefix before the first dot names it.
pub const PER_LAYER: [MetricSpec; 58] = [
    pl("fmm-math.p2p_ns_per_pair", "ns", Lower),
    pl("fmm-math.l2p_ns_per_body", "ns", Lower),
    pl("fmm-math.p2p_gflops", "Gflop/s", Higher),
    pl("fmm-math.m2l_us_per_op", "us", Lower),
    pl("fmm-math.l2l_us_per_op", "us", Lower),
    pl("fmm-math.m2m_us_per_op", "us", Lower),
    pl("fmm-math.p2m_ns_per_body", "ns", Lower),
    pl("fmm-math.m2l_gflops", "Gflop/s", Higher),
    pl("octree.build_ms", "ms", Lower),
    pl("octree.rebin_ms", "ms", Lower),
    pl("octree.traverse_ms", "ms", Lower),
    pl("octree.refresh_ms", "ms", Lower),
    pl("octree.patch_us_per_edit", "us", Lower),
    pl("octree.enforce_ms", "ms", Lower),
    pl("octree.nodes", "count", Lower),
    pl("octree.leaves", "count", Lower),
    pl("octree.depth", "count", Lower),
    pl("octree.leaf_fill", "ratio", Higher),
    pl("octree.m2l_ops", "count", Lower),
    pl("octree.p2p_pairs", "count", Lower),
    pl("afmm.solve_s", "s", Lower),
    pl("afmm.solve.upsweep_s", "s", Lower),
    pl("afmm.solve.downsweep_s", "s", Lower),
    pl("afmm.solve.near_field_s", "s", Lower),
    pl("afmm.solve_accounted_frac", "ratio", Higher),
    pl("afmm.body_steps_per_s", "1/s", Higher),
    pl("afmm.time_step_ms", "ms", Lower),
    pl("afmm.post_step_ms", "ms", Lower),
    pl("afmm.post_step_max_ms", "ms", Lower),
    pl("afmm.predict_us", "us", Lower),
    pl("afmm.checkpoint_ms", "ms", Lower),
    pl("afmm.restore_ms", "ms", Lower),
    pl("afmm.checkpoint_mb", "MB", Lower),
    pl("afmm.virtual.t_cpu_s", "virtual_s", Lower),
    pl("afmm.virtual.t_gpu_s", "virtual_s", Lower),
    pl("afmm.virtual.idle_frac", "ratio", Lower),
    pl("afmm.virtual.lb_frac", "ratio", Lower),
    pl("afmm.cost.median_rel_err", "rel", Lower),
    pl("afmm.lb.rebuilds", "count", Lower),
    pl("afmm.lb.enforces", "count", Lower),
    pl("afmm.lb.fgo_rounds", "count", Lower),
    pl("afmm.lb.fgo_accept_frac", "ratio", Higher),
    pl("afmm.lb.patched_frac", "ratio", Higher),
    pl("sched-sim.simulate_ms", "ms", Lower),
    pl("sched-sim.schedule_ms", "ms", Lower),
    pl("sched-sim.tasks", "count", Lower),
    pl("sched-sim.ns_per_task", "ns", Lower),
    pl("sched-sim.parallel_rate", "cores", Higher),
    pl("gpu-sim.execute_ms", "ms", Lower),
    pl("gpu-sim.jobs", "count", Lower),
    pl("gpu-sim.efficiency", "ratio", Higher),
    pl("gpu-sim.imbalance", "ratio", Lower),
    pl("nbody.integrate_ms", "ms", Lower),
    pl("nbody.direct_ns_per_pair", "ns", Lower),
    pl("nbody.energy_rel_drift", "rel", Lower),
    pl("telemetry.overhead_frac", "ratio", Lower),
    pl("telemetry.events_per_step", "count", Lower),
    pl("telemetry.step_uncovered_frac", "ratio", Lower),
];

/// The text of the root `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |rows: Vec<String>| rows.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
