//! The scenario registry: every benchmark the perf-lab runs, parameterized
//! by problem size, distribution, leaf capacity, GPU count, and fault
//! schedule.
//!
//! Each scenario follows the same discipline: deterministic setup (seeded
//! body distributions), `warmup` unmeasured iterations to pay one-time
//! setup (tree build, plan build, page faults), then `reps` measured
//! repetitions whose wall times become the metric samples. Deterministic
//! *virtual* quantities (simulated compute times, edit counts) are recorded
//! as single-sample `virtual` metrics — on the virtual node they cannot
//! jitter, so any change between reports is a real code/structure change.
//! Every scenario ends by gathering a structural introspection snapshot so
//! perf deltas can be attributed (see [`super::snapshot`]).

use std::time::Instant;

use afmm::{
    CostModel, FaultEvent, FaultSchedule, FmmEngine, FmmParams, HeteroNode, LbConfig, LbState,
    Strategy, StrategyTracker,
};
use fmm_math::{GravityKernel, Kernel, StokesletKernel};
use geom::Vec3;
use octree::{
    build_adaptive, dual_traversal, BuildParams, IncrementalLists, Mac, NodeId, Octree,
    PlanRefresh, PriceScratch,
};

use super::report::{BenchReport, Metric, Scenario};
use super::snapshot::{gather, MemFootprint, SnapshotParts};
use telemetry::json::{obj, Json};

/// Suite-wide configuration; every scenario scales from these knobs.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// "full", "quick", or "smoke" — echoed into the report and required
    /// to match between compared reports.
    pub mode: &'static str,
    /// Measured repetitions per wall metric.
    pub reps: usize,
    /// Unmeasured warmup iterations (≥ 1 so first-call setup never lands
    /// in a sample).
    pub warmup: usize,
    /// Master seed for body distributions and bootstrap resampling.
    pub seed: u64,
    /// CPU cores / GPU count of the virtual node.
    pub cores: usize,
    pub gpus: usize,
    pub n_solve: usize,
    pub n_plan: usize,
    pub plan_edits: usize,
    pub n_enforce: usize,
    pub n_balance: usize,
    pub balance_steps: usize,
    pub n_overhead: usize,
    pub n_fault: usize,
    pub fault_steps: usize,
    pub n_rebin: usize,
}

impl SuiteConfig {
    /// Full-size suite for interactive use (~minutes).
    pub fn full() -> Self {
        SuiteConfig {
            mode: "full",
            reps: 7,
            warmup: 2,
            seed: 7,
            cores: 10,
            gpus: 4,
            n_solve: 60_000,
            n_plan: 120_000,
            plan_edits: 48,
            n_enforce: 60_000,
            n_balance: 20_000,
            balance_steps: 60,
            n_overhead: 60_000,
            n_fault: 8_000,
            fault_steps: 60,
            n_rebin: 1_000_000,
        }
    }

    /// Small fixed sizes for the CI gate (~tens of seconds). The
    /// checked-in `bench/baseline.json` is produced at these sizes.
    pub fn quick() -> Self {
        SuiteConfig {
            mode: "quick",
            reps: 5,
            warmup: 1,
            seed: 7,
            cores: 10,
            gpus: 4,
            n_solve: 12_000,
            n_plan: 30_000,
            plan_edits: 32,
            n_enforce: 20_000,
            n_balance: 6_000,
            balance_steps: 24,
            n_overhead: 12_000,
            n_fault: 3_000,
            fault_steps: 30,
            n_rebin: 200_000,
        }
    }

    /// Tiny sizes for the test suite (~seconds); exercises every scenario
    /// end to end without meaningful timing resolution.
    pub fn smoke() -> Self {
        SuiteConfig {
            mode: "smoke",
            reps: 2,
            warmup: 1,
            seed: 7,
            cores: 4,
            gpus: 2,
            n_solve: 2_000,
            n_plan: 4_000,
            plan_edits: 8,
            n_enforce: 3_000,
            n_balance: 1_500,
            balance_steps: 8,
            n_overhead: 2_000,
            n_fault: 1_200,
            fault_steps: 12,
            n_rebin: 6_000,
        }
    }
}

/// Run the whole registry; `progress` receives one line per scenario.
pub fn run_suite(cfg: &SuiteConfig, progress: &mut dyn FnMut(&str)) -> BenchReport {
    type Runner = fn(&SuiteConfig) -> Scenario;
    let runners: [(&str, Runner); 9] = [
        ("solve_step", solve_step),
        ("plan_patch_vs_rebuild", plan_patch_vs_rebuild),
        ("enforce_s", enforce_s),
        ("balancer_convergence", balancer_convergence),
        ("telemetry_overhead", telemetry_overhead),
        ("balancer_faults", balancer_faults),
        ("memory_profile", memory_profile),
        // After `memory_profile`, whose process-wide peak would otherwise
        // count these scenarios' retained rows.
        ("tree_maintenance", tree_maintenance),
        ("accuracy", accuracy),
    ];
    progress(&format!(
        "{} suite: {} scenarios pending, reps={}, warmup={}",
        cfg.mode,
        runners.len(),
        cfg.reps,
        cfg.warmup
    ));
    // Grown as rows arrive, so what is live while `memory_profile` runs does
    // not depend on how many scenarios follow it.
    let mut scenarios = Vec::new();
    for (name, run) in runners {
        progress(&format!("running {name} ..."));
        let t0 = Instant::now();
        let sc = run(cfg);
        progress(&format!(
            "  {name} done in {:.1}s",
            t0.elapsed().as_secs_f64()
        ));
        scenarios.push(sc);
    }
    BenchReport {
        host: BenchReport::current_host(),
        commit: BenchReport::current_commit(),
        config: obj(vec![
            ("mode", Json::Str(cfg.mode.to_string())),
            ("reps", Json::F64(cfg.reps as f64)),
            ("warmup", Json::F64(cfg.warmup as f64)),
            ("seed", Json::F64(cfg.seed as f64)),
        ]),
        scenarios,
    }
}

/// Time `f` once, in seconds.
fn wall<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// `warmup` unmeasured + `reps` measured runs of `f`.
fn sample(warmup: usize, reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    for _ in 0..warmup.max(1) {
        f();
    }
    (0..reps).map(|_| wall(&mut f).0).collect()
}

/// Host cost of the two near-field operators over `engine`'s current tree
/// and lists, each timed in its own pass on tree-ordered SoA lanes like the
/// solve's: samples of (P2P ns per pair, L2P ns per body). P2P is every
/// leaf's list through [`FmmEngine::p2p_into`], the near field's own inner
/// loop over the bodies the last solve gathered. The phase spans cannot
/// separate the two — L2P and P2P share `solve.near_field`.
fn near_field_probe(
    engine: &FmmEngine<GravityKernel>,
    b: &nbody::Bodies,
    warmup: usize,
    reps: usize,
) -> (Vec<f64>, Vec<f64>) {
    use fmm_math::{BodyTile, FieldTile, SplitTile};
    let (tree, lists, ops) = (engine.tree(), engine.lists(), engine.expansion_ops());
    let order = tree.order();
    let n = order.len();
    let lane =
        |axis: usize| -> Vec<f64> { order.iter().map(|&i| b.pos[i as usize][axis]).collect() };
    let (x, y, z) = (lane(0), lane(1), lane(2));
    let tile = |r: std::ops::Range<usize>| BodyTile::targets(&x[r.clone()], &y[r.clone()], &z[r]);
    let (mut pot, mut ox, mut oy, mut oz) =
        (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let leaves = tree.active_leaves();
    // L2P costs the same whatever the coefficients hold.
    let local = vec![0.0; ops.nterms()];
    let mut pow = Vec::new();

    let pairs: usize = (leaves.iter())
        .flat_map(|&id| {
            let n = tree.node(id).count();
            (lists.p2p[id as usize].iter()).map(move |&src| n * tree.node(src).count())
        })
        .sum();
    let mut split = SplitTile::default();
    let p2p = sample(warmup, reps, || {
        for &id in &leaves {
            let r = tree.node(id).range();
            let mut out = FieldTile::new(
                &mut pot[r.clone()],
                &mut ox[r.clone()],
                &mut oy[r.clone()],
                &mut oz[r.clone()],
            );
            engine.p2p_into(id, &mut out, &mut split);
        }
    });
    // One L2P pass is a few ms at quick sizes — short enough for a single
    // preemption to double it — so a sample is several passes.
    const L2P_PASSES: usize = 8;
    let l2p = sample(warmup, reps, || {
        for _ in 0..L2P_PASSES {
            for &id in &leaves {
                let node = tree.node(id);
                let r = node.range();
                let mut out = FieldTile::new(
                    &mut pot[r.clone()],
                    &mut ox[r.clone()],
                    &mut oy[r.clone()],
                    &mut oz[r.clone()],
                );
                engine
                    .kernel
                    .l2p_tile(ops, node.center, &local, tile(r), &mut out, &mut pow);
            }
        }
    });
    std::hint::black_box((&pot, &ox, &oy, &oz));
    let per = |samples: Vec<f64>, count: f64| -> Vec<f64> {
        samples.iter().map(|s| s * 1e9 / count.max(1.0)).collect()
    };
    (per(p2p, pairs as f64), per(l2p, (L2P_PASSES * n) as f64))
}

/// Host cost of one M2L inside the batched far field: every node's list
/// through [`FmmEngine::m2l_into`] — the downsweep's own inner loop, over the
/// plan's real lists and the source forms the last solve left — in samples of
/// µs per list entry (tensor, transpose and tail padding included).
fn m2l_probe(engine: &FmmEngine<GravityKernel>, warmup: usize, reps: usize) -> Vec<f64> {
    let nodes = engine.tree().visible_nodes();
    let mut local = vec![0.0; engine.kernel.channels() * engine.expansion_ops().nterms()];
    let mut scratch = fmm_math::M2lScratch::default();
    let samples = sample(warmup, reps, || {
        for &id in &nodes {
            engine.m2l_into(id, &mut local, &mut scratch);
        }
    });
    std::hint::black_box(&local);
    let ops = engine.lists().num_m2l().max(1) as f64;
    samples.iter().map(|s| s * 1e6 / ops).collect()
}

/// **solve_step** — one numeric FMM solve (gravity, Plummer sphere) plus
/// the virtual-node timing of the same tree. The core "is the solver
/// getting slower" scenario; its snapshot carries the full structural
/// context including the observed cost-model coefficients.
///
/// The wall clock is broken down twice. By phase: `upsweep_s`,
/// `downsweep_s` and `near_field_s` are the engine's own `solve.*` spans of
/// the measured solves (informational; they sum to `wall_solve_s` up to the
/// gather/scatter around them). By operator: `p2p_ns_per_pair` and
/// `l2p_ns_per_body` from [`near_field_probe`] and `m2l_us_per_op` from
/// [`m2l_probe`], gated, so a kernel regression is named rather than smeared
/// over the whole solve. The probes call the kernels on this thread, so they
/// read per core on any host.
///
/// `wall_solve_s` runs at the host's width. `wall_solve_1w_s` is the same
/// solve on one worker, `host_speedup` their per-repetition ratio, and
/// `model_parallel_rate` what `sched-sim` gives the same plan's task graph on
/// that many cores and no GPU — the Fig 6 model beside a real run. All three
/// inform; they vary with the host's core count.
fn solve_step(cfg: &SuiteConfig) -> Scenario {
    let s = 96;
    let b = nbody::plummer(cfg.n_solve, 1.0, 1.0, cfg.seed);
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s);
    let rec = telemetry::Recorder::enabled();
    engine.set_recorder(rec.clone());
    let samples = sample(cfg.warmup, cfg.reps, || {
        std::hint::black_box(engine.solve(&b.pos, &b.mass));
    });
    engine.set_recorder(telemetry::Recorder::disabled());
    // The same solve on one worker, after the recorder is off so the phase
    // spans below stay the default-width ones.
    let samples_1w = crate::one_worker(|| {
        sample(cfg.warmup, cfg.reps, || {
            std::hint::black_box(engine.solve(&b.pos, &b.mass));
        })
    });
    let speedup: Vec<f64> = samples_1w
        .iter()
        .zip(&samples)
        .map(|(w1, wk)| w1 / wk)
        .collect();
    // One span per solve, warmups first: the last `reps` are the measured ones.
    let phase = |name: &str| -> Vec<f64> {
        let spans = rec.events_named(name);
        spans[spans.len() - cfg.reps..]
            .iter()
            .map(|e| e.dur_s.expect("solve phases are spans"))
            .collect()
    };
    let (p2p_ns, l2p_ns) = near_field_probe(&engine, &b, cfg.warmup, cfg.reps);
    let m2l_us = m2l_probe(&engine, cfg.warmup, cfg.reps);

    let node = HeteroNode::system_a(cfg.cores, cfg.gpus);
    let flops = crate::default_flops(&GravityKernel::default());
    let timing = engine
        .time_step(&flops, &node)
        .expect("healthy virtual node");
    let counts = engine.counts();
    let mut cost = CostModel::new();
    cost.observe(&counts, &timing, &flops, &node);
    // What the scheduler model says this plan's task graph gains on as many
    // cores as the host solve just used, every operation on the CPU.
    let host_like = HeteroNode::system_a(rayon::current_num_threads(), 0);
    let model_rate = engine
        .time_step(&flops, &host_like)
        .expect("healthy virtual node")
        .parallel_rate();

    let snapshot = gather(&SnapshotParts {
        tree: Some(engine.tree()),
        lists: Some(engine.lists()),
        counts: Some(counts),
        cost: Some(&cost),
        timing: timing.gpu.as_ref(),
        ..Default::default()
    });
    Scenario {
        name: "solve_step".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_solve as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s", Json::F64(s as f64)),
            ("cores", Json::F64(cfg.cores as f64)),
            ("gpus", Json::F64(cfg.gpus as f64)),
        ]),
        metrics: vec![
            Metric::wall("wall_solve_s", "s", samples, cfg.seed),
            Metric::wall("p2p_ns_per_pair", "ns", p2p_ns, cfg.seed),
            Metric::wall("l2p_ns_per_body", "ns", l2p_ns, cfg.seed),
            Metric::wall("m2l_us_per_op", "us", m2l_us, cfg.seed),
            Metric::wall("upsweep_s", "s", phase("solve.upsweep"), cfg.seed).informational(),
            Metric::wall("downsweep_s", "s", phase("solve.downsweep"), cfg.seed).informational(),
            Metric::wall("near_field_s", "s", phase("solve.near_field"), cfg.seed).informational(),
            Metric::wall("wall_solve_1w_s", "s", samples_1w, cfg.seed).informational(),
            Metric::wall("host_speedup", "x", speedup, cfg.seed)
                .higher_is_better()
                .informational(),
            Metric::virtual_point("model_parallel_rate", "cores", model_rate)
                .higher_is_better()
                .informational(),
            Metric::virtual_point("virtual_compute_s", "s", timing.compute()),
            Metric::virtual_point("virtual_cpu_s", "s", timing.t_cpu),
            Metric::virtual_point("virtual_gpu_s", "s", timing.t_gpu),
        ],
        snapshot,
    }
}

/// Result of one plan-economy measurement at a fixed S.
struct PlanEconomy {
    /// One warm `IncrementalLists::rebuild` of the unedited tree, into the
    /// storage the plan already holds, microseconds.
    rebuild_us: f64,
    /// One plan-routed collapse or push-down, microseconds.
    patch_us_per_edit: f64,
    /// Edits applied (collapse + reverting push-down per twig).
    edits: usize,
}

/// Internal non-root nodes whose visible children are all leaves — the
/// edit sites a capacity sweep actually touches, and whose hidden children
/// let `push_down` revert the collapse exactly.
fn twigs(tree: &Octree, limit: usize) -> Vec<NodeId> {
    tree.visible_nodes()
        .into_iter()
        .filter(|&id| {
            id != Octree::ROOT
                && !tree.node(id).is_leaf()
                && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
        })
        .take(limit)
        .collect()
}

/// Measure rebuild-vs-patch once on `tree` (left structurally unchanged:
/// every collapse is reverted by its push-down).
fn measure_plan_economy(tree: &mut Octree, mac: Mac, max_edits: usize) -> PlanEconomy {
    let victims = twigs(tree, max_edits);
    let mut plan = IncrementalLists::build(tree, mac);
    let mut applied = 0usize;
    let (patch_s, _) = wall(|| {
        for &id in &victims {
            applied += usize::from(plan.apply_collapse(tree, id));
            applied += usize::from(plan.apply_push_down(tree, id));
        }
    });
    assert_eq!(applied, 2 * victims.len(), "every twig edit must apply");
    // The edits reverted: rebuild the same tree the patches started from.
    let (rebuild_s, _) = wall(|| plan.rebuild(tree));
    PlanEconomy {
        rebuild_us: rebuild_s * 1e6,
        patch_us_per_edit: patch_s * 1e6 / applied.max(1) as f64,
        edits: applied,
    }
}

/// **plan_patch_vs_rebuild** — the plan layer's economics at one fixed S:
/// patching a live plan through single-node edits vs re-deriving lists and
/// counts from scratch.
fn plan_patch_vs_rebuild(cfg: &SuiteConfig) -> Scenario {
    let s = 256;
    let b = nbody::plummer(cfg.n_plan, 1.0, 1.0, cfg.seed + 1);
    let mut tree = build_adaptive(&b.pos, BuildParams::with_s(s));
    let mac = Mac::default();

    // Warmup pass, then paired samples from the same tree (edits revert).
    for _ in 0..cfg.warmup.max(1) {
        measure_plan_economy(&mut tree, mac, cfg.plan_edits);
    }
    let mut rebuilds = Vec::with_capacity(cfg.reps);
    let mut patches = Vec::with_capacity(cfg.reps);
    let mut speedups = Vec::with_capacity(cfg.reps);
    let mut edits = 0usize;
    for _ in 0..cfg.reps {
        let e = measure_plan_economy(&mut tree, mac, cfg.plan_edits);
        rebuilds.push(e.rebuild_us);
        patches.push(e.patch_us_per_edit);
        speedups.push(e.rebuild_us / e.patch_us_per_edit);
        edits = e.edits;
    }

    let lists = dual_traversal(&tree, mac);
    let snapshot = gather(&SnapshotParts {
        tree: Some(&tree),
        lists: Some(&lists),
        counts: None,
        ..Default::default()
    });
    Scenario {
        name: "plan_patch_vs_rebuild".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_plan as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s", Json::F64(s as f64)),
            ("edits", Json::F64(edits as f64)),
        ]),
        metrics: vec![
            Metric::wall("rebuild_us", "us", rebuilds, cfg.seed),
            Metric::wall("patch_us_per_edit", "us", patches, cfg.seed + 1),
            Metric::wall("patch_speedup", "x", speedups, cfg.seed + 2)
                .higher_is_better()
                .informational(),
        ],
        snapshot,
    }
}

/// **enforce_s** — the cost of the paper's `Enforce_S` walk through the
/// live plan: rebuild the tree at S=128 (outside the timer), drop the
/// target to S=64, and time one full plan-patching enforcement pass.
fn enforce_s(cfg: &SuiteConfig) -> Scenario {
    let (s_from, s_to) = (128usize, 64usize);
    let b = nbody::plummer(cfg.n_enforce, 1.0, 1.0, cfg.seed + 2);
    let mut engine = FmmEngine::new(
        GravityKernel::default(),
        FmmParams::default(),
        &b.pos,
        s_from,
    );
    let mut samples = Vec::with_capacity(cfg.reps);
    let mut edits = 0u64;
    for rep in 0..cfg.warmup.max(1) + cfg.reps {
        engine.rebuild(&b.pos, s_from);
        engine.refresh_plan();
        engine.set_s(s_to);
        let (t, (out, patched)) = wall(|| engine.enforce_s());
        assert!(patched, "enforce_s must take the plan path here");
        if rep >= cfg.warmup.max(1) {
            samples.push(t * 1e3);
            edits = (out.collapses + out.pushdowns) as u64;
        }
    }

    let counts = engine.counts();
    let snapshot = gather(&SnapshotParts {
        tree: Some(engine.tree()),
        lists: Some(engine.lists()),
        counts: Some(counts),
        ..Default::default()
    });
    Scenario {
        name: "enforce_s".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_enforce as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s_from", Json::F64(s_from as f64)),
            ("s_to", Json::F64(s_to as f64)),
        ]),
        metrics: vec![
            Metric::wall("enforce_ms", "ms", samples, cfg.seed),
            Metric::virtual_point("edits", "count", edits as f64),
        ],
        snapshot,
    }
}

/// **balancer_convergence** — the full Strategy-3 loop on the paper's
/// contracting-cloud workload: wall time of the whole run plus the
/// deterministic virtual compute/LB totals and the settle step.
fn balancer_convergence(cfg: &SuiteConfig) -> Scenario {
    type BalanceRun = (f64, afmm::RunSummary, u64, usize, telemetry::AuditStats);
    let run = |record: bool| -> BalanceRun {
        let setup = nbody::collapsing_plummer(cfg.n_balance, 1.0, cfg.seed + 3);
        let rec = if record {
            telemetry::Recorder::enabled()
        } else {
            telemetry::Recorder::disabled()
        };
        let mut tracker = StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(cfg.cores, cfg.gpus),
            Strategy::Full,
            LbConfig::default(),
            &setup.bodies.pos,
            Some((setup.domain_center, setup.domain_half_width)),
        );
        tracker.set_recorder(rec);
        let clump = geom::Vec3::new(
            0.4 * setup.domain_half_width,
            0.4 * setup.domain_half_width,
            0.4 * setup.domain_half_width,
        );
        let mut pos = setup.bodies.pos.clone();
        let (t, ()) = wall(|| {
            for step in 0..cfg.balance_steps {
                tracker.step(&pos).expect("healthy node cannot fail");
                if step < cfg.balance_steps / 2 {
                    for p in &mut pos {
                        *p = *p + (clump - *p) * 0.05;
                    }
                }
            }
        });
        let settle = tracker
            .records()
            .iter()
            .position(|r| r.state == LbState::Observation)
            .unwrap_or(cfg.balance_steps);
        let s_final = tracker.balancer().s() as u64;
        let audit = tracker.audits().stats();
        (t, tracker.summary(), s_final, settle, audit)
    };

    for _ in 0..cfg.warmup.max(1) {
        run(false);
    }
    let mut samples = Vec::with_capacity(cfg.reps);
    let mut last = None;
    for _ in 0..cfg.reps {
        let (t, summary, s_final, settle, audit) = run(true);
        samples.push(t);
        last = Some((summary, s_final, settle, audit));
    }
    let (summary, s_final, settle, audit) = last.expect("reps >= 1");

    let snapshot = gather(&SnapshotParts {
        audit: Some(audit),
        ..Default::default()
    });
    Scenario {
        name: "balancer_convergence".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_balance as f64)),
            ("distribution", Json::Str("collapsing_plummer".to_string())),
            ("steps", Json::F64(cfg.balance_steps as f64)),
            ("strategy", Json::Str("full".to_string())),
            ("cores", Json::F64(cfg.cores as f64)),
            ("gpus", Json::F64(cfg.gpus as f64)),
        ]),
        metrics: vec![
            Metric::wall("wall_run_s", "s", samples, cfg.seed),
            Metric::virtual_point("virtual_total_compute_s", "s", summary.total_compute),
            Metric::virtual_point("virtual_total_lb_s", "s", summary.total_lb),
            Metric::virtual_point("settle_step", "step", settle as f64),
            Metric::virtual_point("final_s", "bodies", s_final as f64).informational(),
            Metric::virtual_point("audit_median_err", "rel", audit.median),
        ],
        snapshot,
    }
}

/// **telemetry_overhead** — the cost of observability itself: numeric
/// solves with no recorder vs an enabled recorder with a live ring buffer.
fn telemetry_overhead(cfg: &SuiteConfig) -> Scenario {
    let b = nbody::plummer(cfg.n_overhead, 1.0, 1.0, cfg.seed + 4);
    let time_variant = |rec: Option<telemetry::Recorder>| -> Vec<f64> {
        let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 96);
        if let Some(rec) = rec {
            engine.set_recorder(rec);
        }
        sample(cfg.warmup, cfg.reps, || {
            std::hint::black_box(engine.solve(&b.pos, &b.mass));
        })
    };
    let base = time_variant(None);
    let enabled = time_variant(Some(telemetry::Recorder::enabled()));
    let overhead: Vec<f64> = enabled
        .iter()
        .zip(&base)
        .map(|(e, b)| e / b - 1.0)
        .collect();

    Scenario {
        name: "telemetry_overhead".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_overhead as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s", Json::F64(96.0)),
        ]),
        metrics: vec![
            Metric::wall("wall_base_s", "s", base, cfg.seed),
            Metric::wall("wall_enabled_s", "s", enabled, cfg.seed + 1),
            Metric::wall("overhead_frac", "frac", overhead, cfg.seed + 2).informational(),
        ],
        snapshot: Json::Obj(Vec::new()),
    }
}

/// **balancer_faults** — resilience cost: a device dropout mid-run and its
/// recovery, on the virtual node. Wall time covers the whole faulted run;
/// virtual metrics capture the deterministic recovery trajectory.
fn balancer_faults(cfg: &SuiteConfig) -> Scenario {
    let fault_step = cfg.fault_steps / 3;
    let recover_step = 2 * cfg.fault_steps / 3;
    let run = || -> (f64, afmm::RunSummary, usize) {
        let b = nbody::plummer(cfg.n_fault, 1.0, 1.0, cfg.seed + 5);
        let mut tracker = StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(cfg.cores, cfg.gpus.max(2)),
            Strategy::Full,
            LbConfig::default(),
            &b.pos,
            None,
        );
        tracker.set_recorder(telemetry::Recorder::enabled());
        let mut schedule = FaultSchedule::new();
        schedule.push(fault_step, FaultEvent::GpuDropout { device: 0 });
        schedule.push(recover_step, FaultEvent::GpuRecover { device: 0 });
        tracker.set_fault_schedule(schedule);
        let (t, ()) = wall(|| {
            for _ in 0..cfg.fault_steps {
                tracker
                    .step(&b.pos)
                    .expect("dropout must degrade, not fail");
            }
        });
        let records = tracker.records();
        // From each device change to the next step the balancer runs in
        // Observation (or to the run's end, when it never gets there).
        let recovery_steps: usize = [fault_step, recover_step]
            .iter()
            .map(|&change| {
                records[change + 1..]
                    .iter()
                    .position(|r| r.state == LbState::Observation)
                    .map_or(records.len() - change, |i| i + 1)
            })
            .sum();
        (t, tracker.summary(), recovery_steps)
    };

    for _ in 0..cfg.warmup.max(1) {
        run();
    }
    let mut samples = Vec::with_capacity(cfg.reps);
    let mut last = None;
    for _ in 0..cfg.reps {
        let (t, summary, recovery_steps) = run();
        samples.push(t);
        last = Some((summary, recovery_steps));
    }
    let (summary, recovery_steps) = last.expect("reps >= 1");

    Scenario {
        name: "balancer_faults".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_fault as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("steps", Json::F64(cfg.fault_steps as f64)),
            ("fault_step", Json::F64(fault_step as f64)),
            ("recover_step", Json::F64(recover_step as f64)),
            ("gpus", Json::F64(cfg.gpus.max(2) as f64)),
        ]),
        metrics: vec![
            Metric::wall("wall_run_s", "s", samples, cfg.seed),
            Metric::virtual_point("virtual_total_compute_s", "s", summary.total_compute),
            Metric::virtual_point("virtual_total_lb_s", "s", summary.total_lb),
            Metric::virtual_point("recovery_steps", "step", recovery_steps as f64),
        ],
        snapshot: Json::Obj(Vec::new()),
    }
}

/// **memory_profile** — the memory observatory: a steady-state solve loop
/// (rebin + refresh + solve on a warm plan) under scoped allocation
/// profiling, plus structural heap-footprint accounting and the
/// patch-vs-rebuild allocation economics.
///
/// Allocator-derived metrics (allocation counts, byte deltas, peak live
/// bytes) are emitted only when the counting `GlobalAlloc` wrapper is
/// installed (`memprof` feature + `#[global_allocator]` in the bin) —
/// without it they are omitted and `afmm-perf compare` skips them. They are
/// exact `virtual`-kind points: the workload is seeded and runs on one
/// worker, so the counts are bit-for-bit reproducible and any change is a
/// real allocation-behavior change. The hard invariant is
/// `steady_gate_allocs == 0`: a warm cached-plan step performs zero heap
/// allocations inside the `rebin` and `plan.refresh` scopes. The gate
/// phase holds positions fixed so every refresh provably finds no cell
/// emptied or filled at any workload scale (under motion a refresh that
/// patches such a flip may grow the lists it links into, which allocates);
/// the motion phase's refresh cost is reported as an informational metric
/// instead, and the flip-free zero-alloc property under motion is covered
/// by `tests/memprof.rs`.
///
/// Structural footprint metrics come from the `heap_bytes()` family and
/// work with or without the feature.
///
/// The whole scenario runs on [`crate::one_worker`]: allocation scopes are
/// per thread, so only the width-1 schedule gives counts that are the same
/// on every host.
fn memory_profile(cfg: &SuiteConfig) -> Scenario {
    crate::one_worker(|| memory_profile_one_worker(cfg))
}

fn memory_profile_one_worker(cfg: &SuiteConfig) -> Scenario {
    use telemetry::memprof;
    // What is live before the scenario starts (earlier scenarios' results,
    // the output path) differs from run to run and is not this workload's;
    // the peak row counts from here.
    let live_before = memprof::global().live_bytes;
    let s = 96;
    let b = nbody::plummer(cfg.n_solve, 1.0, 1.0, cfg.seed + 9);
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s);

    // Steady-state motion model: a uniform contraction mild enough that
    // refreshes mostly only recount (an occasional emptiness flip at large
    // N is patched into the lists, which may grow them — that is why the
    // zero-alloc gate below measures a frozen-position phase instead).
    let mut pos = b.pos.clone();
    let step = |engine: &mut FmmEngine<GravityKernel>, pos: &mut Vec<geom::Vec3>| {
        for p in pos.iter_mut() {
            *p *= 0.9995;
        }
        engine.rebin(pos);
        std::hint::black_box(engine.solve(pos, &b.mass));
    };

    // Warmup pays every one-time allocation: plan build, rebin scratch,
    // refresh scratch, solve gathers and expansion storage.
    for _ in 0..cfg.warmup.max(2) {
        step(&mut engine, &mut pos);
    }

    // Motion phase: steady-state dynamics. Yields peak live bytes, the
    // numeric phases' allocation rate, and the refresh cost under motion.
    memprof::reset_scopes();
    memprof::reset_peak();
    let steps = cfg.reps.max(1);
    for _ in 0..steps {
        step(&mut engine, &mut pos);
    }
    let global = memprof::global();
    let phase_sc = memprof::scope_stats("phase").unwrap_or_default();
    let refresh_motion = memprof::scope_stats("plan.refresh").unwrap_or_default();

    // Gate phase: positions frozen, so every refresh takes the cached-plan
    // Clean path — the rebin still regroups every body, and the solve's
    // leaf sort (in the same `rebin` scope) reads every leaf. Zero
    // allocations in the gated scopes is the hard invariant.
    memprof::reset_scopes();
    for _ in 0..steps {
        engine.rebin(&pos);
        std::hint::black_box(engine.solve(&pos, &b.mass));
    }
    let rebin_sc = memprof::scope_stats("rebin").unwrap_or_default();
    let refresh_sc = memprof::scope_stats("plan.refresh").unwrap_or_default();
    let gate_allocs = rebin_sc.allocs + refresh_sc.allocs;

    // Structural footprint of the steady-state structures, before the edit
    // experiment below perturbs them.
    let tree_bytes = engine.tree().heap_bytes();
    let fp = MemFootprint {
        bodies_bytes: b.heap_bytes() + pos.capacity() * std::mem::size_of::<geom::Vec3>(),
        tree_bytes,
        plan_bytes: engine.heap_bytes() - tree_bytes,
        recorder_bytes: 0,
        bodies: cfg.n_solve,
        nodes: engine.tree().num_nodes(),
        list_entries: engine.lists().num_m2l() + engine.lists().num_p2p_pairs(),
    };

    let snapshot = gather(&SnapshotParts {
        tree: Some(engine.tree()),
        lists: Some(engine.lists()),
        counts: Some(engine.counts()),
        allocator: memprof::counting().then(|| (memprof::global(), memprof::scopes())),
        mem: Some(fp),
        ..Default::default()
    });

    // Patch-vs-rebuild allocation economics: bytes allocated per plan-routed
    // collapse edit vs one full plan rebuild on the same tree.
    memprof::reset_scopes();
    let twigs = twigs(engine.tree(), cfg.plan_edits.max(1));
    let mut edits = 0usize;
    for id in twigs {
        edits += usize::from(engine.apply_collapse(id));
    }
    let patch_sc = memprof::scope_stats("plan.patch").unwrap_or_default();
    let patch_bytes_per_edit = patch_sc.alloc_bytes as f64 / edits.max(1) as f64;
    let g0 = memprof::global();
    // Mark the plan stale behind its back so the next refresh is a full
    // rebuild, then measure the rebuild's allocation bill.
    let _ = engine.tree_mut();
    engine.refresh_plan();
    let rebuild_bytes = (memprof::global().alloc_bytes - g0.alloc_bytes) as f64;

    let n = cfg.n_solve as f64;
    let mut metrics = vec![Metric::virtual_point(
        "footprint_bytes_per_body",
        "B",
        fp.total_bytes() as f64 / n,
    )];
    if memprof::counting() {
        metrics.push(Metric::virtual_point(
            "steady_gate_allocs",
            "allocs",
            gate_allocs as f64,
        ));
        metrics.push(Metric::virtual_point(
            "peak_live_bytes_per_body",
            "B",
            global.peak_live_bytes.saturating_sub(live_before) as f64 / n,
        ));
        metrics.push(Metric::virtual_point(
            "patch_bytes_per_edit",
            "B",
            patch_bytes_per_edit,
        ));
        metrics.push(Metric::virtual_point("rebuild_bytes", "B", rebuild_bytes));
        metrics.push(Metric::virtual_point(
            "phase_alloc_bytes_per_step",
            "B",
            phase_sc.alloc_bytes as f64 / steps as f64,
        ));
        metrics.push(
            Metric::virtual_point(
                "refresh_motion_bytes_per_step",
                "B",
                refresh_motion.alloc_bytes as f64 / steps as f64,
            )
            .informational(),
        );
    }
    Scenario {
        name: "memory_profile".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_solve as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s", Json::F64(s as f64)),
            ("steps", Json::F64(steps as f64)),
            ("edits", Json::F64(edits as f64)),
        ]),
        metrics,
        snapshot,
    }
}

/// **tree_maintenance** — the step every strategy of the paper pays after
/// every position update, at the paper's N in full mode: `Octree::rebin` of
/// all bodies into the unchanged tree, in ns per body. `rebin_ns_per_body`
/// runs at the host's width and is gated; `rebin_1w_ns_per_body` is the same
/// re-binning on one worker and `rebin_speedup` their per-repetition ratio —
/// both inform, they vary with the host's core count.
/// `sort_leaves_ns_per_body`, informing, is `Octree::sort_leaves` after
/// each half of the same breath taken again by `Octree::regroup`: what a
/// step that reads the order within leaves adds to one that does not.
/// `rebin_leavers_frac` is the share of bodies one rebin moves to another
/// leaf (exact, informing): the bodies it sorts across leaves, the rest
/// being sorted within their own. `refresh_ms`, gated,
/// is a live plan's `refresh_counts` after bodies moved between busy leaves
/// — a Patched refresh that finds no flip and recounts every visible node
/// through workers — two per breath, averaged. `refresh_flip_ms`,
/// informing, is the refresh after each half of the breath, which empties
/// and fills cells at the cloud's edge: the lists are patched through each
/// topmost flip before the recount — averaged over the refreshes that
/// found one. `flips_per_breath` (exact, informing) is how many topmost
/// flips the two refreshes patch, averaged over the timed breaths. The plan
/// rebuild on the same tree
/// reads the way the rebin does: `plan_rebuild_ms`
/// (`IncrementalLists::rebuild` of a live plan, host width) gated,
/// `plan_rebuild_1w_ms` and `plan_rebuild_speedup` informing.
/// `price_ms`, informing, is one `Octree::price` of the same tree at twice
/// its S, host width: what Search pays per candidate it prices.
fn tree_maintenance(cfg: &SuiteConfig) -> Scenario {
    let s = 64;
    let b = nbody::plummer(cfg.n_rebin, 1.0, 1.0, cfg.seed + 10);
    let mut tree = build_adaptive(&b.pos, BuildParams::with_s(s));
    let mut live = IncrementalLists::build(&tree, Mac::default());
    let mut pos = b.pos.clone();
    let leavers_frac = {
        let inhaled: Vec<Vec3> = pos.iter().map(|p| *p * 0.998).collect();
        let mut moved = tree.clone();
        moved.rebin(&inhaled);
        let (before, after) = (leaf_of(&tree), leaf_of(&moved));
        let left = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        left as f64 / cfg.n_rebin as f64
    };
    // One sample is a breath — in by 0.2 %, back out — so the cloud stays in
    // its root cube and a few per cent of the bodies change leaf each time;
    // the two rebins are on one clock. Each half of a breath empties or
    // fills cells at the cloud's edge, and the other half undoes it: the
    // refresh after each half, which patches those flips, is on another.
    // The flip-free refreshes are timed after hops that cannot flip: a few
    // bodies hop to another busy leaf and back, and the refresh after each
    // hop is on the clock.
    type Breath = (f64, f64, Option<f64>, Option<f64>, usize);
    let mut breath = |tree: &mut Octree, plan: &mut IncrementalLists| -> Breath {
        let (mut rebin_s, mut flip_s, mut flipped, mut flips) = (0.0, 0.0, 0, 0);
        for scale in [0.998, 1.0 / 0.998] {
            for p in pos.iter_mut() {
                *p *= scale;
            }
            rebin_s += wall(|| tree.rebin(&pos)).0;
            if let (secs, PlanRefresh::Patched { flips: f @ 1.., .. }) =
                wall(|| plan.refresh_counts(tree))
            {
                (flip_s, flipped, flips) = (flip_s + secs, flipped + 1, flips + f);
            }
        }
        let refresh_flip_ms = (flipped > 0).then(|| flip_s * 1e3 / flipped as f64);
        let (mut refresh_s, mut patched) = (0.0, 0);
        let home = pos.clone();
        for (body, spot) in hops(tree, &pos) {
            pos[body] = spot;
        }
        for to in [None, Some(home)] {
            if let Some(home) = to {
                pos = home;
            }
            tree.rebin(&pos);
            let (secs, outcome) = wall(|| plan.refresh_counts(tree));
            if let PlanRefresh::Patched { flips: 0, .. } = outcome {
                refresh_s += secs;
                patched += 1;
            }
        }
        let refresh_ms = (patched > 0).then(|| refresh_s * 1e3 / patched as f64);
        // The breath again as two regroups, each half's leaf sort on the
        // clock, and the plan brought up to the tree.
        let mut sort_s = 0.0;
        for scale in [0.998, 1.0 / 0.998] {
            for p in pos.iter_mut() {
                *p *= scale;
            }
            tree.regroup(&pos);
            sort_s += wall(|| tree.sort_leaves()).0;
        }
        plan.refresh_counts(tree);
        let per_body = |secs: f64| secs * 1e9 / (2 * cfg.n_rebin) as f64;
        let (rebin_ns, sort_ns) = (per_body(rebin_s), per_body(sort_s));
        (rebin_ns, sort_ns, refresh_ms, refresh_flip_ms, flips)
    };
    let mut breaths = |tree: &mut Octree, plan: &mut IncrementalLists| {
        for _ in 0..cfg.warmup.max(1) {
            breath(tree, plan);
        }
        let samples: Vec<_> = (0..cfg.reps).map(|_| breath(tree, plan)).collect();
        let rebin: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let sort: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let refresh: Vec<f64> = samples.iter().filter_map(|s| s.2).collect();
        let refresh_flip: Vec<f64> = samples.iter().filter_map(|s| s.3).collect();
        let flips = samples.iter().map(|s| s.4).sum::<usize>() as f64 / cfg.reps.max(1) as f64;
        (rebin, sort, refresh, refresh_flip, flips)
    };
    let (samples, sort, refresh, refresh_flip, flips_per_breath) = breaths(&mut tree, &mut live);
    let (samples_1w, ..) = crate::one_worker(|| breaths(&mut tree, &mut live));
    drop(live);
    let ratio = |one: &[f64], wide: &[f64]| -> Vec<f64> {
        one.iter().zip(wide).map(|(w1, wk)| w1 / wk).collect()
    };
    let speedup = ratio(&samples_1w, &samples);

    // The plan over the same tree, rebuilt whole while live: what a refresh
    // of a plan gone stale (the tree rebuilt under it) pays.
    let mut plan = IncrementalLists::build(&tree, Mac::default());
    let rebuilds = |plan: &mut IncrementalLists| -> Vec<f64> {
        sample(cfg.warmup, cfg.reps, || plan.rebuild(&tree))
            .into_iter()
            .map(|s| s * 1e3)
            .collect()
    };
    let rebuild = rebuilds(&mut plan);
    let rebuild_1w = crate::one_worker(|| rebuilds(&mut plan));
    let rebuild_speedup = ratio(&rebuild_1w, &rebuild);

    let mut scratch = PriceScratch::default();
    let price: Vec<f64> = sample(cfg.warmup, cfg.reps, || {
        std::hint::black_box(tree.price(2 * s, Mac::default(), &mut scratch));
    })
    .into_iter()
    .map(|s| s * 1e3)
    .collect();

    let snapshot = gather(&SnapshotParts {
        tree: Some(&tree),
        lists: Some(plan.lists()),
        counts: Some(plan.counts()),
        ..Default::default()
    });
    Scenario {
        name: "tree_maintenance".to_string(),
        params: obj(vec![
            ("n", Json::F64(cfg.n_rebin as f64)),
            ("distribution", Json::Str("plummer".to_string())),
            ("s", Json::F64(s as f64)),
        ]),
        metrics: vec![
            Metric::wall("rebin_ns_per_body", "ns", samples, cfg.seed),
            Metric::wall("rebin_1w_ns_per_body", "ns", samples_1w, cfg.seed).informational(),
            Metric::wall("rebin_speedup", "x", speedup, cfg.seed)
                .higher_is_better()
                .informational(),
            Metric::wall("sort_leaves_ns_per_body", "ns", sort, cfg.seed).informational(),
            Metric::virtual_point("rebin_leavers_frac", "ratio", leavers_frac).informational(),
            Metric::wall("refresh_ms", "ms", refresh, cfg.seed),
            Metric::wall("refresh_flip_ms", "ms", refresh_flip, cfg.seed).informational(),
            Metric::virtual_point("flips_per_breath", "count", flips_per_breath).informational(),
            Metric::wall("plan_rebuild_ms", "ms", rebuild, cfg.seed),
            Metric::wall("plan_rebuild_1w_ms", "ms", rebuild_1w, cfg.seed).informational(),
            Metric::wall("plan_rebuild_speedup", "x", rebuild_speedup, cfg.seed)
                .higher_is_better()
                .informational(),
            Metric::wall("price_ms", "ms", price, cfg.seed).informational(),
        ],
        snapshot,
    }
}

/// Hops that move populations without emptying or filling a visible cell:
/// the first body of every seventh leaf holding two or more goes to the spot
/// of the last body of the next such leaf, which stays.
fn hops(tree: &Octree, pos: &[Vec3]) -> Vec<(usize, Vec3)> {
    let busy: Vec<NodeId> = tree
        .visible_leaves()
        .into_iter()
        .filter(|&id| tree.node(id).count() >= 2)
        .step_by(7)
        .collect();
    let body = |i: u32| tree.order()[i as usize] as usize;
    busy.iter()
        .zip(busy.iter().skip(1))
        .map(|(&from, &to)| {
            (
                body(tree.node(from).begin),
                pos[body(tree.node(to).end - 1)],
            )
        })
        .collect()
}

/// The visible leaf that holds each body, by body id.
fn leaf_of(tree: &Octree) -> Vec<NodeId> {
    let mut leaf = vec![Octree::ROOT; tree.num_bodies()];
    for id in tree.visible_leaves() {
        for i in tree.node(id).range() {
            leaf[tree.order()[i] as usize] = id;
        }
    }
    leaf
}

/// Targets the `accuracy` scenario checks against direct summation.
const ACCURACY_TARGETS: usize = 512;

/// **accuracy** — the digits the solve keeps: the relative L2 field error
/// against direct summation on a fixed sample of [`ACCURACY_TARGETS`]
/// bodies, for both kernels at S ∈ {16, 96, 512} (order 6, θ = 0.6), on
/// three distributions: a Plummer sphere (rows `gravity_*`/`stokeslet_*`),
/// a uniform cube (`uniform_*`) and two separated Plummer spheres
/// (`two_clusters_*`). A solve's bits do not depend on the host or its
/// width, so each error is an exact `virtual` point, and it is gated: a
/// change that trades digits for speed fails `compare` the way a slower
/// kernel does. The snapshot describes the Plummer gravity solve at S = 512.
fn accuracy(cfg: &SuiteConfig) -> Scenario {
    let n = cfg.n_solve;
    let forces = nbody::random_unit_forces(n, cfg.seed + 12);
    let targets: Vec<usize> = (0..ACCURACY_TARGETS)
        .map(|k| k * n / ACCURACY_TARGETS)
        .collect();
    let stokes = StokesletKernel::new(1e-3, 1.0);
    let distributions = [
        ("", nbody::plummer(n, 1.0, 1.0, cfg.seed + 11)),
        ("uniform_", nbody::uniform_cube(n, 1.0, cfg.seed + 13)),
        (
            "two_clusters_",
            nbody::two_clusters(n, 0.5, 1.0, 6.0, 0.0, cfg.seed + 14),
        ),
    ];
    let mut metrics = Vec::new();
    let mut plummer_engine = None;
    for (prefix, b) in &distributions {
        let kernel = GravityKernel::default();
        let (rows, engine) = field_errors(
            &format!("{prefix}gravity"),
            kernel,
            &b.pos,
            &b.mass,
            &targets,
        );
        metrics.extend(rows);
        plummer_engine.get_or_insert(engine);
        let name = format!("{prefix}stokeslet");
        metrics.extend(field_errors(&name, stokes, &b.pos, &forces, &targets).0);
    }
    let engine = plummer_engine.expect("three distributions");

    let snapshot = gather(&SnapshotParts {
        tree: Some(engine.tree()),
        lists: Some(engine.lists()),
        counts: Some(engine.counts()),
        ..Default::default()
    });
    Scenario {
        name: "accuracy".to_string(),
        params: obj(vec![
            ("n", Json::F64(n as f64)),
            (
                "distributions",
                Json::Str("plummer uniform two_clusters".to_string()),
            ),
            ("targets", Json::F64(ACCURACY_TARGETS as f64)),
        ]),
        metrics,
        snapshot,
    }
}

/// `{name}_s{S}_rel_err` for S ∈ {16, 96, 512}, and the last engine solved.
/// The direct sum visits each target's own index under the kernel's
/// self-tile rule, as the solve's near field does.
fn field_errors<K: Kernel + Copy>(
    name: &str,
    kernel: K,
    pos: &[Vec3],
    strength: &[f64],
    targets: &[usize],
) -> (Vec<Metric>, FmmEngine<K>) {
    let sd = kernel.strength_dim();
    let direct: Vec<Vec3> = targets
        .iter()
        .map(|&i| {
            let (t, mut pot, mut field) = (&pos[i..=i], [0.0], [Vec3::ZERO]);
            let (before, after) = (i * sd, (i + 1) * sd);
            kernel.p2p(
                t,
                &mut pot,
                &mut field,
                &pos[..i],
                &strength[..before],
                false,
            );
            kernel.p2p(t, &mut pot, &mut field, t, &strength[before..after], true);
            kernel.p2p(
                t,
                &mut pot,
                &mut field,
                &pos[i + 1..],
                &strength[after..],
                false,
            );
            field[0]
        })
        .collect();
    let norm: f64 = direct.iter().map(|d| d.norm_sq()).sum();
    let mut last = None;
    let metrics = [16usize, 96, 512]
        .map(|s| {
            let mut engine = FmmEngine::new(kernel, FmmParams::default(), pos, s);
            let field = engine.solve(pos, strength).field;
            let err: f64 = targets
                .iter()
                .zip(&direct)
                .map(|(&i, d)| (field[i] - *d).norm_sq())
                .sum();
            last = Some(engine);
            Metric::virtual_point(&format!("{name}_s{s}_rel_err"), "rel", (err / norm).sqrt())
        })
        .to_vec();
    (metrics, last.expect("three leaf capacities"))
}
