use super::states::crossing_root;
use super::*;
use crate::config::FmmParams;
use crate::cost::Prediction;
use fmm_math::{GravityKernel, Kernel};
use nbody::plummer;

struct Harness {
    engine: FmmEngine<GravityKernel>,
    model: CostModel,
    node: HeteroNode,
    pos: Vec<geom::Vec3>,
}

impl Harness {
    fn new(n: usize, node: HeteroNode, s0: usize) -> Self {
        Self::with_pos(plummer(n, 1.0, 1.0, 401).pos, None, node, s0)
    }

    /// Over `pos`, in the fixed cube `domain` (center, half-width) or,
    /// without one, in the cube fitted to the bodies.
    fn with_pos(
        pos: Vec<geom::Vec3>,
        domain: Option<(geom::Vec3, f64)>,
        node: HeteroNode,
        s0: usize,
    ) -> Self {
        let (kernel, params) = (GravityKernel::default(), FmmParams::default());
        let engine = match domain {
            Some((c, hw)) => FmmEngine::with_domain(kernel, params, &pos, s0, c, hw),
            None => FmmEngine::new(kernel, params, &pos, s0),
        };
        Harness {
            engine,
            model: CostModel::new(),
            node,
            pos,
        }
    }

    /// One timing-only step: refresh, time, observe. Returns (cpu, gpu).
    fn measure(&mut self) -> (f64, f64) {
        let counts = self.engine.refresh_lists();
        let flops = self.engine.kernel.op_flops(self.engine.expansion_ops());
        let t = self.engine.time_step(&flops, &self.node).unwrap();
        self.model.observe(&counts, &t, &flops, &self.node);
        (t.t_cpu, t.t_gpu)
    }
}

fn cfg_for_tests() -> LbConfig {
    // The scaled-down workloads run in milliseconds, so scale the
    // paper's 0.15 s switching threshold accordingly.
    LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    }
}

#[test]
fn search_settles_no_worse_than_the_crossover() {
    // At 6k on 10C2G the crossover of t_cpu and t_gpu is not the optimum
    // (GPU time keeps falling as leaves fill their blocks), so the walk
    // that follows Search must settle at least as well as the crossover.
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    let mut steps = 0;
    while lb.state() != LbState::Observation && steps < 25 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        steps += 1;
    }
    assert_eq!(
        lb.state(),
        LbState::Observation,
        "no settle in {steps} steps"
    );
    let (tc, tg) = h.measure();
    let settled = tc.max(tg);
    // The crossover, measured: the two ×1.6 grid points around the first
    // S at which the GPU dominates, and the better of them.
    let pos = h.pos.clone();
    let mut below = None;
    let mut s = lb.cfg.s_min;
    let crossover = loop {
        assert!(s <= lb.cfg.s_max, "no crossover on the grid");
        h.engine.rebuild(&pos, s);
        let (tc, tg) = h.measure();
        if tg >= tc {
            break below.map_or(tg, |b: f64| b.min(tg));
        }
        below = Some(tc);
        s = (s as f64 * 1.6).ceil() as usize;
    };
    assert!(
        settled <= crossover,
        "settled at S {} with {settled} s, crossover {crossover} s",
        lb.s()
    );
}

#[test]
fn search_typically_short_like_paper() {
    // Paper: "this state typically persists for fewer than 15 time
    // steps".
    let mut h = Harness::new(4000, HeteroNode::system_a(10, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    let mut steps = 0;
    while lb.state() == LbState::Search {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        steps += 1;
        assert!(steps <= 15, "search ran {steps} steps");
    }
}

#[test]
fn static_strategy_freezes_after_search() {
    let mut h = Harness::new(2000, HeteroNode::system_a(4, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::StaticS, cfg_for_tests());
    for _ in 0..30 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Frozen {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Frozen);
    // Frozen: no further tree modifications whatever the times.
    let nodes = h.engine.tree().num_nodes();
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, 100.0, 1.0);
    assert_eq!(rep.lb_time, 0.0);
    assert!(!rep.rebuilt && !rep.enforced);
    assert_eq!(h.engine.tree().num_nodes(), nodes);
}

#[test]
fn cpu_only_node_skips_search() {
    let mut h = Harness::new(1000, HeteroNode::serial(), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let (tc, tg) = h.measure();
    let pos = h.pos.clone();
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_ne!(lb.state(), LbState::Search);
}

#[test]
fn fgo_never_worsens_predicted_compute() {
    // The model is FGO's only judge: a batch it does not price lower is
    // reverted. Over three distributions, two machines and leaf
    // capacities from far too fine to far too coarse, the tree FGO leaves
    // is priced no dearer and measures no slower than the one it started
    // from. The collapsing cloud sits in its fixed cube, 1/64th of it.
    let n = 6000;
    let collapsing = nbody::collapsing_plummer(n, 1.0, 401);
    let dists = [
        ("plummer", plummer(n, 1.0, 1.0, 401).pos, None),
        ("uniform", nbody::uniform_cube(n, 1.0, 401).pos, None),
        (
            "collapsing",
            collapsing.bodies.pos,
            Some((collapsing.domain_center, collapsing.domain_half_width)),
        ),
    ];
    for (name, pos, domain) in &dists {
        for node in [HeteroNode::system_a(10, 2), HeteroNode::system_a(4, 4)] {
            for s in [12, 128, 1024] {
                let mut h = Harness::with_pos(pos.clone(), *domain, node.clone(), s);
                let measured = |(tc, tg): (f64, f64)| tc.max(tg);
                let before = measured(h.measure());
                let counts = h.engine.refresh_lists();
                let priced = h.model.predict(&counts, &h.node);
                let out = fine_grained_optimize(&mut h.engine, &h.model, &h.node);
                let after = measured(h.measure());
                let case = format!("{name}, {} GPUs, S {s}", h.node.num_gpus());
                assert!(
                    out.prediction.compute() <= priced.compute(),
                    "{case}: FGO worsened the price {} -> {}",
                    priced.compute(),
                    out.prediction.compute()
                );
                assert!(
                    after <= before,
                    "{case}: FGO worsened the step {before} -> {after}"
                );
                assert!(out.lb_time > 0.0);
            }
        }
    }
}

#[test]
fn fgo_bridges_gpu_overload_with_pushdowns() {
    // Needs enough bodies that splitting a batch of neighbouring heavy
    // leaves converts P2P pairs into M2L (both sides of a pair must
    // refine); below ~15k bodies the batches cannot bite.
    let mut h = Harness::new(20000, HeteroNode::system_a(10, 2), 64);
    h.engine.rebuild(&h.pos.clone(), 1024);
    h.measure();
    let counts = h.engine.refresh_lists();
    let before = h.model.predict(&counts, &h.node);
    assert!(!before.cpu_dominant(), "setup should be GPU-bound");
    let out = fine_grained_optimize(&mut h.engine, &h.model, &h.node);
    assert!(out.rounds > 0, "expected at least one pushdown batch");
    assert!(
        out.prediction.t_gpu < before.t_gpu,
        "pushdowns must shed GPU work"
    );
    h.engine.tree().check_invariants().unwrap();
}

#[test]
fn fgo_bridges_cpu_overload_with_collapses() {
    let mut h = Harness::new(6000, HeteroNode::system_a(4, 4), 64);
    h.engine.rebuild(&h.pos.clone(), 12);
    h.measure();
    let counts = h.engine.refresh_lists();
    let before = h.model.predict(&counts, &h.node);
    assert!(before.cpu_dominant(), "setup should be CPU-bound");
    let out = fine_grained_optimize(&mut h.engine, &h.model, &h.node);
    assert!(out.rounds > 0, "expected at least one collapse batch");
    assert!(
        out.prediction.t_cpu < before.t_cpu,
        "collapses must shed CPU work"
    );
    h.engine.tree().check_invariants().unwrap();
}

#[test]
fn fgo_patches_live_plan_instead_of_rebuilding() {
    // With a live plan, FGO's batched edits must keep the plan alive (its
    // lists stay equal to a fresh traversal) and the engine must report the
    // patch path to the cost accounting.
    let mut h = Harness::new(20000, HeteroNode::system_a(10, 2), 64);
    h.engine.rebuild(&h.pos.clone(), 1024);
    h.measure();
    assert!(
        h.engine.plan_epoch().is_some(),
        "measure() must leave a live plan"
    );
    let out = fine_grained_optimize(&mut h.engine, &h.model, &h.node);
    assert!(out.rounds > 0);
    assert!(
        h.engine.plan_epoch().is_some(),
        "FGO must not invalidate the plan"
    );
    let patched = h.engine.counts();
    let fresh = {
        let lists = octree::dual_traversal(h.engine.tree(), h.engine.params().mac);
        octree::count_ops(h.engine.tree(), &lists)
    };
    assert_eq!(
        patched, fresh,
        "patched plan counts diverged from fresh traversal"
    );
}

#[test]
fn enforce_only_resets_best_after_enforce() {
    let mut h = Harness::new(2000, HeteroNode::system_a(4, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::EnforceOnly, cfg_for_tests());
    // Drive through search.
    for _ in 0..25 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
    let best = lb.best_compute();
    // Report a big regression: must enforce and arm the best reset.
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, best * 3.0, 0.0);
    assert!(rep.enforced);
    // Next step's compute becomes the new best, even though it is worse
    // than the old best.
    let new_compute = best * 1.5;
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, new_compute, 0.0);
    assert_eq!(lb.best_compute(), new_compute);
}

#[test]
fn observation_is_quiet_within_tolerance() {
    let mut h = Harness::new(2000, HeteroNode::system_a(4, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    for _ in 0..30 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
    let best = lb.best_compute();
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, best * 1.02, 0.0);
    assert_eq!(rep.lb_time, 0.0, "within 5%: no action");
    assert!(!rep.enforced && !rep.rebuilt);
}

#[test]
fn observation_enforce_takes_patch_path_with_live_plan() {
    let mut h = Harness::new(2000, HeteroNode::system_a(4, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::EnforceOnly, cfg_for_tests());
    for _ in 0..30 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
    // measure() refreshed the plan; a regression-triggered Enforce_S must
    // patch it rather than invalidate it.
    h.measure();
    assert!(h.engine.plan_epoch().is_some());
    let best = lb.best_compute();
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, best * 3.0, 0.0);
    assert!(rep.enforced);
    assert!(rep.patched, "live plan: enforce must take the patch path");
    assert!(h.engine.plan_epoch().is_some());
}

#[test]
fn incremental_probe_charges_patch_not_rebuild() {
    // Drive a Full balancer out of Search; the Incremental probes must ride
    // the live plan (rebin + enforce + patch) instead of full rebuilds.
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    for _ in 0..25 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Incremental {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Incremental);
    let (tc, tg) = h.measure();
    assert!(h.engine.plan_epoch().is_some());
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    if lb.state() == LbState::Incremental {
        assert!(!rep.rebuilt, "probe must not rebuild with a live plan");
        assert!(rep.patched, "probe must take the patch path");
        assert!(rep.enforced);
        assert!(rep.lb_time > 0.0);
        // The patched probe must be charged less than a rebuild would be.
        assert!(
            rep.lb_time < lbtime::rebuild(&h.node, pos.len()),
            "patch path charged {} >= rebuild {}",
            rep.lb_time,
            lbtime::rebuild(&h.node, pos.len())
        );
    }
}

#[test]
fn device_dropout_enters_recovery_then_settles() {
    let mut h = Harness::new(4000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    for _ in 0..40 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
    // GPU 1 drops out.
    h.node
        .gpus
        .as_mut()
        .unwrap()
        .apply_event(&gpu_sim::FaultEvent::GpuDropout { device: 1 })
        .unwrap();
    let rec = telemetry::Recorder::enabled();
    lb.set_recorder(rec.clone());
    let (tc, tg) = h.measure();
    let pos = h.pos.clone();
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_eq!(
        rec.events_named("lb.recovery").len(),
        1,
        "dropout must trigger recovery"
    );
    assert_eq!(
        lb.state(),
        LbState::Incremental,
        "the warm search runs in the step that sees the dropout"
    );
    // The bidirectional Incremental walk must terminate back in
    // Observation.
    for _ in 0..60 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
}

#[test]
fn all_devices_lost_falls_back_to_cpu_only_plan() {
    let mut h = Harness::new(2000, HeteroNode::system_a(4, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    for _ in 0..40 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    h.node
        .gpus
        .as_mut()
        .unwrap()
        .apply_event(&gpu_sim::FaultEvent::GpuDropout { device: 0 })
        .unwrap();
    let (tc, tg) = h.measure();
    assert_eq!(tg, 0.0, "no online devices: all work on the CPU");
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert!(rep.rebuilt, "CPU fallback re-plans the tree");
    assert!(rep.lb_time > 0.0, "the fallback sweep is not free");
    assert_eq!(lb.state(), LbState::Observation);
    // Further CPU-only steps run quietly.
    let (tc, tg) = h.measure();
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_eq!(lb.state(), LbState::Observation);
}

#[test]
fn cpu_only_s_sweep_finds_interior_optimum() {
    let mut h = Harness::new(3000, HeteroNode::serial(), 32);
    let cfg = LbConfig::default();
    let pos = h.pos.clone();
    let (s, t, probes) = search_best_s_cpu_only(&mut h.engine, &h.node, &pos, &cfg);
    assert!(t > 0.0);
    // One rebuild per point of the ×1.6 grid from s_min to s_max.
    let grid = std::iter::successors(Some(cfg.s_min), |&s| {
        Some(((s as f64 * 1.6).ceil() as usize).max(s + 1))
    })
    .take_while(|&s| s <= cfg.s_max);
    assert_eq!(probes, grid.count());
    assert!(
        s > cfg.s_min && s < cfg.s_max,
        "serial-optimal S should be interior, got {s}"
    );
    // Endpoint trees must be slower.
    let flops = h.engine.kernel.op_flops(h.engine.expansion_ops());
    for probe in [cfg.s_min, cfg.s_max] {
        h.engine.rebuild(&pos, probe);
        let tp = h.engine.time_step(&flops, &h.node).unwrap().compute();
        assert!(tp >= t, "S={probe} beat the sweep optimum");
    }
}

/// Step `h` once from `from`, in which it searches (cold from Search, warm
/// when the device count just changed): the balancer must finish the search
/// within that one `post_step`, rebuilt once at its cheapest priced
/// candidate. Each `lb.price` event must name what `Octree::price` gives on
/// the tree the step measured, and the step's LB time must be one
/// prediction pass per candidate, in order, plus one rebuild.
fn assert_priced_in_one_step(
    h: &mut Harness,
    lb: &mut LoadBalancer,
    rec: &telemetry::Recorder,
    from: LbState,
) {
    assert_eq!(lb.state(), from);
    let (tc, tg) = h.measure();
    let measured = h.engine.tree().clone();
    let seen = rec.events_named("lb.price").len();
    let pos = h.pos.clone();
    let rep = lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_eq!(lb.state(), LbState::Incremental, "{from:?} took one step");
    assert!(rep.rebuilt);
    let priced = &rec.events_named("lb.price")[seen..];
    assert!(!priced.is_empty(), "{from:?} priced no candidate");
    let mac = h.engine.params().mac;
    let mut scratch = octree::PriceScratch::default();
    let mut want = 0.0;
    let mut cheapest = (0, f64::INFINITY);
    for e in priced {
        let s = e.field_u64("s").unwrap() as usize;
        let (counts, entries) = measured.price(s, mac, &mut scratch);
        assert_eq!(e.field_u64("entries"), Some(entries as u64), "S {s}");
        let pred = h.model.predict(&counts, &h.node);
        assert_eq!(e.field_f64("pred_cpu"), Some(pred.t_cpu), "S {s}");
        assert_eq!(e.field_f64("pred_gpu"), Some(pred.t_gpu), "S {s}");
        want += lbtime::predict(&h.node, entries);
        if pred.compute() < cheapest.1 {
            cheapest = (s, pred.compute());
        }
    }
    want += lbtime::rebuild(&h.node, pos.len());
    assert_eq!(rep.lb_time, want);
    let s = cheapest.0;
    assert_eq!((lb.s(), h.engine.tree().s_value()), (s, s));
    assert_eq!(lb.best_compute(), cheapest.1);
    assert!(
        h.engine.plan_epoch().is_some(),
        "the rebuilt tree has a plan"
    );
}

#[test]
fn search_prices_its_candidates_and_rebuilds_once() {
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let rec = telemetry::Recorder::enabled();
    lb.set_recorder(rec.clone());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    assert_priced_in_one_step(&mut h, &mut lb, &rec, LbState::Search);
}

#[test]
fn recovery_prices_from_its_warm_bracket_and_rebuilds_once() {
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let rec = telemetry::Recorder::enabled();
    lb.set_recorder(rec.clone());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    for _ in 0..40 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        if lb.state() == LbState::Observation {
            break;
        }
    }
    assert_eq!(lb.state(), LbState::Observation);
    let settled = lb.s();
    h.node
        .gpus
        .as_mut()
        .unwrap()
        .apply_event(&gpu_sim::FaultEvent::GpuDropout { device: 1 })
        .unwrap();
    assert_priced_in_one_step(&mut h, &mut lb, &rec, LbState::Observation);
    assert_eq!(rec.events_named("lb.recovery").len(), 1);
    let bracket = (settled / 8).max(lb.cfg.s_min)..=settled * 8;
    assert!(bracket.contains(&lb.s()), "S {} left {bracket:?}", lb.s());
}

#[test]
fn a_priced_step_that_misses_settles_back_at_the_best() {
    // At 3k on 10C4G the price, which has no floor for the SM makespan of
    // a tree of one leaf, says the one-leaf tree is cheapest; the measured
    // step there misses, and the walk settles back at its best.
    let mut h = Harness::new(3000, HeteroNode::system_a(10, 4), 181);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let mut seen = Vec::new();
    while lb.state() != LbState::Observation && seen.len() < 10 {
        let (tc, tg) = h.measure();
        seen.push((lb.s(), tc.max(tg)));
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    }
    assert_eq!(lb.state(), LbState::Observation, "{seen:?}");
    let (best_s, best) =
        seen.iter()
            .copied()
            .fold((0, f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
    let (missed_s, missed) = *seen.last().unwrap();
    assert!(
        missed_s >= h.pos.len(),
        "the last step is the one-leaf tree"
    );
    assert!(missed > best * (1.0 + INCR_TOL), "{seen:?}");
    assert_eq!(lb.s(), best_s);
    let (tc, tg) = h.measure();
    assert_eq!(tc.max(tg), best, "settled on the tree measured best");
}

#[test]
fn the_walk_settles_on_the_measured_crossing() {
    // At 25k on 10C2G the optimum is the crossing of t_cpu and t_gpu, and
    // it lies between two points of a ×1.15 grid. The refinement lands on
    // it: the settled tree measures within 1 % of the best of a ×1.02 grid
    // spanning the crossing's two ×1.15 neighbours. A walk that stops on
    // its own ×1.15 grid settles at S = 242, 2.1 % over.
    let mut h = Harness::new(25_000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    let mut seen = Vec::new();
    while lb.state() != LbState::Observation && seen.len() < 25 {
        let (tc, tg) = h.measure();
        seen.push((lb.s(), tc.max(tg)));
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    }
    assert_eq!(lb.state(), LbState::Observation, "{seen:?}");
    let (tc, tg) = h.measure();
    let settled = tc.max(tg);
    let pos = h.pos.clone();
    let mut at = |s: usize| {
        h.engine.rebuild(&pos, s);
        let (tc, tg) = h.measure();
        (tg >= tc, tc.max(tg))
    };
    // The ×1.15 grid from s_min, and its first GPU-bound point, bisected.
    let grid: Vec<usize> = std::iter::successors(Some(lb.cfg.s_min), |&s| {
        Some((s as f64 * INCR_FACTOR).ceil() as usize)
    })
    .take_while(|&s| s <= lb.cfg.s_max)
    .collect();
    let (mut cpu, mut gpu) = (0, grid.len() - 1);
    assert!(
        !at(grid[cpu]).0 && at(grid[gpu]).0,
        "no crossing on the grid"
    );
    while gpu - cpu > 1 {
        let mid = (cpu + gpu) / 2;
        match at(grid[mid]).0 {
            true => gpu = mid,
            false => cpu = mid,
        }
    }
    let (lo, hi) = (grid[cpu], grid[gpu]);
    let fine = std::iter::successors(Some(lo), |&s| Some((s as f64 * 1.02).ceil() as usize));
    let best = fine
        .take_while(|&s| s < hi)
        .chain([hi])
        .map(|s| (s, at(s).1))
        .fold((0, f64::INFINITY), |a, b| if b.1 < a.1 { b } else { a });
    assert!(
        settled <= best.1 * 1.01,
        "settled at S {} with {settled} s; best in {lo}..={hi} is {best:?}; walk {seen:?}",
        lb.s()
    );
}

#[test]
fn no_crossing_means_no_extra_price() {
    // At 12k on 10C1G (the regime of the benchmark's balanced collapse)
    // Search prices a point on each side of the crossing (38 and 144), but
    // the crossing interpolated between them is not `PRICE_GAIN` below the
    // cheapest point, nor is one in the walk's step. So the refinement
    // prices nothing: each step prices exactly what the rules without it
    // price (pinned here, as they read before it), and given the step's
    // points it names no root.
    let mut h = Harness::new(12_000, HeteroNode::system_a(10, 1), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let rec = telemetry::Recorder::enabled();
    lb.set_recorder(rec.clone());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    let mut steps = Vec::new();
    while lb.state() != LbState::Observation && steps.len() < 10 {
        let (tc, tg) = h.measure();
        let here = h.model.predict(&h.engine.counts(), &h.node);
        let here = (h.engine.tree().s_value(), here);
        let seen = rec.events_named("lb.price").len();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        let events = rec.events_named("lb.price");
        let priced = events[seen..].iter().map(|e| {
            let pred = Prediction {
                t_cpu: e.field_f64("pred_cpu").unwrap(),
                t_gpu: e.field_f64("pred_gpu").unwrap(),
            };
            (e.field_u64("s").unwrap() as usize, pred)
        });
        let points: Vec<_> = std::iter::once(here).chain(priced).collect();
        steps.push(points[1..].iter().map(|&(s, _)| s).collect::<Vec<_>>());
        assert_eq!(crossing_root(&points), None, "{points:?}");
    }
    assert_eq!(lb.state(), LbState::Observation);
    assert_eq!(steps, [vec![38, 144], vec![166, 125]]);
}

#[test]
fn the_refinement_prices_nothing_without_a_crossing_that_pays() {
    let mut h = Harness::new(3000, HeteroNode::system_a(10, 2), 64);
    h.measure();
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    let rec = telemetry::Recorder::enabled();
    lb.set_recorder(rec.clone());
    let p = |t_cpu: f64, t_gpu: f64| Prediction { t_cpu, t_gpu };
    let cases = [
        // CPU-bound everywhere: no neighbour across g = 0.
        vec![(100, p(0.010, 0.005)), (115, p(0.009, 0.005))],
        // Across, but the interpolated crossing (0.00995) is not 1 % below
        // the cheapest point (0.0100).
        vec![(100, p(0.0100, 0.0099)), (115, p(0.0098, 0.0101))],
        // The crossing pays, but its root (125) was priced already.
        vec![
            (100, p(0.012, 0.008)),
            (125, p(0.013, 0.005)),
            (200, p(0.006, 0.014)),
        ],
    ];
    for priced in cases {
        assert_eq!(crossing_root(&priced), None, "{priced:?}");
        let mut grown = priced.clone();
        let mut scratch = octree::PriceScratch::default();
        let mut rep = LbReport::default();
        let root = lb.refine_crossing(
            &mut h.engine,
            &h.model,
            &h.node,
            &mut grown,
            &mut scratch,
            &mut rep,
        );
        assert_eq!(root, None);
        assert_eq!(grown, priced);
        assert_eq!(rep.lb_time, 0.0);
        assert!(rec.events_named("lb.price").is_empty());
    }
    // Where the crossing pays, the root is strictly inside the bracket.
    let pays = [(100, p(0.012, 0.008)), (200, p(0.006, 0.014))];
    assert_eq!(crossing_root(&pays), Some(125));
}
