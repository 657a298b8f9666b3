use super::*;
use crate::config::FmmParams;
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
        let b = plummer(n, 1.0, 1.0, 401);
        let engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s0);
        Harness {
            engine,
            model: CostModel::new(),
            node,
            pos: b.pos,
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
fn search_converges_to_crossover() {
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    let mut lb = LoadBalancer::new(Strategy::Full, cfg_for_tests());
    h.engine.rebuild(&h.pos.clone(), lb.s());
    let mut steps = 0;
    while lb.state() == LbState::Search && steps < 25 {
        let (tc, tg) = h.measure();
        let pos = h.pos.clone();
        lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
        steps += 1;
    }
    assert!(steps < 25, "binary search did not converge");
    assert_ne!(lb.state(), LbState::Search);
    // At the S the search settled on, CPU and GPU times are of the same
    // order (within the bracket resolution).
    let (tc, tg) = h.measure();
    let ratio = tc.max(tg) / tc.min(tg).max(1e-12);
    assert!(
        ratio < 4.0,
        "crossover imbalance ratio {ratio} (tc={tc}, tg={tg})"
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
    let mut h = Harness::new(6000, HeteroNode::system_a(10, 2), 64);
    // Deliberately imbalanced tree: far too coarse (GPU overloaded).
    h.engine.rebuild(&h.pos.clone(), 1024);
    h.measure();
    let counts = h.engine.refresh_lists();
    let before = h.model.predict(&counts, &h.node);
    let out = fine_grained_optimize(&mut h.engine, &h.model, &h.node);
    assert!(
        out.prediction.compute() <= before.compute() * (1.0 + 1e-9),
        "FGO worsened prediction: {} -> {}",
        before.compute(),
        out.prediction.compute()
    );
    assert!(out.lb_time > 0.0);
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
    let (tc, tg) = h.measure();
    let pos = h.pos.clone();
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_eq!(
        lb.state(),
        LbState::Recovery,
        "dropout must trigger recovery"
    );
    // The warm bisection plus the bidirectional Incremental walk must
    // terminate back in Observation.
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

/// Step `h` once from `from` (Search or Recovery): the balancer must leave
/// it within that one `post_step`, rebuilt once at its last priced
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
    for e in priced {
        let s = e.field_u64("s").unwrap() as usize;
        let (counts, entries) = measured.price(s, mac, &mut scratch);
        assert_eq!(e.field_u64("entries"), Some(entries as u64), "S {s}");
        let pred = h.model.predict(&counts, &h.node);
        assert_eq!(e.field_f64("pred_cpu"), Some(pred.t_cpu), "S {s}");
        assert_eq!(e.field_f64("pred_gpu"), Some(pred.t_gpu), "S {s}");
        want += lbtime::predict(&h.node, entries);
    }
    want += lbtime::rebuild(&h.node, pos.len());
    assert_eq!(rep.lb_time, want);
    let last = priced.last().unwrap().field_u64("s").unwrap() as usize;
    assert_eq!((lb.s(), h.engine.tree().s_value()), (last, last));
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
    let (tc, tg) = h.measure();
    let pos = h.pos.clone();
    lb.post_step(&mut h.engine, &h.model, &h.node, &pos, tc, tg);
    assert_priced_in_one_step(&mut h, &mut lb, &rec, LbState::Recovery);
    let bracket = (settled / 8).max(lb.cfg.s_min)..=settled * 8;
    assert!(bracket.contains(&lb.s()), "S {} left {bracket:?}", lb.s());
}
