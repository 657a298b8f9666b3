//! A guided tour of the load balancer's machinery on one workload:
//! binary Search → Incremental → Observation, a deliberate disturbance, the
//! Enforce_S response, and a hand-invoked FineGrainedOptimize with its
//! cost-model prediction — every moving part of the paper's §IV–VII in one
//! sitting.
//!
//! Run with: `cargo run --release --example balancer_tour`

use afmm_repro::prelude::*;
use fmm_math::Kernel;

fn main() {
    let n = 30_000;
    let bodies = nbody::plummer(n, 1.0, 1.0, 29);
    let node = HeteroNode::system_a(10, 2);
    let params = FmmParams::default();
    let cfg = LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    };

    let mut engine = FmmEngine::new(GravityKernel::default(), params, &bodies.pos, 181);
    let mut model = CostModel::new();
    let mut balancer = LoadBalancer::new(Strategy::Full, cfg);
    let flops = engine.kernel.op_flops(engine.expansion_ops());

    println!("== phase 1: the state machine finds the balanced S ==");
    println!("step  state         S      t_cpu     t_gpu");
    let mut pos = bodies.pos.clone();
    for step in 0..20 {
        let counts = engine.refresh_lists();
        let timing = afmm::time_step(
            engine.tree(),
            engine.lists(),
            &flops,
            &node,
            afmm::ExecPolicy::default(),
        )
        .unwrap();
        model.observe(&counts, &timing, &flops, &node);
        println!(
            "{step:4}  {:12} {:5}  {:.5} s {:.5} s",
            balancer.state().name(),
            engine.tree().s_value(),
            timing.t_cpu,
            timing.t_gpu
        );
        balancer.post_step(&mut engine, &model, &node, &pos, timing.t_cpu, timing.t_gpu);
        if balancer.state() == LbState::Observation {
            break;
        }
    }
    println!(
        "settled at S = {} in state '{}'\n",
        engine.tree().s_value(),
        balancer.state().name()
    );

    println!("== phase 2: disturb the distribution, watch Enforce_S repair it ==");
    // Crush half the cloud into a dense knot: leaves overflow.
    for (i, p) in pos.iter_mut().enumerate() {
        if i % 2 == 0 {
            *p = *p * 0.08 + Vec3::new(2.0, 2.0, 2.0);
        }
    }
    engine.rebin(&pos);
    let counts = engine.refresh_lists();
    let timing = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &flops,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    println!(
        "after disturbance: compute {:.5} s (best was {:.5} s)",
        timing.compute(),
        balancer.best_compute()
    );
    let before_nodes = engine.tree().visible_nodes().len();
    let rep = balancer.post_step(&mut engine, &model, &node, &pos, timing.t_cpu, timing.t_gpu);
    println!(
        "balancer response: enforced={}, fgo_rounds={}, lb_time={:.5} s, visible nodes {} -> {}",
        rep.enforced,
        rep.fgo_rounds,
        rep.lb_time,
        before_nodes,
        engine.tree().visible_nodes().len()
    );
    let after = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &flops,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    println!("compute after repair: {:.5} s\n", after.compute());
    let _ = counts;

    println!("== phase 3: FineGrainedOptimize, by hand ==");
    // Deliberately over-coarse tree: the GPU drowns in direct work.
    engine.rebuild(&pos, 1024);
    let counts = engine.refresh_lists();
    let timing = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &flops,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    model.observe(&counts, &timing, &flops, &node);
    let before = model.predict(&counts, &node);
    println!(
        "over-coarse tree (S=1024): predicted cpu {:.5} s, gpu {:.5} s",
        before.t_cpu, before.t_gpu
    );
    let out = fine_grained_optimize(&mut engine, &model, &node);
    println!(
        "FGO ran {} batch(es) in {:.5} s of LB time; predicted cpu {:.5} s, gpu {:.5} s",
        out.rounds, out.lb_time, out.prediction.t_cpu, out.prediction.t_gpu
    );
    let realized = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &flops,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    println!(
        "realized after FGO: cpu {:.5} s, gpu {:.5} s (prediction error {:.1}%)",
        realized.t_cpu,
        realized.t_gpu,
        100.0 * (out.prediction.compute() - realized.compute()).abs() / realized.compute()
    );
}
