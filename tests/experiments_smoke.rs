//! Shape-level regression tests of every experiment harness's core logic at
//! tiny scale: if the code drifts in a way that would flip a paper
//! conclusion, these fail long before anyone re-runs the full harnesses.

use afmm_repro::prelude::*;
use fmm_math::Kernel;
use octree::{build_uniform, count_ops, dual_traversal};

fn flops() -> fmm_math::OpFlops {
    GravityKernel::default().op_flops(&ExpansionOps::new(FmmParams::default().order))
}

fn time_tree(tree: &Octree, node: &HeteroNode) -> afmm::TimingReport {
    let lists = dual_traversal(tree, Mac::default());
    afmm::time_step(tree, &lists, &flops(), node, afmm::ExecPolicy::default()).unwrap()
}

/// Fig 3's essence: on an adaptive tree, CPU cost falls and GPU cost rises
/// (in the post-knee regime) as S grows; the crossover is interior.
#[test]
fn fig3_shape_adaptive_costs_cross_smoothly() {
    let b = nbody::plummer(20_000, 1.0, 1.0, 4001);
    let node = HeteroNode::system_a(10, 4);
    let mut prev_cpu = f64::INFINITY;
    let mut series = Vec::new();
    for s in [32usize, 91, 256, 724, 2048] {
        let tree = build_adaptive(&b.pos, BuildParams::with_s(s));
        let t = time_tree(&tree, &node);
        assert!(t.t_cpu < prev_cpu, "t_cpu must fall with S");
        prev_cpu = t.t_cpu;
        series.push(t);
    }
    // GPU cost must rise across the upper range.
    assert!(series.last().unwrap().t_gpu > series[1].t_gpu);
    // Crossover: CPU dominates at the left end, GPU at the right end.
    assert!(series[0].t_cpu > series[0].t_gpu);
    let last = series.last().unwrap();
    assert!(last.t_gpu > last.t_cpu);
}

/// Fig 4's essence: the uniform decomposition only offers a handful of
/// discrete operating points with large jumps.
#[test]
fn fig4_shape_uniform_gap_has_jumps() {
    let b = nbody::uniform_cube(20_000, 1.0, 4002);
    let node = HeteroNode::system_a(10, 4);
    let mut computes = Vec::new();
    for depth in [2u16, 3, 4] {
        let tree = build_uniform(&b.pos, depth, 1e-6);
        computes.push(time_tree(&tree, &node).compute());
    }
    // Neighbouring levels differ by large factors — the "gap".
    for w in computes.windows(2) {
        let ratio = (w[0] / w[1]).max(w[1] / w[0]);
        assert!(ratio > 2.0, "uniform levels too close: {computes:?}");
    }
}

/// Fig 6's essence: CPU speedup grows with cores and saturates below
/// perfect efficiency at 32.
#[test]
fn fig6_shape_cpu_scaling() {
    let b = nbody::plummer(30_000, 1.0, 1.0, 4003);
    let tree = build_adaptive(&b.pos, BuildParams::with_s(64));
    let t1 = time_tree(&tree, &HeteroNode::system_b(1)).t_cpu;
    let mut prev = f64::INFINITY;
    for cores in [1usize, 4, 16, 32] {
        let t = time_tree(&tree, &HeteroNode::system_b(cores)).t_cpu;
        assert!(t < prev);
        prev = t;
    }
    let t32 = time_tree(&tree, &HeteroNode::system_b(32)).t_cpu;
    let speedup = t1 / t32;
    assert!((20.0..32.0).contains(&speedup), "32-core speedup {speedup}");
}

/// Table I's essence: GPU time scales near-linearly 1→4 devices.
#[test]
fn table1_shape_gpu_scaling() {
    let b = nbody::plummer(30_000, 1.0, 1.0, 4004);
    let tree = build_adaptive(&b.pos, BuildParams::with_s(256));
    let t1 = time_tree(&tree, &HeteroNode::system_a(10, 1)).t_gpu;
    let t4 = time_tree(&tree, &HeteroNode::system_a(10, 4)).t_gpu;
    let speedup = t1 / t4;
    assert!((3.3..4.05).contains(&speedup), "4-GPU speedup {speedup}");
}

/// Fig 7's essence: the heterogeneous node crushes the serial baseline, and
/// more hardware helps.
#[test]
fn fig7_shape_hetero_speedup() {
    let b = nbody::plummer(30_000, 1.0, 1.0, 4005);
    let grid = [32usize, 91, 256, 724, 2048];
    let best = |node: &HeteroNode| {
        grid.iter()
            .map(|&s| {
                let tree = build_adaptive(&b.pos, BuildParams::with_s(s));
                time_tree(&tree, node).compute()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let serial = best(&HeteroNode::serial());
    let small = best(&HeteroNode::system_a(4, 1));
    let big = best(&HeteroNode::system_a(10, 4));
    assert!(small < serial / 10.0, "4C1G should beat serial by >10x");
    assert!(big < small, "10C4G should beat 4C1G");
    assert!(serial / big > 30.0, "10C4G speedup {}", serial / big);
}

/// Fig 10's essence: at an S on the uniform-gap boundary (where one whole
/// level is slightly too coarse and the next slightly too fine), FGO's
/// local edits lower the predicted (and realized) compute time.
#[test]
fn fig10_shape_fgo_bridges_the_gap() {
    let b = nbody::uniform_cube(50_000, 1.0, 48); // the fig10 harness workload
    let node = HeteroNode::system_a(10, 4);
    let mut engine = FmmEngine::new(
        StokesletKernel::new(1e-3, 1.0),
        FmmParams::default(),
        &b.pos,
        // On the boundary; the harness's balancer settles at 797 instead
        // (results/fig10.tsv), the priced crossing, where FGO finds no gap.
        899,
    );
    let counts = engine.refresh_lists();
    let f =
        StokesletKernel::new(1e-3, 1.0).op_flops(&ExpansionOps::new(FmmParams::default().order));
    let timing = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &f,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    let mut model = CostModel::new();
    model.observe(&counts, &timing, &f, &node);
    let before = model.predict(&counts, &node);
    let out = afmm::fine_grained_optimize(&mut engine, &model, &node);
    assert!(
        out.prediction.compute() < 0.97 * before.compute(),
        "FGO should bridge the uniform gap: {} !< {}",
        out.prediction.compute(),
        before.compute()
    );
    let realized = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &f,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    assert!(realized.compute() < timing.compute());
}

/// The §VIII.E extension's essence: offloading P2M/L2P helps a CPU-starved
/// node and leaves a GPU-bound one untouched.
#[test]
fn extension_shape_offload() {
    let b = nbody::plummer(30_000, 1.0, 1.0, 4007);
    let tree = build_adaptive(&b.pos, BuildParams::with_s(256));
    let lists = dual_traversal(&tree, Mac::default());
    let f = flops();
    let starved = HeteroNode::system_a(2, 4);
    let base = afmm::time_step(&tree, &lists, &f, &starved, afmm::ExecPolicy::default()).unwrap();
    let off = afmm::time_step(
        &tree,
        &lists,
        &f,
        &starved,
        afmm::ExecPolicy { offload_pl: true },
    )
    .unwrap();
    assert!(off.t_cpu < base.t_cpu);
    assert!(off.t_gpu >= base.t_gpu);
}

/// Ops accounting sanity shared by every harness: counts recomputed on the
/// same tree are stable and proportional quantities move the right way.
#[test]
fn harness_accounting_invariants() {
    let b = nbody::plummer(10_000, 1.0, 1.0, 4008);
    let coarse = build_adaptive(&b.pos, BuildParams::with_s(512));
    let fine = build_adaptive(&b.pos, BuildParams::with_s(32));
    let mac = Mac::default();
    let cc = count_ops(&coarse, &dual_traversal(&coarse, mac));
    let cf = count_ops(&fine, &dual_traversal(&fine, mac));
    assert!(cc.p2p_interactions > cf.p2p_interactions);
    assert!(cc.m2l_ops < cf.m2l_ops);
    assert_eq!(cc.p2m_bodies, cf.p2m_bodies);
    assert!(cc.active_nodes < cf.active_nodes);
}
