//! Property-based tests of the workspace's core invariants: decomposition
//! structure under arbitrary maintenance sequences, interaction-list
//! coverage, GPU partitioning, scheduler bounds, and cost-model
//! consistency.

// `afmm::Strategy` (the load-balancing strategy enum) collides with
// proptest's `Strategy` trait, so import the workspace types explicitly.
use afmm_repro::prelude::{
    build_adaptive, BuildParams, CostModel, FmmEngine, FmmParams, GravityKernel, HeteroNode, Mac,
    Octree, SimConfig, TaskGraph, Vec3,
};
use gpu_sim::partition_by_interactions;
use octree::{count_ops, dual_traversal, NodeId};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Vec3>> {
    prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0).prop_map(|(x, y, z)| Vec3::new(x, y, z)),
        8..max_n,
    )
}

/// A random maintenance op to apply to a tree.
#[derive(Clone, Debug)]
enum TreeOp {
    Collapse(usize),
    PushDown(usize),
    EnforceWithS(usize),
    MoveAndRebin(u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<TreeOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(TreeOp::Collapse),
            (0usize..64).prop_map(TreeOp::PushDown),
            (4usize..128).prop_map(TreeOp::EnforceWithS),
            any::<u64>().prop_map(TreeOp::MoveAndRebin),
        ],
        0..12,
    )
}

fn jitter(pos: &mut [Vec3], seed: u64) {
    use rand::prelude::*;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for p in pos {
        *p += Vec3::new(
            rng.random_range(-0.05..0.05),
            rng.random_range(-0.05..0.05),
            rng.random_range(-0.05..0.05),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever maintenance sequence runs, the tree keeps its structural
    /// invariants and every body stays in exactly one visible leaf.
    #[test]
    fn tree_invariants_survive_arbitrary_maintenance(
        pts in arb_points(300),
        s in 4usize..64,
        ops in arb_ops(),
    ) {
        let mut pos = pts;
        let mut tree = build_adaptive(&pos, BuildParams::with_s(s));
        for op in ops {
            match op {
                TreeOp::Collapse(k) => {
                    let nodes = tree.visible_nodes();
                    let id = nodes[k % nodes.len()];
                    tree.collapse(id);
                }
                TreeOp::PushDown(k) => {
                    let leaves = tree.visible_leaves();
                    let id = leaves[k % leaves.len()];
                    tree.push_down(id);
                }
                TreeOp::EnforceWithS(new_s) => {
                    tree.set_s_value(new_s);
                    tree.enforce_s();
                }
                TreeOp::MoveAndRebin(seed) => {
                    jitter(&mut pos, seed);
                    tree.rebin(&pos);
                }
            }
            prop_assert!(tree.check_invariants().is_ok(), "{:?}", tree.check_invariants());
            let covered: usize = tree
                .visible_leaves()
                .iter()
                .map(|&l| tree.node(l).count())
                .sum();
            prop_assert_eq!(covered, pos.len());
        }
    }

    /// The dual traversal covers every ordered body pair exactly once
    /// (P2P xor an M2L ancestor pair) on any tree the maintenance ops can
    /// produce.
    #[test]
    fn traversal_exactly_covers_all_pairs_after_maintenance(
        pts in arb_points(80),
        s in 2usize..24,
        ops in arb_ops(),
        theta in 0.35f64..0.95,
    ) {
        let mut pos = pts;
        let n = pos.len();
        let mut tree = build_adaptive(&pos, BuildParams::with_s(s));
        for op in ops {
            match op {
                TreeOp::Collapse(k) => {
                    let nodes = tree.visible_nodes();
                    tree.collapse(nodes[k % nodes.len()]);
                }
                TreeOp::PushDown(k) => {
                    let leaves = tree.visible_leaves();
                    tree.push_down(leaves[k % leaves.len()]);
                }
                TreeOp::EnforceWithS(new_s) => {
                    tree.set_s_value(new_s);
                    tree.enforce_s();
                }
                TreeOp::MoveAndRebin(seed) => {
                    jitter(&mut pos, seed);
                    tree.rebin(&pos);
                }
            }
        }
        let lists = dual_traversal(&tree, Mac::new(theta));
        let mut cover = vec![0u32; n * n];
        for a in 0..tree.num_nodes() as NodeId {
            let ra = tree.node(a).range();
            for &b in &lists.m2l[a as usize] {
                for i in ra.clone() {
                    for j in tree.node(b).range() {
                        cover[tree.order()[i] as usize * n + tree.order()[j] as usize] += 1;
                    }
                }
            }
            for &b in &lists.p2p[a as usize] {
                for i in ra.clone() {
                    for j in tree.node(b).range() {
                        let (bi, bj) = (tree.order()[i] as usize, tree.order()[j] as usize);
                        if !(a == b && bi == bj) {
                            cover[bi * n + bj] += 1;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(cover[i * n + j], u32::from(i != j), "pair ({}, {})", i, j);
            }
        }
    }

    /// Collapse of a twig (all-leaf children) followed by PushDown restores
    /// the visible structure exactly.
    #[test]
    fn collapse_pushdown_roundtrip_on_twigs(pts in arb_points(400), s in 4usize..32) {
        let mut tree = build_adaptive(&pts, BuildParams::with_s(s));
        let twigs: Vec<NodeId> = tree
            .visible_nodes()
            .into_iter()
            .filter(|&id| {
                id != Octree::ROOT
                    && !tree.node(id).is_leaf()
                    && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
            })
            .collect();
        let before = tree.visible_nodes();
        for &id in &twigs {
            prop_assert!(tree.collapse(id));
        }
        for &id in &twigs {
            prop_assert!(tree.push_down(id));
        }
        prop_assert_eq!(before, tree.visible_nodes());
        prop_assert!(tree.check_invariants().is_ok());
    }

    /// The paper's GPU partition: every job assigned exactly once, order
    /// preserved, and no device exceeds the ideal share by more than its
    /// largest single job.
    #[test]
    fn gpu_partition_properties(
        weights in prop::collection::vec(0u64..10_000, 1..200),
        n_gpus in 1usize..8,
    ) {
        let groups = partition_by_interactions(&weights, n_gpus);
        prop_assert_eq!(groups.len(), n_gpus);
        let flat: Vec<usize> = groups.concat();
        let expect: Vec<usize> = (0..weights.len()).collect();
        prop_assert_eq!(flat, expect, "partition must preserve order and cover once");
        let total: u64 = weights.iter().sum();
        let share = total.div_ceil(n_gpus as u64).max(1);
        for g in &groups {
            let sum: u64 = g.iter().map(|&i| weights[i]).sum();
            let max_item = g.iter().map(|&i| weights[i]).max().unwrap_or(0);
            prop_assert!(sum <= share + max_item);
        }
    }

    /// Greedy-schedule makespan respects Graham's bounds for arbitrary
    /// fork-ish DAGs.
    #[test]
    fn scheduler_respects_graham_bounds(
        costs in prop::collection::vec(0.1f64..50.0, 1..120),
        cores in 1usize..16,
        fan in 1usize..4,
    ) {
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for (i, &c) in costs.iter().enumerate() {
            let deps = if i == 0 {
                vec![]
            } else {
                (1..=fan.min(i)).map(|k| ids[i - k]).filter(|_| i % (fan + 1) != 0).collect()
            };
            ids.push(g.add(c, deps));
        }
        let r = sched_sim::simulate(&g, &SimConfig::ideal(cores, 1.0));
        let span = sched_sim::critical_path(&g);
        let work = g.total_work();
        prop_assert!(r.makespan >= span - 1e-9);
        prop_assert!(r.makespan >= work / cores as f64 - 1e-9);
        prop_assert!(r.makespan <= span + work / cores as f64 + 1e-9);
    }

    /// Cost-model prediction on the very tree it observed equals the
    /// realized virtual times (GPU exactly, CPU within the overhead slack).
    #[test]
    fn prediction_self_consistency(pts in arb_points(600), s in 8usize..128, gpus in 1usize..5) {
        let node = HeteroNode::system_a(10, gpus);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pts, s);
        let counts = e.refresh_lists();
        let flops = fmm_math::Kernel::op_flops(&e.kernel, e.expansion_ops());
        let timing = afmm::time_step(e.tree(), e.lists(), &flops, &node, afmm::ExecPolicy::default()).unwrap();
        let mut model = CostModel::new();
        model.observe(&counts, &timing, &flops, &node);
        let pred = model.predict(&counts, &node);
        prop_assert!((pred.t_gpu - timing.t_gpu).abs() <= 1e-12 * timing.t_gpu.max(1e-30));
        if timing.t_cpu > 0.0 {
            prop_assert!((pred.t_cpu - timing.t_cpu).abs() / timing.t_cpu < 0.10,
                "cpu prediction off: {} vs {}", pred.t_cpu, timing.t_cpu);
        }
    }

    /// Op counts recomputed after maintenance match a from-scratch count on
    /// the same tree (the basis of "predict without solving").
    #[test]
    fn counts_consistent_after_maintenance(pts in arb_points(300), s in 4usize..64, ops in arb_ops()) {
        let mut pos = pts;
        let mut tree = build_adaptive(&pos, BuildParams::with_s(s));
        for op in ops {
            match op {
                TreeOp::Collapse(k) => {
                    let nodes = tree.visible_nodes();
                    tree.collapse(nodes[k % nodes.len()]);
                }
                TreeOp::PushDown(k) => {
                    let leaves = tree.visible_leaves();
                    tree.push_down(leaves[k % leaves.len()]);
                }
                TreeOp::EnforceWithS(new_s) => {
                    tree.set_s_value(new_s);
                    tree.enforce_s();
                }
                TreeOp::MoveAndRebin(seed) => {
                    jitter(&mut pos, seed);
                    tree.rebin(&pos);
                }
            }
        }
        let mac = Mac::new(0.6);
        let c1 = count_ops(&tree, &dual_traversal(&tree, mac));
        let c2 = count_ops(&tree, &dual_traversal(&tree, mac));
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(c1.p2m_bodies, pos.len() as u64);
        prop_assert_eq!(c1.l2p_bodies, pos.len() as u64);
        prop_assert_eq!(c1.m2m_ops, c1.l2l_ops);
    }
}
