//! Property tests of the persistent plan: a plan patched through an
//! arbitrary interleaving of Collapse and PushDown edits must be
//! *indistinguishable* from one rebuilt from scratch — the same interaction
//! lists entry for entry and in order, and the same op counts. (The GPU job
//! list is `build_gpu_jobs` of the tree and lists, so equal lists give equal
//! jobs.) One fixed case also rebins between patches, on a tree big enough
//! to fork, at widths 1, 2, 3 and 8.

use octree::{
    build_adaptive, count_ops, dual_traversal, BuildParams, IncrementalLists, Mac, Octree,
};
use proptest::prelude::*;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<geom::Vec3>> {
    prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0).prop_map(|(x, y, z)| geom::Vec3::new(x, y, z)),
        8..max_n,
    )
}

/// A random plan-routed edit.
#[derive(Clone, Debug)]
enum PlanOp {
    Collapse(usize),
    PushDown(usize),
}

fn arb_plan_ops() -> impl Strategy<Value = Vec<PlanOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..64).prop_map(PlanOp::Collapse),
            (0usize..64).prop_map(PlanOp::PushDown),
        ],
        1..14,
    )
}

/// The paper's two MAC regimes: a strict opening angle (deep M2L lists) and a
/// permissive one (shallow lists, heavier P2P).
fn arb_theta() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.35), Just(0.8)]
}

fn apply_ops(plan: &mut IncrementalLists, tree: &mut Octree, ops: &[PlanOp]) -> usize {
    let mut applied = 0;
    for op in ops {
        match *op {
            PlanOp::Collapse(k) => {
                let nodes = tree.visible_nodes();
                let id = nodes[k % nodes.len()];
                applied += usize::from(plan.apply_collapse(tree, id));
            }
            PlanOp::PushDown(k) => {
                let leaves = tree.visible_leaves();
                let id = leaves[k % leaves.len()];
                applied += usize::from(plan.apply_push_down(tree, id));
            }
        }
    }
    applied
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// After any interleaving of plan-routed Collapse/PushDown edits, the
    /// patched lists and counts equal a fresh dual traversal + count of the
    /// same tree, at both MAC regimes, and the plan passes its audit (equal
    /// to a fresh build).
    #[test]
    fn patched_plan_equals_fresh_build(
        pts in arb_points(300),
        s in 4usize..64,
        ops in arb_plan_ops(),
        theta in arb_theta(),
    ) {
        let mac = Mac::new(theta);
        let mut tree = build_adaptive(&pts, BuildParams::with_s(s));
        let mut plan = IncrementalLists::build(&tree, mac);
        apply_ops(&mut plan, &mut tree, &ops);
        prop_assert!(tree.check_invariants().is_ok());

        let fresh = dual_traversal(&tree, mac);
        prop_assert_eq!(&plan.lists().m2l, &fresh.m2l);
        prop_assert_eq!(&plan.lists().p2p, &fresh.p2p);
        prop_assert_eq!(plan.counts(), count_ops(&tree, &fresh));
        prop_assert_eq!(plan.audit(&tree), Ok(()));
    }

    /// Plan-routed no-ops (collapsing a leaf, pushing down an internal node)
    /// leave the plan bit-for-bit untouched.
    #[test]
    fn refused_edits_do_not_perturb_the_plan(
        pts in arb_points(200),
        s in 4usize..48,
        theta in arb_theta(),
    ) {
        let mac = Mac::new(theta);
        let mut tree = build_adaptive(&pts, BuildParams::with_s(s));
        let mut plan = IncrementalLists::build(&tree, mac);
        let before = plan.lists().clone();
        let before_counts = plan.counts();
        for id in tree.visible_nodes() {
            if tree.node(id).is_leaf() {
                prop_assert!(!plan.apply_collapse(&mut tree, id));
            } else {
                prop_assert!(!plan.apply_push_down(&mut tree, id));
            }
        }
        prop_assert_eq!(&plan.lists().m2l, &before.m2l);
        prop_assert_eq!(&plan.lists().p2p, &before.p2p);
        prop_assert_eq!(plan.counts(), before_counts);
    }
}

/// Patch, rebin, refresh and patch again on a tree big enough that every
/// rebuild and recount forks: at widths 1, 2, 3 and 8 the plan's lists and
/// op counts equal `IncrementalLists::build` on the tree it ends on, and it
/// passes its audit.
#[test]
fn a_patched_rebinned_plan_equals_a_build_at_every_width() {
    let start = nbody::plummer(20_000, 1.0, 1.0, 41).pos;
    let mac = Mac::default();
    let ops: Vec<PlanOp> = (0..40)
        .map(|k| match k % 2 {
            0 => PlanOp::Collapse(7 * k + 3),
            _ => PlanOp::PushDown(11 * k + 5),
        })
        .collect();
    for width in [1, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(width)
            .build()
            .expect("the pool is only a width");
        pool.install(|| {
            let mut tree = build_adaptive(&start, BuildParams::with_s(16));
            assert!(tree.num_nodes() > 2048, "{} nodes", tree.num_nodes());
            let mut plan = IncrementalLists::build(&tree, mac);
            assert!(apply_ops(&mut plan, &mut tree, &ops[..20]) > 10);
            // From every ninth leaf holding two or more bodies, one body
            // jumps onto another body's spot: bodies change leaves, no
            // visible cell empties or fills.
            let mut moved = start.clone();
            let leaves = tree.active_leaves().into_iter().step_by(9);
            for (k, leaf) in leaves.enumerate() {
                if tree.node(leaf).count() > 1 {
                    let body = tree.order()[tree.node(leaf).begin as usize] as usize;
                    moved[body] = start[(k * 7919) % start.len()];
                }
            }
            tree.rebin(&moved);
            let refreshed = plan.refresh_counts(&tree);
            assert!(
                matches!(refreshed, octree::PlanRefresh::Patched { .. }),
                "{refreshed:?}"
            );
            assert!(apply_ops(&mut plan, &mut tree, &ops[20..]) > 10);
            let fresh = IncrementalLists::build(&tree, mac);
            assert!(plan.lists().m2l == fresh.lists().m2l, "width {width}: m2l");
            assert!(plan.lists().p2p == fresh.lists().p2p, "width {width}: p2p");
            assert_eq!(plan.counts(), fresh.counts(), "width {width}: counts");
            plan.audit(&tree).expect("patched plan audits");
        });
    }
}
