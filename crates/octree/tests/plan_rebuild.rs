//! A plan rebuild is the same plan at any width, and a patched plan is the
//! plan a build gives. `IncrementalLists::build` and `rebuild` traverse
//! through workers, one task per child of the root, and count per-node
//! contributions one range per worker; at widths 1, 2, 3 and 8
//! (real forked threads under `ThreadPool::install`) the plan — every list
//! in its order, every count, population, stamp and the epoch, as
//! `IncrementalLists`'s equality compares them — must equal the width-1
//! plan, and its lists and totals a plain serial reference kept here: one
//! depth-first traversal from `(root, root)` into fresh lists, counts over
//! the visible nodes. Trees: a Plummer cloud, a clump with nearly every body
//! in one root octant, a tree with every third internal node collapsed, a
//! collapsed root, a single leaf and no bodies at all; then the two ways a
//! live plan is rebuilt in place — a refresh that finds a cell emptied or
//! filled, and a rebuild after the tree was rebuilt at another leaf
//! capacity, shrinking and growing the arena. A refresh after motion that
//! flips no cell recounts every visible node through workers: the plan must
//! equal the width-1 refresh and pass its audit. Last, a plan patched
//! through collapses and push-downs, rebinned, refreshed and patched again
//! equals a build of the tree it ends on.

use geom::Vec3;
use octree::{
    build_adaptive, build_adaptive_in_cube, dual_traversal, node_op_counts, BuildParams,
    IncrementalLists, InteractionLists, Mac, NodeId, Octree, OpCounts, PlanRefresh,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];

fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool is only a width")
        .install(op)
}

/// The lists and totals as they were built before rebuilds went through
/// workers: one serial traversal into fresh lists, the counts of every
/// visible node.
fn reference(tree: &Octree, mac: Mac) -> (InteractionLists, OpCounts) {
    let n = tree.num_nodes();
    let mut lists = InteractionLists {
        m2l: vec![Vec::new(); n],
        p2p: vec![Vec::new(); n],
    };
    let mut stack = vec![(Octree::ROOT, Octree::ROOT)];
    while let Some((a, b)) = stack.pop() {
        let (na, nb) = (tree.node(a), tree.node(b));
        if na.count() == 0 || nb.count() == 0 {
            continue;
        }
        if a != b && mac.accepts(tree, a, b) {
            lists.m2l[a as usize].push(b);
            continue;
        }
        if na.is_leaf() && nb.is_leaf() {
            lists.p2p[a as usize].push(b);
            continue;
        }
        if !na.is_leaf() && (nb.is_leaf() || na.half_width >= nb.half_width) {
            stack.extend(tree.visible_children(a).map(|c| (c, b)));
        } else {
            stack.extend(tree.visible_children(b).map(|c| (a, c)));
        }
    }
    let mut totals = OpCounts::default();
    for id in tree.visible_nodes() {
        totals += node_op_counts(tree, &lists, id);
    }
    (lists, totals)
}

/// `plan`'s lists and totals are the reference's, and it passes its audit.
fn assert_reference(plan: &IncrementalLists, want: &(InteractionLists, OpCounts), what: &str) {
    assert!(plan.lists().m2l == want.0.m2l, "{what}: m2l");
    assert!(plan.lists().p2p == want.0.p2p, "{what}: p2p");
    assert_eq!(plan.counts(), want.1, "{what}: totals");
}

/// `got` is the plan `want` is, state for state.
fn assert_same(got: &IncrementalLists, want: &IncrementalLists, what: &str) {
    assert!(got == want, "{what}: the plans differ");
}

/// No forward list holds more than pushing its entries onto an empty `Vec`
/// would have reserved — doubling from four.
fn assert_capacity_bounded(plan: &IncrementalLists, what: &str) {
    let lists = plan.lists();
    for (id, list) in lists.m2l.iter().chain(&lists.p2p).enumerate() {
        let fresh = match list.len() {
            0 => 0,
            len => len.next_power_of_two().max(4),
        };
        assert!(
            list.capacity() <= fresh,
            "{what}: list {id} holds {} for {} entries",
            list.capacity(),
            list.len()
        );
    }
}

/// Built, rebuilt in place and traversed at every width: the same plan as
/// width 1, with the reference's lists and totals.
fn assert_width_invariant(tree: &Octree, what: &str) {
    let mac = Mac::default();
    let want = reference(tree, mac);
    let serial = at_width(1, || IncrementalLists::build(tree, mac));
    assert_reference(&serial, &want, what);
    assert_eq!(serial.epoch(), 0, "{what}: epoch");
    serial.audit(tree).expect(what);
    for width in WIDTHS {
        let (built, rebuilt, traversed) = at_width(width, || {
            let mut plan = IncrementalLists::build(tree, mac);
            let built = plan.clone();
            plan.rebuild(tree);
            assert_capacity_bounded(&plan, what);
            (built, plan, dual_traversal(tree, mac))
        });
        assert_same(&built, &serial, &format!("{what}, built at width {width}"));
        assert_same(
            &rebuilt,
            &serial,
            &format!("{what}, rebuilt at width {width}"),
        );
        assert!(
            traversed.m2l == want.0.m2l,
            "{what}: traversal m2l, width {width}"
        );
        assert!(
            traversed.p2p == want.0.p2p,
            "{what}: traversal p2p, width {width}"
        );
    }
}

fn plummer(n: usize, seed: u64) -> Vec<Vec3> {
    nbody::plummer(n, 1.0, 1.0, seed).pos
}

/// Nineteen bodies in twenty in a tight clump inside the root's (+, +, +)
/// octant, the rest spread over the whole cube.
fn clump(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let centre = Vec3::splat(0.5);
    (0..n)
        .map(|i| {
            let spread = if i % 20 == 0 { 1.0 } else { 0.05 };
            let mut coord = || rng.random_range(-spread..spread);
            let off = Vec3::new(coord(), coord(), coord());
            if spread < 1.0 {
                centre + off
            } else {
                off
            }
        })
        .collect()
}

/// Comfortably above the size from which a rebuild forks, so every width
/// past one really runs the forked path.
fn assert_forks(tree: &Octree) {
    assert!(tree.num_nodes() > 2048, "{} nodes", tree.num_nodes());
}

#[test]
fn plummer_plan_is_the_same_at_every_width() {
    let tree = build_adaptive(&plummer(70_000, 3), BuildParams::with_s(32));
    assert_forks(&tree);
    assert_width_invariant(&tree, "plummer");
}

#[test]
fn a_one_octant_clump_is_the_same_at_every_width() {
    let pos = clump(20_000, 5);
    let tree = build_adaptive_in_cube(&pos, BuildParams::with_s(16), Vec3::ZERO, 1.0);
    assert_forks(&tree);
    let busiest = tree
        .visible_children(Octree::ROOT)
        .map(|c| tree.node(c).count())
        .max()
        .unwrap();
    assert!(busiest * 10 >= pos.len() * 9, "{busiest} of {}", pos.len());
    assert_width_invariant(&tree, "clump");
}

#[test]
fn collapsed_subtrees_are_the_same_at_every_width() {
    let mut tree = build_adaptive(&plummer(40_000, 7), BuildParams::with_s(16));
    // Deepest first, so most collapsed nodes stay visible as leaves.
    let internal: Vec<NodeId> = tree
        .visible_nodes()
        .into_iter()
        .rev()
        .filter(|&id| id != Octree::ROOT && !tree.node(id).is_leaf())
        .collect();
    for id in internal.into_iter().step_by(3) {
        assert!(tree.collapse(id));
    }
    assert_forks(&tree);
    let visible = tree.visible_nodes().len();
    assert!(visible > 1024, "{visible} visible nodes");
    assert_width_invariant(&tree, "every third internal node collapsed");
}

#[test]
fn degenerate_trees_are_the_same_at_every_width() {
    let mut collapsed_root = build_adaptive(&plummer(20_000, 9), BuildParams::with_s(16));
    assert!(collapsed_root.collapse(Octree::ROOT));
    assert_width_invariant(&collapsed_root, "collapsed root");
    let single = build_adaptive(&plummer(10, 11), BuildParams::with_s(64));
    assert_eq!(single.num_nodes(), 1);
    assert_width_invariant(&single, "single leaf");
    let empty = build_adaptive(&[], BuildParams::with_s(8));
    assert_width_invariant(&empty, "empty tree");
}

/// A tree rebuilt under a live plan, at another leaf capacity: the refresh
/// rebuilds the plan in its own storage, and the result is the fresh plan
/// of the new tree.
#[test]
fn a_rebuilt_refresh_in_recycled_storage_equals_a_fresh_build() {
    let start = plummer(20_000, 13);
    let moved: Vec<Vec3> = start.iter().map(|p| *p * 0.8).collect();
    let mac = Mac::default();
    for width in WIDTHS {
        let (refreshed, tree) = at_width(width, || {
            let mut plan =
                IncrementalLists::build(&build_adaptive(&start, BuildParams::with_s(16)), mac);
            let tree = build_adaptive(&moved, BuildParams::with_s(12));
            assert_eq!(plan.refresh_counts(&tree), PlanRefresh::Rebuilt);
            assert_capacity_bounded(&plan, "refreshed");
            (plan, tree)
        });
        let what = format!("refresh at width {width}");
        assert_reference(&refreshed, &reference(&tree, mac), &what);
        let fresh = at_width(1, || IncrementalLists::build(&tree, mac));
        assert_same(&refreshed, &fresh, &what);
    }
}

/// One plan rebuilt over trees of the same bodies at other leaf capacities:
/// fewer nodes, then more, then the first tree again.
#[test]
fn a_rebuild_after_the_arena_shrinks_and_grows_equals_a_fresh_build() {
    let pos = plummer(20_000, 17);
    let trees: Vec<Octree> = [16, 64, 8, 16]
        .into_iter()
        .map(|s| build_adaptive(&pos, BuildParams::with_s(s)))
        .collect();
    assert!(trees[1].num_nodes() < trees[0].num_nodes());
    assert!(trees[2].num_nodes() > trees[0].num_nodes());
    let mac = Mac::default();
    let fresh: Vec<IncrementalLists> = at_width(1, || {
        (trees.iter())
            .map(|tree| IncrementalLists::build(tree, mac))
            .collect()
    });
    for width in WIDTHS {
        at_width(width, || {
            let mut plan = IncrementalLists::build(&trees[0], mac);
            for (i, tree) in trees.iter().enumerate().skip(1) {
                plan.rebuild(tree);
                let what = format!("tree {i} at width {width}");
                assert_capacity_bounded(&plan, &what);
                assert_reference(&plan, &reference(tree, mac), &what);
                assert_same(&plan, &fresh[i], &what);
            }
        });
    }
}

/// Bodies jump onto other bodies' spots — busy leaves — from every
/// `step`-th leaf that keeps at least one body: motion between leaves that
/// empties no cell. Returns the moved positions.
fn hop(tree: &Octree, start: &[Vec3], step: usize, seed: u64) -> Vec<Vec3> {
    let mut moved = start.to_vec();
    let mut left: Vec<usize> = (0..tree.num_nodes() as NodeId)
        .map(|id| tree.node(id).count())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for leaf in tree.active_leaves().into_iter().step_by(step) {
        let body = tree.order()[tree.node(leaf).begin as usize] as usize;
        if left[leaf as usize] > 1 {
            left[leaf as usize] -= 1;
            moved[body] = start[rng.random_range(0..start.len())];
        }
    }
    moved
}

fn populations(tree: &Octree) -> Vec<usize> {
    (0..tree.num_nodes() as NodeId)
        .map(|id| tree.node(id).count())
        .collect()
}

/// Motion that moves bodies between leaves but empties or fills no visible
/// cell: the refresh patches, recounting every visible node through
/// workers, and the plan it leaves equals the width-1 refresh state for
/// state, holds the reference's lists and totals, and passes its audit —
/// per-node counts and populations equal to a fresh build's.
#[test]
fn a_patched_refresh_recounts_like_a_serial_recount_at_every_width() {
    let start = plummer(40_000, 19);
    let mut tree = build_adaptive(&start, BuildParams::with_s(16));
    assert_forks(&tree);
    let mac = Mac::default();
    let plan = IncrementalLists::build(&tree, mac);
    let moved = hop(&tree, &start, 7, 23);
    let before = populations(&tree);
    tree.rebin(&moved);
    let moved_nodes = (before.iter().zip(populations(&tree)))
        .filter(|&(a, b)| *a != b)
        .count();
    assert!(moved_nodes > 100, "{moved_nodes} nodes changed population");
    let want = reference(&tree, mac);
    let serial = at_width(1, || {
        let mut plan = plan.clone();
        plan.refresh_counts(&tree);
        plan
    });
    for width in WIDTHS {
        let mut plan = plan.clone();
        let outcome = at_width(width, || plan.refresh_counts(&tree));
        let visible = tree.visible_nodes().len();
        let flips = 0;
        assert_eq!(
            outcome,
            PlanRefresh::Patched {
                recounted: visible,
                flips
            }
        );
        let what = format!("width {width}");
        assert_same(&plan, &serial, &what);
        assert_reference(&plan, &want, &what);
        plan.audit(&tree).expect(&what);
    }
}

/// Collapse every fifth twig and push down every third leaf holding more
/// than eight bodies, through `plan`. Returns the edits applied.
fn edit(tree: &mut Octree, plan: &mut IncrementalLists) -> usize {
    let twigs: Vec<NodeId> = (tree.visible_nodes().into_iter())
        .filter(|&id| {
            !tree.node(id).is_leaf() && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
        })
        .step_by(5)
        .collect();
    let leaves: Vec<NodeId> = (tree.active_leaves().into_iter())
        .filter(|&id| tree.node(id).count() > 8)
        .step_by(3)
        .collect();
    let collapsed = twigs
        .into_iter()
        .filter(|&id| plan.apply_collapse(tree, id))
        .count();
    let pushed = leaves
        .into_iter()
        .filter(|&id| plan.apply_push_down(tree, id))
        .count();
    collapsed + pushed
}

/// Patch, rebin, refresh, patch again: at every width the plan ends with
/// the reference's lists and totals, and its audit finds it equal to a
/// build of the tree it ends on — lists in their order, per-node counts,
/// totals and populations.
#[test]
fn a_patched_rebinned_and_refreshed_plan_equals_a_build_at_every_width() {
    let start = plummer(20_000, 29);
    let mac = Mac::default();
    for width in WIDTHS {
        let (plan, tree) = at_width(width, || {
            let mut tree = build_adaptive(&start, BuildParams::with_s(16));
            assert_forks(&tree);
            let mut plan = IncrementalLists::build(&tree, mac);
            assert!(edit(&mut tree, &mut plan) > 50);
            let moved = hop(&tree, &start, 5, 31);
            tree.rebin(&moved);
            let outcome = plan.refresh_counts(&tree);
            assert!(
                matches!(outcome, PlanRefresh::Patched { .. }),
                "{outcome:?}"
            );
            assert!(edit(&mut tree, &mut plan) > 50);
            (plan, tree)
        });
        let what = format!("width {width}");
        assert_reference(&plan, &reference(&tree, mac), &what);
        plan.audit(&tree).expect(&what);
    }
}

/// The positions `pos` with every body of the cells `from` moved onto the
/// spot of a body outside them, so each of those cells empties and no
/// other cell does.
fn vacate(tree: &Octree, pos: &[Vec3], from: &[NodeId], seed: u64) -> Vec<Vec3> {
    let mut leaving = vec![false; pos.len()];
    for &id in from {
        for i in tree.node(id).range() {
            leaving[tree.order()[i] as usize] = true;
        }
    }
    let stay: Vec<usize> = (0..pos.len()).filter(|&b| !leaving[b]).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut moved = pos.to_vec();
    for b in (0..pos.len()).filter(|&b| leaving[b]) {
        moved[b] = pos[stay[rng.random_range(0..stay.len())]];
    }
    moved
}

/// The positions `pos` with one body moved to the centre of each empty leaf
/// of `to`, each taken from a leaf that keeps another: those leaves fill and
/// no cell empties.
fn fill(tree: &Octree, pos: &[Vec3], to: &[NodeId]) -> Vec<Vec3> {
    let mut donors = (tree.active_leaves().into_iter())
        .flat_map(|leaf| tree.node(leaf).range().skip(1))
        .map(|i| tree.order()[i] as usize);
    let mut moved = pos.to_vec();
    for &id in to {
        moved[donors.next().expect("a donor")] = tree.node(id).center;
    }
    moved
}

/// Twenty collapses and push-downs of random visible nodes through `plan`.
fn random_edits(tree: &mut Octree, plan: &mut IncrementalLists, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..20 {
        let visible = tree.visible_nodes();
        let id = visible[rng.random_range(0..visible.len())];
        match tree.node(id).is_leaf() {
            true => plan.apply_push_down(tree, id),
            false => plan.apply_collapse(tree, id),
        };
    }
}

/// `plan`'s lists are a build's of `tree` entry for entry, its counts are
/// the build's and it passes its audit.
fn assert_built(tree: &Octree, plan: &IncrementalLists, what: &str) {
    let fresh = IncrementalLists::build(tree, plan.mac());
    assert!(plan.lists().m2l == fresh.lists().m2l, "{what}: m2l");
    assert!(plan.lists().p2p == fresh.lists().p2p, "{what}: p2p");
    assert_eq!(plan.counts(), fresh.counts(), "{what}: counts");
    plan.audit(tree).expect(what);
}

/// Motion that empties or fills visible cells — leaves that empty, empty
/// leaves that fill, a whole internal subtree that empties and refills, a
/// collapsed cell (hidden structure under it) that empties and refills —
/// at widths 1, 2, 3 and 8: the refresh patches the plan through the flips
/// instead of rebuilding it, and the plan is a build's of the moved tree,
/// and still is after twenty collapses and push-downs patched on top.
#[test]
fn a_refresh_patches_emptied_and_filled_cells_at_every_width() {
    let mac = Mac::default();
    for (n, s) in [(3_000, 4), (5_000, 16)] {
        let start = plummer(n, 37 + s as u64);
        let tree = build_adaptive(&start, BuildParams::with_s(s));
        let visible = tree.visible_nodes();
        let leaves = tree.active_leaves();
        let empty: Vec<NodeId> = (visible.iter().copied())
            .filter(|&id| tree.node(id).is_leaf() && tree.node(id).count() == 0)
            .collect();
        let subtree = |skip: usize| {
            (visible.iter().copied())
                .filter(|&id| tree.node(id).level >= 2 && !tree.node(id).is_leaf())
                .filter(|&id| (4 * s..=40 * s).contains(&tree.node(id).count()))
                .nth(skip)
                .expect("an internal node")
        };
        assert!(leaves.len() > 100 && empty.len() > 10, "s = {s}");
        let emptied_leaves: Vec<NodeId> = leaves.iter().copied().step_by(9).collect();
        let filled_leaves: Vec<NodeId> = empty.iter().copied().step_by(2).collect();
        let (internal, collapsed) = (subtree(0), subtree(3));
        let cases = [
            (
                "leaves empty",
                None,
                vec![vacate(&tree, &start, &emptied_leaves, 41)],
            ),
            (
                "empty leaves fill",
                None,
                vec![fill(&tree, &start, &filled_leaves)],
            ),
            (
                "a subtree empties and refills",
                None,
                vec![vacate(&tree, &start, &[internal], 43), start.clone()],
            ),
            (
                "a collapsed cell empties and refills",
                Some(collapsed),
                vec![vacate(&tree, &start, &[collapsed], 47), start.clone()],
            ),
        ];
        for (what, collapse, motions) in cases {
            for width in WIDTHS {
                at_width(width, || {
                    let mut tree = tree.clone();
                    let mut plan = IncrementalLists::build(&tree, mac);
                    if let Some(id) = collapse {
                        assert!(plan.apply_collapse(&mut tree, id));
                    }
                    for (k, moved) in motions.iter().enumerate() {
                        let what = format!("s = {s}, {what}, motion {k}, width {width}");
                        tree.rebin(moved);
                        let outcome = plan.refresh_counts(&tree);
                        assert!(
                            matches!(outcome, PlanRefresh::Patched { flips: 1.., .. }),
                            "{what}: {outcome:?}"
                        );
                        assert_built(&tree, &plan, &what);
                        let mut edited = (tree.clone(), plan.clone());
                        random_edits(&mut edited.0, &mut edited.1, 53 + k as u64);
                        assert_built(&edited.0, &edited.1, &format!("{what}, edited"));
                    }
                });
            }
        }
    }
}
