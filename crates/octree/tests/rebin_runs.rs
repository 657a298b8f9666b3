//! The tree order is one total order — ascending (Morton code, body id) —
//! however many workers sorted it. Builds and rebins at widths 1, 2, 3 and 8
//! (real forked threads under `ThreadPool::install`) are checked against a
//! full `sort_unstable` of all pairs computed here, body by body, and node
//! range by node range against the one-worker tree: sizes from no body to
//! eight runs' worth, on both sides of the shortest run a worker takes,
//! duplicate positions (equal codes, so only the id orders them), bodies
//! clamped from outside the cube, collapsed subtrees, and motion from one
//! body in a thousand to every body teleporting.
//!
//! A rebin sorts only the bodies that left their leaf, so the motions that
//! stress it are checked against a reference that knows nothing of leaves —
//! the full sort, then every visible node's range found top-down by binary
//! search on the sorted codes, hidden nodes keeping the ranges they had:
//! smooth drift moving 0.1–5 % of the bodies to another leaf, bodies
//! crossing three levels and more, leaves emptying and filling, overfull
//! leaves at `max_level`, trees after random collapses and push-downs, and
//! every body re-drawn inside its own leaf, which leaves each leaf's stayers
//! in random order.
//!
//! A regroup alone leaves each leaf's bodies unsorted: after one to three of
//! them, under drift, breathing (leaves empty and fill) and teleports of
//! Plummer, uniform and two-cluster bodies, every node range is `rebin`'s
//! and every leaf slice holds the sorted slice's bodies; `sort_leaves` then
//! gives the full sort. `price`, `resplit` and `push_down` refuse an
//! unsorted tree.

use geom::{morton_encode, Vec3, MAX_MORTON_LEVEL};
use octree::{build_adaptive_in_cube, BuildParams, NodeId, Octree, TreeSnapshot};
use rand::prelude::*;
use rand::rngs::StdRng;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];
const HALF_WIDTH: f64 = 1.0;

fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool is only a width")
        .install(op)
}

/// A position in the cube, or now and then a little outside it.
fn anywhere(rng: &mut StdRng) -> Vec3 {
    let reach = if rng.random_bool(0.05) { 1.5 } else { 1.0 };
    Vec3::new(
        rng.random_range(-reach..reach),
        rng.random_range(-reach..reach),
        rng.random_range(-reach..reach),
    )
}

/// `n` bodies, one in ten sitting exactly on an earlier one.
fn bodies(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pos: Vec<Vec3> = Vec::with_capacity(n);
    for i in 0..n {
        let twin = i > 0 && rng.random_bool(0.1);
        let p = if twin {
            pos[rng.random_range(0..i)]
        } else {
            anywhere(&mut rng)
        };
        pos.push(p);
    }
    pos
}

/// `share` of the bodies jump somewhere else (at least one, when there is
/// one).
fn teleport(pos: &mut [Vec3], share: f64, rng: &mut StdRng) {
    let movers = ((pos.len() as f64 * share).ceil() as usize).min(pos.len());
    for _ in 0..movers {
        let i = rng.random_range(0..pos.len());
        pos[i] = anywhere(rng);
    }
}

/// The reference: every body's clamped code in the cube centred on the
/// origin, all pairs in one `sort_unstable`.
fn full_sort(pos: &[Vec3]) -> (Vec<u32>, Vec<u64>) {
    let cells = (1u64 << MAX_MORTON_LEVEL) as f64;
    let cell = |v: f64| ((v + HALF_WIDTH) * (cells / (2.0 * HALF_WIDTH))).max(0.0) as u64;
    let top = (1u64 << MAX_MORTON_LEVEL) - 1;
    let mut pairs: Vec<(u64, u32)> = pos
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let code = morton_encode(cell(p.x).min(top), cell(p.y).min(top), cell(p.z).min(top));
            (code, i as u32)
        })
        .collect();
    pairs.sort_unstable();
    (
        pairs.iter().map(|p| p.1).collect(),
        pairs.iter().map(|p| p.0).collect(),
    )
}

/// Everything a snapshot holds that a sort could move.
fn image(tree: &Octree) -> (Vec<u32>, Vec<u64>, Vec<[u32; 4]>) {
    let TreeSnapshot {
        nodes,
        order,
        codes,
        ..
    } = tree.snapshot();
    let ranges = nodes
        .iter()
        .map(|n| [n.begin, n.end, n.first_child, n.collapsed as u32])
        .collect();
    (order, codes, ranges)
}

fn build(pos: &[Vec3]) -> Octree {
    build_adaptive_in_cube(pos, BuildParams::with_s(24), Vec3::splat(0.0), HALF_WIDTH)
}

/// Hide every third internal non-root node's subtree.
fn collapse_some(tree: &mut Octree) -> usize {
    let internal: Vec<_> = tree
        .visible_nodes()
        .into_iter()
        .filter(|&id| id != Octree::ROOT && !tree.node(id).is_leaf())
        .collect();
    internal
        .iter()
        .step_by(3)
        .filter(|&&id| tree.collapse(id))
        .count()
}

#[test]
fn any_width_gives_the_full_sorts_order() {
    for width in WIDTHS {
        for n in [0, 1, 2, width - 1, width, 4097, 16_385, 70_000] {
            let case = format!("width {width}, n {n}");
            let mut pos = bodies(n, 41 + n as u64);
            let mut one = at_width(1, || build(&pos));
            let mut wide = at_width(width, || build(&pos));
            let (order, codes) = full_sort(&pos);
            assert!(one.order() == order && image(&one).1 == codes, "{case}");
            assert!(image(&one) == image(&wide), "{case}: build");
            one.check_invariants().expect(&case);

            let hidden = collapse_some(&mut one);
            assert_eq!(collapse_some(&mut wide), hidden);
            assert!(n < 4097 || hidden > 0, "{case}: nothing collapsed");

            let mut rng = StdRng::seed_from_u64(43);
            for share in [0.001, 0.05, 1.0] {
                teleport(&mut pos, share, &mut rng);
                at_width(1, || one.rebin(&pos));
                at_width(width, || wide.rebin(&pos));
                let (order, codes) = full_sort(&pos);
                let wide = image(&wide);
                assert!(wide.0 == order && wide.1 == codes, "{case}, share {share}");
                assert!(wide.2 == image(&one).2, "{case}, share {share}: ranges");
            }
            wide.check_invariants().expect(&case);
        }
    }
}

/// A snapshot is outside input: `from_snapshot` must refuse codes that are
/// out of order, and equal codes whose ids are.
#[test]
fn snapshots_with_unsorted_codes_are_refused() {
    // Four bodies on one spot tie on the code; the fifth sorts elsewhere.
    let mut pos = vec![Vec3::splat(0.3); 4];
    pos.push(Vec3::splat(-0.6));
    let snap = build(&pos).snapshot();
    assert_eq!(snap.order, [4, 0, 1, 2, 3]);
    assert!(Octree::from_snapshot(snap.clone()).is_ok());

    let mut codes_flipped = snap.clone();
    codes_flipped.codes.swap(0, 1);
    let err = Octree::from_snapshot(codes_flipped).unwrap_err();
    assert!(err.contains("not ascending"), "{err}");

    let mut tie_flipped = snap;
    tie_flipped.order.swap(2, 3);
    let err = Octree::from_snapshot(tie_flipped).unwrap_err();
    assert!(err.contains("not ascending"), "{err}");
}

/// Nor may a snapshot reach past the Morton limit, where a push-down would
/// outgrow the ancestor path a plan patch keeps per level.
#[test]
fn snapshots_deeper_than_the_morton_limit_are_refused() {
    let snap = build(&[Vec3::splat(0.3), Vec3::splat(-0.6)]).snapshot();
    let mut max_deep = snap.clone();
    max_deep.max_level = 22;
    let mut node_deep = snap;
    node_deep.nodes.last_mut().unwrap().level = 22;
    for deep in [max_deep, node_deep] {
        let err = Octree::from_snapshot(deep).unwrap_err();
        assert!(err.contains("Morton limit"), "{err}");
    }
}

fn build_with(pos: &[Vec3], s: usize, max_level: u16) -> Octree {
    let params = BuildParams {
        s,
        max_level,
        pad: 1e-6,
    };
    build_adaptive_in_cube(pos, params, Vec3::splat(0.0), HALF_WIDTH)
}

/// What a rebin of `before` to `pos` must leave: the full sort, and the
/// node ranges of `before` with every visible node's children re-cut by
/// binary search on the sorted codes, top-down.
fn reference_rebin(before: &Octree, pos: &[Vec3]) -> (Vec<u32>, Vec<u64>, Vec<[u32; 4]>) {
    let (order, codes) = full_sort(pos);
    let mut nodes = before.snapshot().nodes;
    let mut stack = vec![Octree::ROOT];
    while let Some(id) = stack.pop() {
        let n = nodes[id as usize];
        if n.is_leaf() {
            continue;
        }
        let shift = 3 * (MAX_MORTON_LEVEL - u32::from(n.level) - 1);
        let range = &codes[n.begin as usize..n.end as usize];
        for o in 0..8u64 {
            let below = |x: u64| n.begin + range.partition_point(|&c| (c >> shift) & 7 < x) as u32;
            let child = &mut nodes[(n.first_child + o as NodeId) as usize];
            (child.begin, child.end) = (below(o), below(o + 1));
            stack.push(n.first_child + o as NodeId);
        }
    }
    let ranges = nodes
        .iter()
        .map(|n| [n.begin, n.end, n.first_child, n.collapsed as u32])
        .collect();
    (order, codes, ranges)
}

/// Rebin a copy of `tree` to `pos` at every width and compare it with the
/// reference, every node's range included, hidden ones too.
fn assert_rebins_like_the_reference(tree: &Octree, pos: &[Vec3], case: &str) {
    let want = reference_rebin(tree, pos);
    for width in WIDTHS {
        let mut got = tree.clone();
        at_width(width, || got.rebin(pos));
        let got = image(&got);
        assert!(got.0 == want.0, "{case}, width {width}: order");
        assert!(got.1 == want.1, "{case}, width {width}: codes");
        assert!(got.2 == want.2, "{case}, width {width}: node ranges");
    }
}

/// The leaf (visible) that holds each body.
fn leaf_of(tree: &Octree) -> Vec<NodeId> {
    let mut out = vec![0; tree.num_bodies()];
    for leaf in tree.visible_leaves() {
        for i in tree.node(leaf).range() {
            out[tree.order()[i] as usize] = leaf;
        }
    }
    out
}

/// Share of bodies in another leaf after a rebin to `pos`.
fn leaver_share(tree: &Octree, pos: &[Vec3]) -> f64 {
    let before = leaf_of(tree);
    let mut after = tree.clone();
    after.rebin(pos);
    let moved = before
        .iter()
        .zip(leaf_of(&after))
        .filter(|(a, b)| **a != *b);
    moved.count() as f64 / pos.len() as f64
}

/// A Plummer cloud well inside the cube: no body is farther out than 0.9.
fn cloud(n: usize, seed: u64) -> Vec<Vec3> {
    nbody::plummer(n, 0.09, 1.0, seed).pos
}

#[test]
fn smooth_drift_moving_a_few_per_cent_rebins_like_the_full_sort() {
    let pos = cloud(40_000, 51);
    let tree = build(&pos);
    let mut rng = StdRng::seed_from_u64(52);
    let velocity: Vec<Vec3> = (0..pos.len())
        .map(|_| {
            let mut v = || rng.random_range(-1.0..1.0);
            Vec3::new(v(), v(), v())
        })
        .collect();
    let mut shares = Vec::new();
    for dt in [1e-6, 1e-5, 1e-4, 1e-3] {
        let moved: Vec<Vec3> = pos
            .iter()
            .zip(&velocity)
            .map(|(p, v)| *p + *v * dt)
            .collect();
        let share = leaver_share(&tree, &moved);
        shares.push(share);
        assert_rebins_like_the_reference(&tree, &moved, &format!("drift {dt}, share {share}"));
    }
    assert!(shares[0] <= 0.002 && shares[0] > 0.0, "{shares:?}");
    assert!(
        shares.iter().any(|&s| (0.04..0.1).contains(&s)),
        "{shares:?}"
    );
}

#[test]
fn bodies_crossing_three_levels_and_more_rebin_like_the_full_sort() {
    // A dense clump (deep leaves) in a sparse cloud (shallow leaves); a
    // tenth of each swaps places with a body of the other.
    let mut pos = cloud(18_000, 53);
    let mut rng = StdRng::seed_from_u64(54);
    pos.extend((0..2000).map(|_| anywhere(&mut rng) * 0.99));
    let tree = build(&pos);
    let level = |leaf: NodeId| i32::from(tree.node(leaf).level);
    let mut moved = pos.clone();
    for k in 0..200 {
        let (dense, sparse) = (rng.random_range(0..18_000usize), 18_000 + k * 10);
        moved.swap(dense, sparse);
    }
    let before = leaf_of(&tree);
    let mut after = tree.clone();
    after.rebin(&moved);
    let far = before
        .iter()
        .zip(leaf_of(&after))
        .filter(|(a, b)| (level(**a) - level(*b)).abs() >= 3)
        .count();
    assert!(far >= 20, "{far} bodies crossed three levels");
    assert_rebins_like_the_reference(&tree, &moved, "three levels");
}

#[test]
fn leaves_that_empty_and_fill_rebin_like_the_full_sort() {
    let pos = cloud(30_000, 55);
    let tree = build(&pos);
    let leaves = tree.active_leaves();
    // Every body of every fifth busy leaf goes to a corner cell nobody
    // held — so those leaves empty and empty ones fill.
    let corner = Vec3::splat(0.97);
    let mut moved = pos.clone();
    let mut rng = StdRng::seed_from_u64(56);
    for &leaf in leaves.iter().step_by(5) {
        for i in tree.node(leaf).range() {
            let jitter = Vec3::new(rng.random_range(0.0..0.02), 0.0, 0.0);
            moved[tree.order()[i] as usize] = corner - jitter;
        }
    }
    let mut after = tree.clone();
    after.rebin(&moved);
    let emptied = leaves
        .iter()
        .filter(|&&l| after.node(l).count() == 0)
        .count();
    let filled = tree
        .visible_leaves()
        .into_iter()
        .filter(|&l| tree.node(l).count() == 0 && after.node(l).count() > 0)
        .count();
    assert!(emptied >= leaves.len() / 5, "{emptied} emptied");
    assert!(filled > 0, "no empty leaf filled");
    assert_rebins_like_the_reference(&tree, &moved, "empty and fill");
}

#[test]
fn overfull_leaves_at_max_level_rebin_like_the_full_sort() {
    // At max_level 4 most leaves hold far more than S, many on equal codes.
    let pos = bodies(20_000, 57);
    let tree = build_with(&pos, 8, 4);
    let deepest = tree
        .visible_leaves()
        .into_iter()
        .filter(|&l| tree.node(l).level == 4 && tree.node(l).count() > 8)
        .count();
    assert!(deepest > 100, "{deepest} overfull leaves at max_level");
    let mut rng = StdRng::seed_from_u64(58);
    for share in [0.01, 0.3] {
        let mut moved = pos.clone();
        teleport(&mut moved, share, &mut rng);
        assert_rebins_like_the_reference(&tree, &moved, &format!("max_level, share {share}"));
    }
}

#[test]
fn trees_after_random_collapses_and_push_downs_rebin_like_the_full_sort() {
    let mut pos = cloud(30_000, 59);
    let mut tree = build(&pos);
    let mut rng = StdRng::seed_from_u64(60);
    for round in 0..4 {
        for _ in 0..40 {
            let visible = tree.visible_nodes();
            let id = visible[rng.random_range(0..visible.len())];
            if tree.node(id).is_leaf() {
                tree.push_down(id);
            } else if id != Octree::ROOT {
                tree.collapse(id);
            }
        }
        tree.check_invariants().expect("edited tree");
        let mut moved = pos.clone();
        teleport(&mut moved, 0.02, &mut rng);
        for (p, q) in moved.iter_mut().zip(&pos) {
            if p == q {
                *p *= 0.999;
            }
        }
        assert_rebins_like_the_reference(&tree, &moved, &format!("edit round {round}"));
        tree.rebin(&moved);
        pos = moved;
    }
}

#[test]
fn bodies_redrawn_inside_their_leaf_rebin_like_the_full_sort() {
    // Nobody leaves, and each leaf's stayers come in random order: a leaf of
    // k of them averages k(k − 1)/4 inversions, past any budget linear in k
    // once k is large, so an adaptive stayer sort must finish with its
    // fallback on the full leaves.
    let pos = cloud(40_000, 61);
    let tree = build_with(&pos, 96, 21);
    let full = tree
        .visible_leaves()
        .into_iter()
        .filter(|&l| tree.node(l).count() >= 64)
        .count();
    assert!(full > 100, "{full} leaves of 64 bodies or more");
    let mut rng = StdRng::seed_from_u64(62);
    let mut moved = pos.clone();
    for leaf in tree.visible_leaves() {
        let node = tree.node(leaf);
        for i in node.range() {
            let mut at = || node.half_width * rng.random_range(-0.999..0.999);
            moved[tree.order()[i] as usize] = node.center + Vec3::new(at(), at(), at());
        }
    }
    assert!(leaver_share(&tree, &moved) < 1e-3);
    assert_rebins_like_the_reference(&tree, &moved, "redrawn in the leaf");
}

/// `n` bodies in two tight clusters on opposite sides of the cube.
fn two_clusters(n: usize, seed: u64) -> Vec<Vec3> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let centre = Vec3::splat(if i % 2 == 0 { -0.5 } else { 0.4 });
            let mut at = || rng.random_range(-0.08..0.08);
            centre + Vec3::new(at(), at(), at())
        })
        .collect()
}

/// The motions a regroup is checked under, each applied again at every
/// step: a drift that moves a few per cent of the bodies to another leaf,
/// the cloud breathing out so that cells at its edge empty and fill, and a
/// tenth of the bodies teleporting.
type Motion = fn(&[Vec3], &mut StdRng) -> Vec<Vec3>;
const MOTIONS: [(&str, Motion); 3] = [
    ("drift", |pos, rng| {
        let mut v = || rng.random_range(-2e-3..2e-3);
        pos.iter().map(|&p| p + Vec3::new(v(), v(), v())).collect()
    }),
    ("breath", |pos, _| pos.iter().map(|&p| p * 1.05).collect()),
    ("jumps", |pos, rng| {
        let mut jumps = pos.to_vec();
        teleport(&mut jumps, 0.1, rng);
        jumps
    }),
];

/// Each visible leaf's slice of `got` holds the bodies of the same leaf's
/// slice of `want`, in any order: the bodies are grouped as the sorted tree
/// groups them. A snapshot sorts a copy of the leaves, so `got`'s is
/// `want`'s.
fn assert_grouped_like(got: &Octree, want: &Octree, case: &str) {
    assert!(image(got) == image(want), "{case}: snapshot");
    for leaf in want.visible_leaves() {
        let r = want.node(leaf).range();
        let mut ids = got.order()[r.clone()].to_vec();
        ids.sort_unstable();
        let mut want_ids = want.order()[r].to_vec();
        want_ids.sort_unstable();
        assert!(ids == want_ids, "{case}: leaf {leaf} holds other bodies");
    }
}

/// Regroups without a sort in between, one to three of them, group the
/// bodies exactly as `rebin` does — every node range equal, every leaf
/// slice a permutation of the sorted one — and pass the audit; a
/// `sort_leaves` then gives the full sort's order and codes, body by body.
/// Plummer, uniform and two-cluster bodies, with leavers and with leaves
/// that empty and fill, at widths 1, 2, 3 and 8.
#[test]
fn regroups_group_like_rebin_and_sort_to_the_full_sort() {
    let mut rng = StdRng::seed_from_u64(63);
    let clouds = [
        ("plummer", cloud(25_000, 64)),
        ("uniform", bodies(25_000, 65)),
        ("two clusters", two_clusters(25_000, 66)),
    ];
    for (name, start) in clouds {
        let tree = build(&start);
        let (mut emptied, mut filled, mut unsorted) = (0, 0, 0);
        for (motion, apply) in MOTIONS {
            let mut steps = vec![apply(&start, &mut rng)];
            for _ in 1..3 {
                let next = apply(steps.last().unwrap(), &mut rng);
                steps.push(next);
            }
            // The sorted reference after each step, and its populations.
            let mut sorted = vec![tree.clone()];
            for pos in &steps {
                let mut next = sorted.last().unwrap().clone();
                next.rebin(pos);
                sorted.push(next);
            }
            for pair in sorted.windows(2) {
                for leaf in tree.visible_leaves() {
                    let (before, after) = (pair[0].node(leaf).count(), pair[1].node(leaf).count());
                    emptied += usize::from(before > 0 && after == 0);
                    filled += usize::from(before == 0 && after > 0);
                }
            }
            for width in WIDTHS {
                for k in 1..=3 {
                    let case = format!("{name}, {motion}, width {width}, {k} regroups");
                    let mut grouped = tree.clone();
                    for (i, pos) in steps[..k].iter().enumerate() {
                        at_width(width, || grouped.regroup(pos));
                        assert!(!grouped.leaves_sorted(), "{case}");
                        grouped.check_invariants().expect(&case);
                        assert_grouped_like(&grouped, &sorted[i + 1], &format!("{case}, step {i}"));
                        unsorted += usize::from(grouped.order() != sorted[i + 1].order());
                    }
                    at_width(width, || grouped.sort_leaves());
                    let (order, codes) = full_sort(&steps[k - 1]);
                    let got = image(&grouped);
                    assert!(got.0 == order && got.1 == codes, "{case}: sorted");
                    assert!(grouped.leaves_sorted(), "{case}");
                    grouped.check_invariants().expect(&case);
                }
            }
        }
        assert!(
            emptied > 0 && filled > 0,
            "{name}: {emptied} emptied, {filled} filled"
        );
        assert!(unsorted > 0, "{name}: every regroup left its leaves sorted");
    }
}

/// `sort_leaves` on a sorted tree changes nothing, and a snapshot of a
/// regrouped tree is the snapshot of the same tree sorted.
#[test]
fn sorting_is_idempotent_and_snapshots_see_the_sorted_tree() {
    let pos = cloud(20_000, 67);
    let mut tree = build(&pos);
    let mut moved = pos.clone();
    teleport(&mut moved, 0.05, &mut StdRng::seed_from_u64(68));
    tree.regroup(&moved);
    let snap = tree.snapshot();
    tree.sort_leaves();
    let sorted = image(&tree);
    tree.sort_leaves();
    assert!(image(&tree) == sorted, "a second sort moved bodies");
    let again = tree.snapshot();
    assert!(snap.order == again.order && snap.codes == again.codes);
    Octree::from_snapshot(snap).expect("the snapshot of a regrouped tree");
}

/// A regrouped tree whose leaves are not sorted yet.
fn regrouped() -> Octree {
    let pos = cloud(6000, 69);
    let mut tree = build(&pos);
    let moved: Vec<Vec3> = pos.iter().map(|&p| p * 1.02).collect();
    tree.regroup(&moved);
    tree
}

#[test]
#[should_panic(expected = "sort_leaves first")]
fn price_refuses_an_unsorted_tree() {
    let tree = regrouped();
    tree.price(
        48,
        octree::Mac::default(),
        &mut octree::PriceScratch::default(),
    );
}

#[test]
#[should_panic(expected = "sort_leaves first")]
fn resplit_refuses_an_unsorted_tree() {
    regrouped().resplit(48);
}

#[test]
#[should_panic(expected = "sort_leaves first")]
fn push_down_refuses_an_unsorted_tree() {
    let mut tree = regrouped();
    let leaf = tree.active_leaves()[0];
    tree.push_down(leaf);
}
