//! The sorted codes fix the tree at every S. Checked two ways against a
//! fresh `build_adaptive_in_cube` of the same positions in the same cube:
//!
//! * `Octree::price` at every S of a ×1.6 grid from 1 to N + 1 equals
//!   `count_ops` of the fresh tree and its `dual_traversal`, field for
//!   field, and its entry count equals the fresh lists' M2L + P2P entries —
//!   on Plummer, uniform and two-cluster bodies, after rebins that move
//!   bodies across leaves and out of the cube, at one and two workers;
//! * `Octree::resplit` after such a rebin equals the fresh tree node for
//!   node, every field, with the same `order` and `codes` — collapsed and
//!   pushed-down trees and coincident bodies at a shallow `max_level`
//!   included.

use geom::Vec3;
use octree::{
    build_adaptive_in_cube, count_ops, dual_traversal, BuildParams, Mac, Node, Octree, PriceScratch,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const CENTER: Vec3 = Vec3::ZERO;
const HALF_WIDTH: f64 = 4.0;

fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool is only a width")
        .install(op)
}

/// Plummer, uniform and two-cluster bodies, `n` of each.
fn distributions(n: usize, seed: u64) -> Vec<(&'static str, Vec<Vec3>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = |at: Vec3, r: f64| {
        at + Vec3::new(
            rng.random_range(-r..r),
            rng.random_range(-r..r),
            rng.random_range(-r..r),
        )
    };
    let two: Vec<Vec3> = (0..n)
        .map(|i| match i % 3 {
            0 => cluster(Vec3::new(-2.0, 1.0, 0.5), 0.05),
            _ => cluster(Vec3::new(1.5, -0.5, -1.0), 0.4),
        })
        .collect();
    vec![
        ("plummer", nbody::plummer(n, 1.0, 1.0, seed).pos),
        ("uniform", nbody::uniform_cube(n, 3.0, seed + 1).pos),
        ("two clusters", two),
    ]
}

/// Move every body a little, one in ten far, one in fifty out of the cube.
fn stir(pos: &mut [Vec3], rng: &mut StdRng) {
    for p in pos.iter_mut() {
        let reach = match rng.random_range(0..50) {
            0 => 8.0,
            1..=5 => 0.5,
            _ => 0.02,
        };
        *p += Vec3::new(
            rng.random_range(-reach..reach),
            rng.random_range(-reach..reach),
            rng.random_range(-reach..reach),
        );
    }
}

fn params(s: usize, max_level: u16) -> BuildParams {
    BuildParams {
        s,
        max_level,
        pad: 1e-6,
    }
}

/// The ×1.6 grid from 1 to `n + 1`.
fn grid(n: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1usize), |&s| {
        Some(((s as f64 * 1.6).ceil() as usize).max(s + 1))
    })
    .take_while(move |&s| s <= n + 1)
}

#[test]
fn price_equals_the_counts_of_a_fresh_build() {
    let mac = Mac::default();
    let mut rng = StdRng::seed_from_u64(5);
    for (name, mut pos) in distributions(2500, 31) {
        let mut tree = build_adaptive_in_cube(&pos, params(40, 21), CENTER, HALF_WIDTH);
        for rebin in 0..2 {
            stir(&mut pos, &mut rng);
            tree.rebin(&pos);
            for s in grid(pos.len()) {
                let fresh = build_adaptive_in_cube(&pos, params(s, 21), CENTER, HALF_WIDTH);
                let lists = dual_traversal(&fresh, mac);
                let want = count_ops(&fresh, &lists);
                let entries = lists.num_m2l() + lists.num_p2p_pairs();
                for width in [1, 2] {
                    let got = at_width(width, || tree.price(s, mac, &mut PriceScratch::default()));
                    let at = format!("{name}, rebin {rebin}, S {s}, width {width}");
                    assert_eq!(got, (want, entries), "{at}");
                }
            }
        }
    }
}

/// One scratch serves candidates of every size, in any order.
#[test]
fn a_scratch_reused_across_candidates_prices_each_exactly() {
    let mac = Mac::new(0.5);
    let pos = nbody::plummer(3000, 1.0, 1.0, 41).pos;
    let tree = build_adaptive_in_cube(&pos, params(64, 21), CENTER, HALF_WIDTH);
    let mut scratch = PriceScratch::default();
    for s in [3000, 1, 181, 17, 17, 600, 2] {
        let fresh = build_adaptive_in_cube(&pos, params(s, 21), CENTER, HALF_WIDTH);
        let lists = dual_traversal(&fresh, mac);
        let want = (
            count_ops(&fresh, &lists),
            lists.num_m2l() + lists.num_p2p_pairs(),
        );
        assert_eq!(tree.price(s, mac, &mut scratch), want, "S {s}");
    }
}

/// Every field of a node, floats by bit pattern.
fn fields(n: &Node) -> [u64; 10] {
    [
        n.center.x.to_bits(),
        n.center.y.to_bits(),
        n.center.z.to_bits(),
        n.half_width.to_bits(),
        n.level as u64,
        n.parent as u64,
        n.first_child as u64,
        n.begin as u64,
        n.end as u64,
        n.collapsed as u64,
    ]
}

fn assert_same_tree(got: &Octree, want: &Octree, at: &str) {
    let (got, want) = (got.snapshot(), want.snapshot());
    assert_eq!(got.nodes.len(), want.nodes.len(), "{at}: node count");
    for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
        assert_eq!(fields(g), fields(w), "{at}: node {i}");
    }
    assert_eq!(got.order, want.order, "{at}: order");
    assert_eq!(got.codes, want.codes, "{at}: codes");
    assert_eq!(got.s_value, want.s_value, "{at}: S");
    assert_eq!(got.max_level, want.max_level, "{at}: max level");
    let cube = |t: &octree::TreeSnapshot| (t.root_center, t.root_half_width.to_bits());
    assert_eq!(cube(&got), cube(&want), "{at}: cube");
}

#[test]
fn resplit_after_a_rebin_equals_a_fresh_build() {
    let mut rng = StdRng::seed_from_u64(6);
    for (name, mut pos) in distributions(2000, 51) {
        for max_level in [21, 5] {
            let mut tree = build_adaptive_in_cube(&pos, params(24, max_level), CENTER, HALF_WIDTH);
            for (round, s) in [7, 300, 1, 24, 2001].into_iter().enumerate() {
                // Edits first, so the old arena has hidden subtrees too.
                let inner: Vec<_> = (tree.visible_nodes().into_iter().skip(1))
                    .filter(|&id| !tree.node(id).is_leaf())
                    .step_by(5)
                    .collect();
                for id in inner {
                    tree.collapse(id);
                }
                if let Some(&leaf) = tree
                    .active_leaves()
                    .iter()
                    .max_by_key(|&&l| tree.node(l).count())
                {
                    tree.push_down(leaf);
                }
                stir(&mut pos, &mut rng);
                tree.rebin(&pos);
                tree.resplit(s);
                tree.check_invariants().unwrap();
                let fresh = build_adaptive_in_cube(&pos, params(s, max_level), CENTER, HALF_WIDTH);
                assert_same_tree(
                    &tree,
                    &fresh,
                    &format!("{name}, max level {max_level}, round {round}"),
                );
            }
        }
    }
}

/// Bodies that cannot be told apart stop the split at `max_level`, however
/// small S is: one overfull leaf, no deeper node.
#[test]
fn resplit_of_coincident_bodies_stops_at_max_level() {
    let mut pos = vec![Vec3::new(0.3, -0.2, 0.1); 64];
    pos.extend(nbody::uniform_cube(64, 3.0, 61).pos);
    let mut tree = build_adaptive_in_cube(&pos, params(200, 6), CENTER, HALF_WIDTH);
    tree.resplit(1);
    assert!(tree.depth() <= 6, "depth {}", tree.depth());
    let fullest = tree
        .active_leaves()
        .into_iter()
        .map(|l| tree.node(l).count())
        .max();
    assert_eq!(fullest, Some(64));
    let fresh = build_adaptive_in_cube(&pos, params(1, 6), CENTER, HALF_WIDTH);
    assert_same_tree(&tree, &fresh, "coincident bodies");
}
