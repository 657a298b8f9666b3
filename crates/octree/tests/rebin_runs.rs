//! The tree order is one total order — ascending (Morton code, body id) —
//! however many workers sorted it. Builds and rebins at widths 1, 2, 3 and 8
//! (real forked threads under `ThreadPool::install`) are checked against a
//! full `sort_unstable` of all pairs computed here, body by body, and node
//! range by node range against the one-worker tree: sizes from no body to
//! eight runs' worth, on both sides of the shortest run a worker takes,
//! duplicate positions (equal codes, so only the id orders them), bodies
//! clamped from outside the cube, collapsed subtrees, and motion from one
//! body in a thousand to every body teleporting.

use geom::{morton_encode, Vec3, MAX_MORTON_LEVEL};
use octree::{build_adaptive_in_cube, BuildParams, Octree, TreeSnapshot};
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
