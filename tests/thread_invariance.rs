//! DESIGN §5's sentence as a test: a solve's bits depend on the tree and the
//! plan's lists, never on how many workers ran it. Every solve here runs at
//! widths 1, 2, 3 and 8 under `ThreadPool::install` — real forked threads
//! whatever the host's core count — and must equal width 1, the inline path
//! that spawns nothing, bit for bit: both kernels, a centred and a lopsided
//! body set, fresh and patched plans, leaf capacities on both sides of the
//! near/far balance, and the checkpoint text of a run whose trajectory is
//! driven by the solved field — once more with trees big enough that every
//! plan rebuild forks. The tree under the solve is held to the same rule:
//! built or re-binned through any number of workers it is the same snapshot,
//! and the solve on it after motion the same bits.

use afmm_repro::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

const WIDTHS: [usize; 4] = [1, 2, 3, 8];
const CAPACITIES: [usize; 3] = [16, 160, 512];

fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool is only a width")
        .install(op)
}

fn plummer(n: usize, seed: u64) -> Vec<Vec3> {
    nbody::plummer(n, 1.0, 1.0, seed).pos
}

/// Seven eighths of the bodies in a tight clump far from the centre, the
/// rest spread wide: the tree-order leaf list is dense at one end, so equal
/// static halves would leave one worker nearly idle.
fn lopsided(n: usize, seed: u64) -> Vec<Vec3> {
    let clump = nbody::plummer(n - n / 8, 0.03, 1.0, seed).pos;
    let halo = nbody::plummer(n / 8, 1.0, 1.0, seed + 1).pos;
    let offset = Vec3::new(0.7, 0.55, -0.4);
    clump.into_iter().map(|p| p + offset).chain(halo).collect()
}

fn bits(sol: &afmm::FmmSolution) -> Vec<u64> {
    let field = sol.field.iter().flat_map(|v| [v.x, v.y, v.z]);
    sol.pot
        .iter()
        .copied()
        .chain(field)
        .map(f64::to_bits)
        .collect()
}

/// A seeded run of plan-routed collapses and push-downs; the same sequence
/// on every engine built from the same bodies.
fn random_edits<K: Kernel>(engine: &mut FmmEngine<K>, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut applied = 0;
    for _ in 0..24 {
        let nodes = engine.tree().visible_nodes();
        let id = nodes[rng.random_range(0..nodes.len())];
        applied += usize::from(if rng.random_bool(0.5) {
            engine.apply_collapse(id)
        } else {
            engine.apply_push_down(id)
        });
    }
    applied
}

/// Solve on a fresh plan, patch the plan through random edits, solve again;
/// both solutions as bits.
fn fresh_then_patched<K: Kernel + Copy>(
    kernel: K,
    pos: &[Vec3],
    strength: &[f64],
    s: usize,
    width: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut engine = FmmEngine::new(kernel, FmmParams::default(), pos, s);
    let fresh = at_width(width, || bits(&engine.solve(pos, strength)));
    assert!(engine.plan_epoch().is_some());
    assert!(random_edits(&mut engine, 29) > 0, "no edit took");
    assert!(
        engine.plan_epoch().is_some(),
        "edits must patch, not invalidate"
    );
    let patched = at_width(width, || bits(&engine.solve(pos, strength)));
    assert_ne!(fresh, patched, "the edits changed nothing the solve sees");
    (fresh, patched)
}

fn assert_width_invariant<K: Kernel + Copy>(kernel: K, pos: &[Vec3], strength: &[f64]) {
    for s in CAPACITIES {
        let one = fresh_then_patched(kernel, pos, strength, s, 1);
        for width in &WIDTHS[1..] {
            let k = fresh_then_patched(kernel, pos, strength, s, *width);
            let name = kernel.name();
            assert!(
                one.0 == k.0,
                "{name} S={s}: fresh plan, width {width} differs"
            );
            assert!(
                one.1 == k.1,
                "{name} S={s}: patched plan, width {width} differs"
            );
        }
    }
}

#[test]
fn gravity_solve_bits_do_not_depend_on_width() {
    for pos in [plummer(1000, 3), lopsided(1000, 5)] {
        let mass = vec![1.0 / pos.len() as f64; pos.len()];
        assert_width_invariant(GravityKernel::default(), &pos, &mass);
    }
}

#[test]
fn stokeslet_solve_bits_do_not_depend_on_width() {
    for pos in [plummer(600, 7), lopsided(600, 9)] {
        let forces = nbody::random_unit_forces(pos.len(), 13);
        assert_width_invariant(StokesletKernel::new(1e-3, 1.0), &pos, &forces);
    }
}

/// Built on `width` workers, then the bodies move and the tree is re-binned,
/// the plan refreshed and the field solved on them too: the tree's snapshot
/// and the solution's bits. Enough bodies that the re-binning sort is cut
/// into two runs wherever there are two workers.
fn rebinned_after_motion<K: Kernel + Copy>(
    kernel: K,
    start: &[Vec3],
    strength: &[f64],
    width: usize,
) -> (String, Vec<u64>) {
    at_width(width, || {
        let mut engine = FmmEngine::new(kernel, FmmParams::default(), start, 160);
        engine.refresh_plan();
        // A swirl about z with a mild contraction: most bodies stay in their
        // leaf, some cross into a neighbour's.
        let moved: Vec<Vec3> = start
            .iter()
            .map(|p| Vec3::new(p.x - 0.02 * p.y, p.y + 0.02 * p.x, p.z) * 0.99)
            .collect();
        engine.rebin(&moved);
        engine.refresh_plan();
        let sol = engine.solve(&moved, strength);
        (format!("{:?}", engine.tree().snapshot()), bits(&sol))
    })
}

#[test]
fn rebin_then_solve_does_not_depend_on_width() {
    let pos = lopsided(16_500, 23);
    let mass = vec![1.0 / pos.len() as f64; pos.len()];
    let forces = nbody::random_unit_forces(pos.len(), 25);
    let gravity = |w| rebinned_after_motion(GravityKernel::default(), &pos, &mass, w);
    let stokes = |w| rebinned_after_motion(StokesletKernel::new(1e-3, 1.0), &pos, &forces, w);
    let (g1, s1) = (gravity(1), stokes(1));
    assert!(g1.0 == s1.0, "one tree under both kernels");
    for width in &WIDTHS[1..] {
        let (gk, sk) = (gravity(*width), stokes(*width));
        assert!(g1.0 == gk.0, "tree after rebin, width {width}");
        assert!(g1.1 == gk.1, "gravity after rebin, width {width}");
        assert!(s1.1 == sk.1, "stokeslet after rebin, width {width}");
    }
}

/// Enough bodies for eight runs: the built tree is the same snapshot —
/// order, codes, every node — at any width.
#[test]
fn built_tree_does_not_depend_on_width() {
    let pos = lopsided(70_000, 27);
    let build = |w| {
        at_width(w, || {
            let params = BuildParams::with_s(48);
            let tree = octree::build_adaptive_in_cube(&pos, params, Vec3::splat(0.2), 1.5);
            format!("{:?}", tree.snapshot())
        })
    };
    let one = build(1);
    for width in &WIDTHS[1..] {
        assert!(one == build(*width), "width {width}");
    }
}

/// A balanced run whose bodies move along the solved field, so everything
/// the checkpoint holds — positions, tree, plan, balancer and cost-model
/// state, step records — is downstream of the solve's bits.
fn checkpoint_after_run<K: Kernel + Copy>(
    kernel: K,
    start: &[Vec3],
    strength: &[f64],
    width: usize,
    lb: LbConfig,
) -> String {
    let node = HeteroNode::system_a(10, 2);
    let mut tracker = StrategyTracker::new(
        kernel,
        FmmParams::default(),
        node,
        Strategy::Full,
        lb,
        start,
        None,
    );
    let mut pos = start.to_vec();
    at_width(width, || {
        for _ in 0..4 {
            tracker.step(&pos).expect("healthy node");
            let sol = tracker.engine_mut().solve(&pos, strength);
            for (p, v) in pos.iter_mut().zip(&sol.field) {
                *p += *v * 1e-3;
            }
        }
    });
    tracker.checkpoint(&pos)
}

/// The balancer every checkpoint run steps with: the default one, with an
/// exit threshold scaled to these millisecond steps.
fn lb() -> LbConfig {
    LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    }
}

#[test]
fn checkpoint_bytes_do_not_depend_on_width() {
    let pos = lopsided(800, 17);
    let mass = vec![1.0 / pos.len() as f64; pos.len()];
    let forces = nbody::random_unit_forces(pos.len(), 19);
    let gravity = |w| checkpoint_after_run(GravityKernel::default(), &pos, &mass, w, lb());
    let stokes = |w| checkpoint_after_run(StokesletKernel::new(1e-3, 1.0), &pos, &forces, w, lb());
    let (g1, s1) = (gravity(1), stokes(1));
    assert_ne!(g1, s1);
    for width in &WIDTHS[1..] {
        assert!(g1 == gravity(*width), "gravity, width {width}");
        assert!(s1 == stokes(*width), "stokeslet, width {width}");
    }
}

/// The same run with plans large enough that their rebuilds fork: leaf
/// capacities searched from 4 to 64 cut 6 000 bodies into trees of a few
/// thousand nodes, each plan traversed one root octant per worker.
#[test]
fn forked_plan_rebuilds_keep_checkpoint_bytes() {
    let pos = lopsided(6000, 31);
    let mass = vec![1.0 / pos.len() as f64; pos.len()];
    let fine = LbConfig {
        s_min: 4,
        s_max: 64,
        ..lb()
    };
    // Search starts at the geometric middle of the range, S = 16.
    let first = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, 16);
    let nodes = first.tree().num_nodes();
    assert!(
        nodes >= 1024,
        "{nodes} nodes: under the size rebuilds fork from"
    );
    let gravity = |w| checkpoint_after_run(GravityKernel::default(), &pos, &mass, w, fine);
    let one = gravity(1);
    for width in &WIDTHS[1..] {
        assert!(one == gravity(*width), "width {width}");
    }
}
