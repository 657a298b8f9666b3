//! Cross-crate accuracy tests: the full AFMM pipeline (octree, expansions,
//! interaction lists, near field) against direct summation, for both of
//! the paper's kernels, across expansion orders, MAC strictness, and
//! decomposition shapes.

use afmm_repro::prelude::*;
use fmm_math::Kernel;

fn rel_err(fmm: &[Vec3], direct: &[Vec3]) -> f64 {
    let num: f64 = fmm
        .iter()
        .zip(direct)
        .map(|(a, b)| (*a - *b).norm_sq())
        .sum();
    let den: f64 = direct.iter().map(|v| v.norm_sq()).sum();
    (num / den).sqrt()
}

fn gravity_direct(bodies: &nbody::Bodies) -> Vec<Vec3> {
    nbody::direct_gravity(bodies, 1.0, 0.0)
}

#[test]
fn gravity_accuracy_improves_with_order() {
    let b = nbody::plummer(500, 1.0, 1.0, 1001);
    let direct = gravity_direct(&b);
    let mut last = f64::INFINITY;
    for order in [2usize, 4, 6, 8] {
        let params = FmmParams {
            order,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut e = FmmEngine::new(GravityKernel::default(), params, &b.pos, 20);
        let err = rel_err(&e.solve(&b.pos, &b.mass).field, &direct);
        assert!(err < last, "p={order}: {err} !< {last}");
        last = err;
    }
    assert!(last < 1e-6, "p=8 error {last}");
}

#[test]
fn gravity_accuracy_improves_with_stricter_mac() {
    let b = nbody::plummer(500, 1.0, 1.0, 1002);
    let direct = gravity_direct(&b);
    let mut errs = Vec::new();
    for theta in [0.9f64, 0.6, 0.35] {
        let params = FmmParams {
            order: 4,
            mac: Mac::new(theta),
            max_level: 21,
        };
        let mut e = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
        errs.push(rel_err(&e.solve(&b.pos, &b.mass).field, &direct));
    }
    assert!(
        errs[2] < errs[0],
        "stricter MAC must be more accurate: {errs:?}"
    );
    assert!(errs[2] < 1e-4);
}

#[test]
fn potentials_match_direct_sum() {
    let b = nbody::plummer(300, 1.0, 1.0, 1003);
    let params = FmmParams {
        order: 6,
        mac: Mac::new(0.5),
        max_level: 21,
    };
    let mut e = FmmEngine::new(GravityKernel::default(), params, &b.pos, 24);
    let sol = e.solve(&b.pos, &b.mass);
    for i in (0..b.len()).step_by(17) {
        let mut exact = 0.0;
        for j in 0..b.len() {
            if i != j {
                exact += b.mass[j] / b.pos[i].dist(b.pos[j]);
            }
        }
        let rel = (sol.pot[i] - exact).abs() / exact.abs();
        assert!(rel < 1e-4, "potential at body {i}: {rel}");
    }
}

#[test]
fn stokeslet_velocities_match_direct() {
    let pts = nbody::uniform_cube(400, 1.0, 1004);
    let f = nbody::random_unit_forces(400, 1005);
    let kernel = StokesletKernel::new(1e-3, 2.0);
    let mut dpot = vec![0.0; 400];
    let mut du = vec![Vec3::ZERO; 400];
    kernel.p2p(&pts.pos, &mut dpot, &mut du, &pts.pos, &f, true);

    let params = FmmParams {
        order: 6,
        mac: Mac::new(0.5),
        max_level: 21,
    };
    let mut e = FmmEngine::new(kernel, params, &pts.pos, 24);
    let err = rel_err(&e.solve(&pts.pos, &f).field, &du);
    assert!(err < 1e-3, "stokeslet error {err}");
}

#[test]
fn uniform_decomposition_agrees_with_adaptive() {
    // Same physics through the classic fixed-depth FMM decomposition: build
    // a uniform tree, drive the same pipeline, compare fields.
    let b = nbody::uniform_cube(600, 1.0, 1006);
    let params = FmmParams {
        order: 6,
        mac: Mac::new(0.5),
        max_level: 21,
    };
    let mut adaptive = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
    let sa = adaptive.solve(&b.pos, &b.mass);
    let direct = gravity_direct(&b);
    assert!(rel_err(&sa.field, &direct) < 1e-4);
    // The adaptive engine with enormous S degenerates to a shallow tree;
    // with S = 1 it refines everywhere (uniform-like on uniform data). All
    // must agree.
    let mut fine = FmmEngine::new(GravityKernel::default(), params, &b.pos, 4);
    let sf = fine.solve(&b.pos, &b.mass);
    assert!(rel_err(&sf.field, &sa.field) < 1e-4);
}

#[test]
fn clustered_distribution_no_accuracy_loss() {
    // The adaptive FMM's raison d'être: accuracy must hold when density
    // varies by orders of magnitude.
    let mut b = nbody::plummer(300, 1.0, 1.0, 1007);
    // Embed a very tight knot.
    for i in 0..100 {
        let p = Vec3::new(3.0, 3.0, 3.0) + Vec3::splat(1e-4 * i as f64);
        b.push(p, Vec3::ZERO, 0.5);
    }
    let direct = gravity_direct(&b);
    let params = FmmParams {
        order: 6,
        mac: Mac::new(0.5),
        max_level: 21,
    };
    let mut e = FmmEngine::new(GravityKernel::default(), params, &b.pos, 16);
    let err = rel_err(&e.solve(&b.pos, &b.mass).field, &direct);
    assert!(err < 1e-4, "clustered error {err}");
}

#[test]
fn solution_invariant_under_tree_maintenance() {
    // enforce_s / collapse / push_down / rebin must never change the answer
    // beyond expansion accuracy.
    let b = nbody::plummer(400, 1.0, 1.0, 1008);
    let params = FmmParams {
        order: 6,
        mac: Mac::new(0.5),
        max_level: 21,
    };
    let mut e = FmmEngine::new(GravityKernel::default(), params, &b.pos, 32);
    let base = e.solve(&b.pos, &b.mass);
    e.tree_mut().set_s_value(12);
    e.tree_mut().enforce_s();
    let after_enforce = e.solve(&b.pos, &b.mass);
    assert!(rel_err(&after_enforce.field, &base.field) < 1e-4);
    e.rebin(&b.pos);
    let after_rebin = e.solve(&b.pos, &b.mass);
    assert_eq!(
        after_rebin.field, after_enforce.field,
        "rebin of unmoved bodies is a no-op"
    );
}

/// Accuracy as an explicit tolerance. Kernel rewrites reassociate float
/// sums, so bit-identity with an earlier commit cannot be the physics
/// oracle; these bounds are. Each is the relative L2 field error on a
/// 3000-body Plummer sphere at order 6, θ = 0.6, times 1.01 — a perf
/// change may move the trailing digits of a sum, never the error level.
///
/// The S = 16 and 96 rows are expansion truncation, measured with the
/// scalar AoS kernels this table was introduced to replace. At S = 512 the
/// 3000 bodies leave almost everything to the near field, so those two rows
/// are the rounding floor of the single-precision P2P
/// ([`Kernel::p2p_split`]), measured on it: 2.4e-7 and 3.0e-7 where the f64
/// P2P read 1.8e-7 and 8.9e-8.
#[test]
fn field_error_within_pinned_tolerances() {
    let n = 3000;
    let b = nbody::plummer(n, 1.0, 1.0, 1009);
    let f = nbody::random_unit_forces(n, 1010);
    let stokes = StokesletKernel::new(1e-3, 1.0);
    let gravity_ref = gravity_direct(&b);
    let (mut pot, mut stokes_ref) = (vec![0.0; n], vec![Vec3::ZERO; n]);
    stokes.p2p(&b.pos, &mut pot, &mut stokes_ref, &b.pos, &f, true);

    // (leaf capacity S, gravity bound, Stokeslet bound)
    let table = [
        (16, 3.8828e-5 * 1.01, 1.6309e-5 * 1.01),
        (96, 2.4244e-5 * 1.01, 8.3655e-6 * 1.01),
        (512, 2.3708e-7 * 1.01, 3.0324e-7 * 1.01),
    ];
    for (s, gravity_bound, stokes_bound) in table {
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s);
        let err = rel_err(&e.solve(&b.pos, &b.mass).field, &gravity_ref);
        assert!(
            err <= gravity_bound,
            "gravity S={s}: {err:e} > {gravity_bound:e}"
        );
        let mut e = FmmEngine::new(stokes, FmmParams::default(), &b.pos, s);
        let err = rel_err(&e.solve(&b.pos, &f).field, &stokes_ref);
        assert!(
            err <= stokes_bound,
            "stokeslet S={s}: {err:e} > {stokes_bound:e}"
        );
    }
}

/// The far field runs in single precision in cell units: each M2L's
/// derivative tensor at `r / max(w_s, w_t)`, each source's moments in units
/// of its own half-width. So one Plummer sphere (N = 3000, S = 16) scaled by 1e-6
/// or 1e6 — where `∂^γ(1/r)` itself would overflow or underflow `f32` at
/// order 6 — keeps a finite field within 1.25× of its unscaled error
/// against direct sum. (The error moves a little with the scale even in
/// `f64`: the tree's cube padding does not scale, so the cells shift.)
#[test]
fn field_error_does_not_depend_on_the_length_scale() {
    let base = nbody::plummer(3000, 1.0, 1.0, 1009);
    let err_at = |s: f64| {
        let mut b = base.clone();
        for p in &mut b.pos {
            *p *= s;
        }
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 16);
        let field = e.solve(&b.pos, &b.mass).field;
        assert!(
            field.iter().all(|f| f.is_finite()),
            "scale {s:e}: field not finite"
        );
        rel_err(&field, &gravity_direct(&b))
    };
    let unscaled = err_at(1.0);
    for s in [1e-6, 1e6] {
        let err = err_at(s);
        assert!(
            err <= 1.25 * unscaled,
            "scale {s:e}: error {err:e} against {unscaled:e} unscaled"
        );
    }
}

/// At the highest order the expansion tables accept, a solve is finite
/// and as accurate as at p = 10, for both kernels (gravity 7.7e-8 against
/// 1.8e-7, Stokeslet 9.27e-8 against 9.34e-8: from p ≈ 10 on, the error is
/// the single-precision rounding floor); one order more is refused.
#[test]
fn highest_order_solves_finite_and_as_accurately_as_order_ten() {
    let b = nbody::plummer(400, 1.0, 1.0, 1011);
    let f = nbody::random_unit_forces(b.len(), 1012);
    let stokes = StokesletKernel::new(1e-3, 1.0);
    let (mut pot, mut stokes_ref) = (vec![0.0; b.len()], vec![Vec3::ZERO; b.len()]);
    stokes.p2p(&b.pos, &mut pot, &mut stokes_ref, &b.pos, &f, true);
    let errs = |order: usize| {
        let params = FmmParams {
            order,
            mac: Mac::new(0.5),
            max_level: 21,
        };
        let mut g = FmmEngine::new(GravityKernel::default(), params, &b.pos, 20);
        let mut s = FmmEngine::new(stokes, params, &b.pos, 20);
        let (g, s) = (g.solve(&b.pos, &b.mass).field, s.solve(&b.pos, &f).field);
        for v in g.iter().chain(&s) {
            assert!(v.is_finite(), "p={order}: field not finite");
        }
        [rel_err(&g, &gravity_direct(&b)), rel_err(&s, &stokes_ref)]
    };
    let [g10, s10] = errs(10);
    let [g, s] = errs(fmm_math::MAX_ORDER);
    assert!(
        g <= 1.1 * g10,
        "gravity: {g:e} at the highest order, {g10:e} at p = 10"
    );
    assert!(
        s <= 1.1 * s10,
        "Stokeslet: {s:e} at the highest order, {s10:e} at p = 10"
    );
}

#[test]
#[should_panic(expected = "expansion order 17")]
fn order_above_the_highest_is_refused() {
    assert_eq!(fmm_math::MAX_ORDER, 16);
    let b = nbody::plummer(100, 1.0, 1.0, 1013);
    FmmEngine::new(
        GravityKernel::default(),
        FmmParams::with_order(17),
        &b.pos,
        20,
    );
}

/// A close pair in a wide leaf: two bodies ≈ 1e-6 apart among 200 spread
/// over a cube of width 2, all in one leaf, no softening. At either body of
/// the pair the field is almost all the pair's own 1/r² term, so it needs
/// the separation to f32 precision relative to 1e-6: f32 coordinates taken
/// relative to anything as wide as the leaf resolve it only to
/// ≈ 6e-8 / 1e-6 = 6 %, split (`hi + lo`) ones to ≈ 1e-7.
#[test]
fn close_pair_in_a_wide_leaf_keeps_its_separation() {
    fn check<K: Kernel + Copy>(kernel: K, pos: &[Vec3], strength: &[f64]) {
        let n = pos.len();
        let (mut pot, mut direct) = (vec![0.0; n], vec![Vec3::ZERO; n]);
        kernel.p2p(pos, &mut pot, &mut direct, pos, strength, true);
        let mut e = FmmEngine::new(kernel, FmmParams::default(), pos, 512);
        assert_eq!(e.tree().active_leaves().len(), 1, "one leaf");
        let sol = e.solve(pos, strength);
        for i in [n - 2, n - 1] {
            let rel = (sol.field[i] - direct[i]).norm() / direct[i].norm();
            assert!(rel <= 1e-5, "{} body {i}: {rel:e}", kernel.name());
        }
    }
    let mut b = nbody::uniform_cube(200, 1.0, 1013);
    let at = Vec3::new(0.731, -0.412, 0.598);
    b.push(at, Vec3::ZERO, 1.0);
    b.push(at + Vec3::new(0.8e-6, -0.5e-6, 0.3e-6), Vec3::ZERO, 0.7);
    check(GravityKernel::default(), &b.pos, &b.mass);
    let f = nbody::random_unit_forces(b.len(), 1014);
    check(StokesletKernel::new(0.0, 1.0), &b.pos, &f);
}

/// Bit pattern of a whole solution, for exact comparison.
fn solution_bits(sol: &afmm::FmmSolution) -> Vec<u64> {
    sol.pot
        .iter()
        .copied()
        .chain(sol.field.iter().flat_map(|v| [v.x, v.y, v.z]))
        .map(f64::to_bits)
        .collect()
}

/// The far field runs each M2L list through the lane kernel in chunks, in
/// list order, so the plan's lists alone fix every sum — and the lists are
/// a function of the tree. Checked where the far field is ≈ 90 % of the
/// result (S = 16): a repeated solve, a checkpoint → restore → solve (whose
/// first refresh builds the plan from the restored tree), and a solve on a
/// plan patched through collapses and push-downs against one on a plan
/// rebuilt for the same tree are all bit-equal.
fn far_field_is_a_function_of_the_lists<K: Kernel + Copy>(
    kernel: K,
    b: &nbody::Bodies,
    strength: &[f64],
) {
    let mut e = FmmEngine::new(kernel, FmmParams::default(), &b.pos, 16);
    let first = solution_bits(&e.solve(&b.pos, strength));
    assert_eq!(solution_bits(&e.solve(&b.pos, strength)), first, "repeat");

    let text = afmm::checkpoint::engine_to_json(&e.checkpoint_state());
    let snap = afmm::checkpoint::engine_from_json(&text).expect("own checkpoint parses");
    let mut resumed = FmmEngine::restore_state(kernel, snap).expect("own checkpoint restores");
    assert_eq!(
        solution_bits(&resumed.solve(&b.pos, strength)),
        first,
        "resume"
    );

    // Collapse every other twig, then split the leaves that left over
    // capacity: edits routed through the live plan.
    let twigs: Vec<_> = (e.tree().visible_nodes().into_iter())
        .filter(|&id| {
            let n = e.tree().node(id);
            !n.is_leaf() && (e.tree().visible_children(id)).all(|c| e.tree().node(c).is_leaf())
        })
        .step_by(2)
        .collect();
    assert!(e.plan_epoch().is_some() && twigs.len() > 8);
    for id in twigs {
        assert!(e.apply_collapse(id));
    }
    let (outcome, patched) = e.enforce_s();
    assert!(patched && outcome.pushdowns > 0);
    let on_patched = solution_bits(&e.solve(&b.pos, strength));
    let _ = e.tree_mut(); // plan goes stale: the next solve re-traverses
    let on_fresh = solution_bits(&e.solve(&b.pos, strength));
    assert_eq!(on_patched, on_fresh, "patched");
}

#[test]
fn far_field_is_a_function_of_the_lists_for_both_kernels() {
    let b = nbody::plummer(800, 1.0, 1.0, 1011);
    far_field_is_a_function_of_the_lists(GravityKernel::default(), &b, &b.mass);
    let f = nbody::random_unit_forces(b.len(), 1012);
    far_field_is_a_function_of_the_lists(StokesletKernel::new(1e-3, 1.0), &b, &f);
}
