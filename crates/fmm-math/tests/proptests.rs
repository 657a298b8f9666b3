//! Property tests of the expansion mathematics: translation invariances,
//! convergence, and kernel identities on random configurations.

use fmm_math::{
    power_series, DerivScratch, ExpansionOps, GravityKernel, Kernel, StokesletKernel, M2L_LANES,
    STOKESLET_CHANNELS,
};
use geom::Vec3;
use proptest::prelude::*;

fn unit_cluster(n: usize) -> impl Strategy<Value = Vec<(Vec3, f64)>> {
    prop::collection::vec(
        ((-0.3f64..0.3, -0.3f64..0.3, -0.3f64..0.3), 0.1f64..2.0)
            .prop_map(|((x, y, z), q)| (Vec3::new(x, y, z), q)),
        1..n,
    )
}

fn far_point() -> impl Strategy<Value = Vec3> {
    // Random direction, radius in [3, 8] — safely outside the unit cluster.
    ((-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0), 3.0f64..8.0).prop_filter_map(
        "nonzero direction",
        |((x, y, z), r)| {
            let v = Vec3::new(x, y, z);
            v.normalized().map(|u| u * r)
        },
    )
}

fn eval_multipole(ops: &ExpansionOps, m: &[f64], center: Vec3, x: Vec3) -> f64 {
    let mut scratch = DerivScratch::default();
    let t = ops.deriv_tensor(&[x - center], &mut scratch);
    (0..ops.nterms())
        .map(|a| ops.sign(a) * m[a] * t[a][0])
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// P2M + far evaluation approximates the true potential, and the error
    /// bound scales like (cluster radius / distance)^(p+1).
    #[test]
    fn multipole_expansion_converges(srcs in unit_cluster(12), x in far_point()) {
        let exact: f64 = srcs.iter().map(|&(y, q)| q / (x - y).norm()).sum();
        let ops = ExpansionOps::new(8);
        let kernel = GravityKernel::default();
        let pos: Vec<Vec3> = srcs.iter().map(|s| s.0).collect();
        let q: Vec<f64> = srcs.iter().map(|s| s.1).collect();
        let mut m = vec![0.0; ops.nterms()];
        let mut pow = Vec::new();
        kernel.p2m(&ops, Vec3::ZERO, &pos, &q, &mut m, &mut pow);
        let phi = eval_multipole(&ops, &m, Vec3::ZERO, x);
        // a/r <= 0.52/3, so (a/r)^9 is comfortably below 1e-5.
        prop_assert!((phi - exact).abs() <= 1e-4 * exact.abs(), "{phi} vs {exact}");
    }

    /// M2M translation: the translated expansion represents the same field.
    #[test]
    fn m2m_translation_invariance(
        srcs in unit_cluster(10),
        shift in (-0.4f64..0.4, -0.4f64..0.4, -0.4f64..0.4),
        x in far_point(),
    ) {
        let ops = ExpansionOps::new(8);
        let kernel = GravityKernel::default();
        let pos: Vec<Vec3> = srcs.iter().map(|s| s.0).collect();
        let q: Vec<f64> = srcs.iter().map(|s| s.1).collect();
        let child_center = Vec3::ZERO;
        let parent_center = Vec3::new(shift.0, shift.1, shift.2);
        let mut pow = Vec::new();
        let mut mc = vec![0.0; ops.nterms()];
        kernel.p2m(&ops, child_center, &pos, &q, &mut mc, &mut pow);
        let mut mp = vec![0.0; ops.nterms()];
        ops.m2m(&mc, child_center - parent_center, &mut mp, 1, &mut pow);
        let phi_c = eval_multipole(&ops, &mc, child_center, x);
        let phi_p = eval_multipole(&ops, &mp, parent_center, x);
        prop_assert!((phi_c - phi_p).abs() <= 2e-3 * phi_c.abs().max(1e-12),
            "child {phi_c} vs parent {phi_p}");
    }

    /// Power series identity: Σ_α dx^α/α! · (coefficients of an exponential)
    /// telescopes — concretely, the table matches direct monomials.
    #[test]
    fn power_series_matches_monomials(dx in (-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0)) {
        let set = fmm_math::MultiIndexSet::new(6);
        let v = Vec3::new(dx.0, dx.1, dx.2);
        let mut out = vec![0.0; set.len()];
        power_series(v, &set, &mut out);
        for (idx, (i, j, k)) in set.iter() {
            let direct = v.x.powi(i as i32) * v.y.powi(j as i32) * v.z.powi(k as i32)
                * set.inv_factorial(idx);
            prop_assert!((out[idx] - direct).abs() <= 1e-10 * direct.abs().max(1e-10));
        }
    }

    /// The derivative tensor is homogeneous of degree -(|γ|+1) and flips
    /// parity under negation, in every lane of the tensor program, for
    /// random evaluation points (a different one per lane).
    #[test]
    fn tensor_homogeneity_and_parity(
        xs in prop::collection::vec(far_point(), M2L_LANES..M2L_LANES + 1),
        s in 0.5f64..3.0,
    ) {
        let ops = ExpansionOps::new(5);
        let set = ops.set();
        let x: [Vec3; M2L_LANES] = std::array::from_fn(|lane| xs[lane]);
        let mut scratch = DerivScratch::default();
        let t1 = ops.deriv_tensor(&x, &mut scratch).to_vec();
        let ts = ops.deriv_tensor(&x.map(|v| v * s), &mut scratch).to_vec();
        let tn = ops.deriv_tensor(&x.map(|v| -v), &mut scratch).to_vec();
        for idx in 0..set.len() {
            let n = set.total_order(idx) as i32;
            for lane in 0..M2L_LANES {
                let t = t1[idx][lane];
                let hom = t * s.powi(-(n + 1));
                prop_assert!((ts[idx][lane] - hom).abs() <= 1e-9 * hom.abs().max(1e-15));
                let par = if n % 2 == 0 { t } else { -t };
                prop_assert!((tn[idx][lane] - par).abs() <= 1e-12 * t.abs().max(1e-15));
            }
        }
    }

    /// Gravity P2P obeys Newton's third law for arbitrary clusters.
    #[test]
    fn gravity_p2p_newton_third_law(srcs in unit_cluster(20), eps in 0.0f64..0.1) {
        let kernel = GravityKernel::new(eps);
        let pos: Vec<Vec3> = srcs.iter().map(|s| s.0).collect();
        let q: Vec<f64> = srcs.iter().map(|s| s.1).collect();
        let mut pot = vec![0.0; pos.len()];
        let mut acc = vec![Vec3::ZERO; pos.len()];
        kernel.p2p(&pos, &mut pot, &mut acc, &pos, &q, true);
        let net: Vec3 = acc.iter().zip(&q).map(|(&a, &m)| a * m).sum();
        let scale: f64 = acc.iter().zip(&q).map(|(a, &m)| a.norm() * m).sum::<f64>().max(1e-12);
        prop_assert!(net.norm() <= 1e-9 * scale, "net {net:?} vs scale {scale}");
    }

    /// Stokeslet P2P with ε = 0 equals the singular Oseen tensor applied to
    /// the force (checked against the closed form for one pair).
    #[test]
    fn stokeslet_matches_oseen_closed_form(
        x in far_point(),
        f in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
        mu in 0.5f64..4.0,
    ) {
        let kernel = StokesletKernel::new(0.0, mu);
        let force = Vec3::new(f.0, f.1, f.2);
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        kernel.p2p(&[x], &mut pot, &mut u, &[Vec3::ZERO], &[force.x, force.y, force.z], false);
        let r = x.norm();
        let pref = 1.0 / (8.0 * std::f64::consts::PI * mu);
        let expect = (force / r + x * (force.dot(x) / (r * r * r))) * pref;
        prop_assert!((u[0] - expect).norm() <= 1e-12 * expect.norm().max(1e-15));
    }

    /// Stokes flow from internal forces on a closed system: net momentum
    /// flux symmetry — swapping source and target gives the transpose
    /// relation u_i(x; f at y) = u_i(y; f at x) (the Oseen tensor is
    /// symmetric in x−y up to parity).
    #[test]
    fn stokeslet_reciprocity(
        a in far_point(),
        f in (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0),
    ) {
        let kernel = StokesletKernel::new(0.0, 1.0);
        let force = Vec3::new(f.0, f.1, f.2);
        let fs = [force.x, force.y, force.z];
        let mut pot = [0.0];
        let mut u_ab = [Vec3::ZERO];
        kernel.p2p(&[a], &mut pot, &mut u_ab, &[Vec3::ZERO], &fs, false);
        let mut u_ba = [Vec3::ZERO];
        kernel.p2p(&[Vec3::ZERO], &mut pot, &mut u_ba, &[a], &fs, false);
        // S(d) = S(-d): the Oseen tensor is even in the separation.
        prop_assert!((u_ab[0] - u_ba[0]).norm() <= 1e-12 * u_ab[0].norm().max(1e-15));
    }

    /// The Stokeslet multichannel P2M/L2P pipeline agrees with direct
    /// summation on random well-separated configurations.
    #[test]
    fn stokeslet_expansion_pipeline(srcs in unit_cluster(8), x in far_point()) {
        let kernel = StokesletKernel::new(1e-6, 1.0);
        let pos: Vec<Vec3> = srcs.iter().map(|s| s.0).collect();
        let f: Vec<f64> = srcs.iter().flat_map(|s| [s.1, -s.1, 0.5 * s.1]).collect();
        let mut dpot = [0.0];
        let mut du = [Vec3::ZERO];
        kernel.p2p(&[x], &mut dpot, &mut du, &pos, &f, false);

        let ops = ExpansionOps::new(8);
        let nt = ops.nterms();
        let mut pow = Vec::new();
        let mut m = vec![0.0; STOKESLET_CHANNELS * nt];
        kernel.p2m(&ops, Vec3::ZERO, &pos, &f, &mut m, &mut pow);
        let lc = x * (1.0 - 0.02);
        let mut l = vec![0.0; STOKESLET_CHANNELS * nt];
        let mut ds = DerivScratch::default();
        let mut tens = Vec::new();
        ops.m2l(&m, lc, &mut l, STOKESLET_CHANNELS, &mut ds, &mut tens);
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        kernel.l2p(&ops, lc, &l, &[x], &mut pot, &mut u, &mut pow);
        prop_assert!((u[0] - du[0]).norm() <= 2e-3 * du[0].norm().max(1e-12),
            "{:?} vs {:?}", u[0], du[0]);
    }
}
