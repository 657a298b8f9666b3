//! Whole-simulation physics tests: the AFMM-driven time steppers must
//! produce credible dynamics (conservation laws, collapse behaviour,
//! Stokes-flow structure) while the load balancer runs underneath.

use afmm_repro::prelude::*;

#[test]
fn plummer_sphere_stays_virialized_under_fmm_dynamics() {
    // A warm (virial) Plummer sphere integrated with FMM forces should stay
    // statistically stationary: energy conserved, half-mass radius stable.
    let g = 1.0;
    let b = nbody::plummer(800, 1.0, g, 3001);
    let e0 = nbody::total_energy(&b, g, 0.05).total();
    let r0 = half_mass_radius(&b.pos);
    let mut sim = GravitySim::new(
        b,
        g,
        5e-4,
        0.05,
        FmmParams {
            order: 4,
            ..Default::default()
        },
        HeteroNode::system_a(10, 2),
        Strategy::Full,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        None,
    );
    for _ in 0..60 {
        sim.step().unwrap();
    }
    let e1 = nbody::total_energy(&sim.bodies, g, 0.05).total();
    let r1 = half_mass_radius(sim.positions());
    assert!(((e1 - e0) / e0).abs() < 0.03, "energy {e0} -> {e1}");
    assert!(
        (r1 / r0 - 1.0).abs() < 0.25,
        "half-mass radius {r0} -> {r1}"
    );
}

#[test]
fn cold_cloud_collapses() {
    // The paper's dynamic workload: a sub-virial cloud must contract.
    let setup = nbody::collapsing_plummer(800, 1.0, 3002);
    let r0 = half_mass_radius(&setup.bodies.pos);
    let t_ff = std::f64::consts::FRAC_PI_2 * (1.0f64 / (2.0 * 800.0)).sqrt();
    // A sub-virial (not perfectly cold) cloud needs a bit more than one
    // free-fall time before the half-mass radius clears the 0.8 r0 bar;
    // keep the same dt and integrate to 1.5 t_ff.
    let steps = 100;
    let mut sim = GravitySim::new(
        setup.bodies,
        1.0,
        1.5 * t_ff / steps as f64,
        0.05,
        FmmParams {
            order: 3,
            ..Default::default()
        },
        HeteroNode::system_a(10, 2),
        Strategy::Full,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        Some((setup.domain_center, setup.domain_half_width)),
    );
    for _ in 0..steps {
        sim.step().unwrap();
    }
    let r1 = half_mass_radius(sim.positions());
    assert!(r1 < 0.8 * r0, "no collapse: {r0} -> {r1}");
}

#[test]
fn momentum_conserved_through_full_machinery() {
    let g = 1.0;
    let b = nbody::two_clusters(600, 0.5, g, 6.0, 3.0, 3003);
    let p0 = nbody::total_momentum(&b);
    let mut sim = GravitySim::new(
        b,
        g,
        1e-3,
        0.05,
        FmmParams {
            order: 4,
            ..Default::default()
        },
        HeteroNode::system_a(4, 1),
        Strategy::Full,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        None,
    );
    for _ in 0..30 {
        sim.step().unwrap();
    }
    let p1 = nbody::total_momentum(&sim.bodies);
    // FMM forces are not exactly antisymmetric, but drift must be tiny
    // relative to the typical momentum scale of one body (~|v| ~ 10).
    assert!((p1 - p0).norm() < 0.5, "momentum drift {:?}", p1 - p0);
}

#[test]
fn stokes_points_follow_a_pusher() {
    // One strong localized forcing region in a quiescent tracer field: the
    // flow it induces must fall off with distance (Stokeslet ~ 1/r).
    let n = 800;
    let pts = nbody::uniform_cube(n, 2.0, 3004);
    let mut forces = vec![0.0; 3 * n];
    // Force only the points inside a small ball near the origin, along +x.
    let mut forced = 0;
    for (i, p) in pts.pos.iter().enumerate() {
        if p.norm() < 0.4 {
            forces[3 * i] = 1.0;
            forced += 1;
        }
    }
    assert!(forced > 2, "need some forced points");
    let mut engine = FmmEngine::new(
        StokesletKernel::new(1e-2, 1.0),
        FmmParams {
            order: 4,
            ..Default::default()
        },
        &pts.pos,
        32,
    );
    let sol = engine.solve(&pts.pos, &forces);
    // Mean |u| near the pusher vs far away.
    let (mut near, mut nn, mut far, mut nf) = (0.0, 0, 0.0, 0);
    for (i, p) in pts.pos.iter().enumerate() {
        let u = sol.field[i].norm();
        if p.norm() < 0.6 {
            near += u;
            nn += 1;
        } else if p.norm() > 2.0 {
            far += u;
            nf += 1;
        }
    }
    let (near, far) = (near / nn as f64, far / nf as f64);
    assert!(
        near > 2.0 * far,
        "flow must decay away from the pusher: near {near}, far {far}"
    );
    // And the near-field flow points with the forcing on average.
    let mean_ux: f64 = pts
        .pos
        .iter()
        .zip(&sol.field)
        .filter(|(p, _)| p.norm() < 0.6)
        .map(|(_, u)| u.x)
        .sum::<f64>();
    assert!(mean_ux > 0.0, "flow should follow the force direction");
}

fn half_mass_radius(pos: &[Vec3]) -> f64 {
    let c: Vec3 = pos.iter().copied().sum::<Vec3>() / pos.len() as f64;
    let mut radii: Vec<f64> = pos.iter().map(|p| p.dist(c)).collect();
    radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
    radii[radii.len() / 2]
}
