//! Fluid dynamics at an immersed flexible boundary — the paper's second
//! application domain (method of regularized Stokeslets, Cortez et al.).
//!
//! An elastic ring is stretched into an ellipse and released in Stokes flow;
//! its spring forces drive the fluid, the fluid velocity advects the ring,
//! and the ring relaxes back toward a circle while a cloud of passive tracer
//! particles is stirred by the flow. The AFMM solves every
//! marker/tracer-to-marker interaction each step.
//!
//! Run with: `cargo run --release --example stokes_ring [steps]`

use afmm_repro::prelude::*;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(150);
    let n_ring = 600;
    let n_tracers = 3_000;

    let mut ring = ElasticRing::new(Vec3::ZERO, 1.0, n_ring, 5.0);
    ring.perturb_ellipse(1.35);
    let e0 = ring.energy();

    // Tracer cloud around the ring (zero-force points that just advect).
    let tracers = nbody::uniform_cube(n_tracers, 1.8, 17);

    let kernel = StokesletKernel::new(5e-3, 1.0);
    let params = FmmParams::default();
    // Stability: the fastest spring mode relaxes at ~2k/(4*pi*mu*eps);
    // keep dt well inside it.
    let dt = 2e-3;

    // All points (ring markers first, then tracers) go through one AFMM
    // solve per step; only ring markers carry force.
    let mut pos: Vec<Vec3> = ring.positions().to_vec();
    pos.extend_from_slice(&tracers.pos);
    let mut engine = FmmEngine::new(kernel, params, &pos, 32);

    println!("step   ring_energy   aspect   max|u|     tree_depth");
    for step in 0..steps {
        let mut forces = ring.forces();
        forces.resize(3 * pos.len(), 0.0); // tracers are force-free
        let sol = engine.solve(&pos, &forces);

        // Advect everything with the computed Stokes velocities.
        for (p, u) in pos.iter_mut().zip(&sol.field) {
            *p += *u * dt;
        }
        ring.positions_mut().copy_from_slice(&pos[..n_ring]);
        engine.rebin(&pos);
        engine.enforce_s();

        if step % 15 == 0 {
            // Aspect ratio of the ring's bounding box in the xy-plane.
            let (mut xmin, mut xmax, mut ymin, mut ymax) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
            for p in ring.positions() {
                xmin = xmin.min(p.x);
                xmax = xmax.max(p.x);
                ymin = ymin.min(p.y);
                ymax = ymax.max(p.y);
            }
            let umax = sol.field.iter().map(|u| u.norm()).fold(0.0, f64::max);
            println!(
                "{:4}   {:10.5}   {:6.3}   {:8.5}   {}",
                step,
                ring.energy(),
                (xmax - xmin) / (ymax - ymin),
                umax,
                octree::TreeStats::gather(engine.tree()).depth,
            );
        }
    }
    let e1 = ring.energy();
    println!(
        "\nelastic energy relaxed {:.1}% (from {e0:.4} to {e1:.4}); \
         the ring rounds itself out through the fluid.",
        100.0 * (1.0 - e1 / e0)
    );
    assert!(e1 < e0, "the ring must relax");
}
