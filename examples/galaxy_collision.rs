//! Two Plummer "galaxies" on a collision course, integrated with the full
//! dynamic load balancer — the time-dependent, density-rearranging workload
//! class from the paper's introduction ("simulations of colliding
//! galaxies"). The run prints the balancer's state transitions, the S it
//! settles on, and how compute time and tree shape evolve through the
//! encounter.
//!
//! Run with: `cargo run --release --example galaxy_collision [steps]`

use afmm_repro::prelude::*;
use octree::TreeStats;

fn main() {
    let steps: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(120);
    let n = 10_000;
    let g = 1.0;
    // Two clusters, each a=0.8, separated by 8, approaching at a speed that
    // produces a deep interpenetrating pass within the run.
    let bodies = nbody::two_clusters(n, 0.8, g, 8.0, 60.0, 13);
    let e0 = nbody::total_energy(&bodies, g, 0.05).total();

    let node = HeteroNode::system_a(10, 2);
    let cfg = LbConfig {
        eps_switch_s: 1e-3,
        ..Default::default()
    };
    // Cover the whole encounter within `steps`.
    let dt = 8.0 / 60.0 / steps as f64 * 1.6;
    let mut sim = GravitySim::new(
        bodies,
        g,
        dt,
        0.05,
        FmmParams::default(),
        node,
        Strategy::Full,
        cfg,
        None,
    );

    println!("step   sep      S     state         t_cpu     t_gpu     t_lb    depth leaves");
    let mut last_state = None;
    for step in 0..steps {
        let rec = sim.step().unwrap();
        // Separation of the two cluster centroids (split by body index).
        let pos = &sim.bodies.pos;
        let c1: Vec3 = pos[..n / 2].iter().copied().sum::<Vec3>() / (n / 2) as f64;
        let c2: Vec3 = pos[n / 2..].iter().copied().sum::<Vec3>() / (n - n / 2) as f64;
        let stats = TreeStats::gather(sim.tracker().engine().tree());
        let state_changed = last_state != Some(rec.state);
        last_state = Some(rec.state);
        if step % 10 == 0 || state_changed {
            println!(
                "{:4}  {:6.2}  {:5}  {:12} {:.5} s {:.5} s {:.5}  {:4} {:6}",
                step,
                c1.dist(c2),
                rec.s,
                rec.state.name(),
                rec.t_cpu,
                rec.t_gpu,
                rec.t_lb,
                stats.depth,
                stats.nonempty_leaves,
            );
        }
    }
    let summary = sim.tracker().summary();
    println!(
        "\n{} steps: total compute {:.3}s, total LB {:.3}s ({:.2}% of compute)",
        summary.steps,
        summary.total_compute,
        summary.total_lb,
        100.0 * summary.lb_fraction()
    );
    let e1 = nbody::total_energy(&sim.bodies, g, 0.05).total();
    println!(
        "energy drift over the encounter: {:.2}%",
        100.0 * ((e1 - e0) / e0).abs()
    );
}
