//! **Figs 8 & 9 and Table II** — the paper's dynamic-workload experiment: a
//! warm Plummer sphere initially confined to 1/64th of the simulation space
//! expands across the domain and falls back under self-gravity while three
//! load-balancing strategies run:
//!
//! 1. optimal S at the outset, tree frozen afterwards;
//! 2. initial search + `Enforce_S` on >5% regressions;
//! 3. the full Search/Incremental/Observation machine with
//!    `FineGrainedOptimize`.
//!
//! The physics is solved once (strategy-3 numeric engine); each strategy's
//! tree/timing bookkeeping replays the shared trajectory — the three paper
//! runs evolve numerically identical systems and differ only in
//! decomposition management (see DESIGN.md §2).
//!
//! Paper scale: 1M bodies, 2000 steps, per-step ≈ 0.8–5 s. Reproduction
//! scale: 100k bodies, 500 steps (override: `fig8_dynamic_strategies
//! [steps] [bodies]`). The trajectory engine runs at reduced expansion
//! order with a pinned small S — that is the *real-host* optimum for
//! producing the positions, and the strategy trackers time the solves on
//! the virtual node at full fidelity independently.
//!
//! Output: per-step total time (Fig 8) and S value (Fig 9) for each
//! strategy, then the Table II summary, whose strict order of relative
//! cost per step (1 > 2 > 3) the run asserts. Below ≈ 50k bodies the
//! strategies tie within 1 % and the assertion fails.

use afmm::{FmmParams, GravitySim, HeteroNode, LbConfig, RunSummary, Strategy, StrategyTracker};
use bench::print_tsv;
use fmm_math::GravityKernel;

fn main() {
    let mut args = bench::cli::Args::parse("fig8_dynamic_strategies", "[steps] [bodies]");
    let steps = args.opt_usize_or_exit("steps", 500);
    let n = args.opt_usize_or_exit("bodies", 100_000);
    args.finish_or_exit();

    let g = 1.0;
    let setup = nbody::expanding_plummer(n, g, 47);
    let domain = Some((setup.domain_center, setup.domain_half_width));
    let node = HeteroNode::system_a(10, 4);
    let params = FmmParams::default();

    // The paper's 0.15 s search threshold is 15–20% of its ~1 s steps;
    // scale it to this run's step time.
    let probe = {
        let mut t = StrategyTracker::new(
            GravityKernel::default(),
            params,
            node.clone(),
            Strategy::Full,
            LbConfig::default(),
            &setup.bodies.pos,
            domain,
        );
        t.step(&setup.bodies.pos)
            .expect("probe step failed")
            .compute()
    };
    let cfg = LbConfig {
        eps_switch_s: 0.15 * probe,
        ..Default::default()
    };

    // The warm cloud blows out to several times its radius and falls back;
    // size dt so the run covers the expansion and the onset of recollapse
    // (a few free-fall times).
    let t_ff = std::f64::consts::FRAC_PI_2 * (1.0 / (2.0 * g * n as f64)).sqrt();
    let dt = 10.0 * t_ff / steps as f64;

    // Trajectory generation: cheap but physically adequate (order 2, looser
    // MAC), with S pinned near the real host's sweet spot and Enforce_S
    // keeping leaves bounded through the collapse.
    let traj_params = FmmParams {
        order: 2,
        mac: octree::Mac::new(0.7),
        ..params
    };
    let traj_cfg = LbConfig {
        s_min: 48,
        s_max: 96,
        ..cfg
    };
    let mut dynamics = GravitySim::new(
        setup.bodies.clone(),
        g,
        dt,
        0.05,
        traj_params,
        node.clone(),
        Strategy::EnforceOnly,
        traj_cfg,
        domain,
    );
    let mk = |strategy| {
        StrategyTracker::new(
            GravityKernel::default(),
            params,
            node.clone(),
            strategy,
            cfg,
            &setup.bodies.pos,
            domain,
        )
    };
    let mut t1 = mk(Strategy::StaticS);
    let mut t2 = mk(Strategy::EnforceOnly);
    let mut t3 = mk(Strategy::Full);

    let mut rows = Vec::new();
    for step in 0..steps {
        let r1 = t1
            .step(&dynamics.bodies.pos)
            .expect("strategy-1 step failed");
        let r2 = t2
            .step(&dynamics.bodies.pos)
            .expect("strategy-2 step failed");
        let r3 = t3
            .step(&dynamics.bodies.pos)
            .expect("strategy-3 step failed");
        // Half-mass radius: tracks the collapse/rebound of the cloud.
        let mut radii: Vec<f64> = dynamics
            .bodies
            .pos
            .iter()
            .map(|p| (*p - setup.domain_center).norm())
            .collect();
        radii.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let r_half = radii[radii.len() / 2];
        rows.push(vec![
            step.to_string(),
            format!("{:.6}", r1.total()),
            format!("{:.6}", r2.total()),
            format!("{:.6}", r3.total()),
            r1.s.to_string(),
            r2.s.to_string(),
            r3.s.to_string(),
            r3.state.name().to_string(),
            format!("{r_half:.3}"),
            r1.p2p_interactions.to_string(),
            r3.p2p_interactions.to_string(),
        ]);
        dynamics.step().expect("trajectory step failed");
    }
    print_tsv(
        &format!(
            "Figs 8+9: per-step total time and S for strategies 1/2/3 \
             (collapsing Plummer N={n}, {steps} steps, dt={dt:.2e}, 10 cores + 4 GPUs)"
        ),
        &[
            "step", "total1_s", "total2_s", "total3_s", "S1", "S2", "S3", "state3", "r_half",
            "p2p1", "p2p3",
        ],
        &rows,
    );

    // ---- Table II ----
    let summaries = [t1.summary(), t2.summary(), t3.summary()];
    let mean3 = summaries[2].mean_total_per_step;
    let mut rows = Vec::new();
    for (i, s) in summaries.iter().enumerate() {
        rows.push(vec![
            (i + 1).to_string(),
            format!("{:.3}", s.total_compute),
            format!("{:.3}", s.total_lb),
            format!("{:.3}%", 100.0 * s.lb_fraction()),
            format!("{:.2}", s.mean_total_per_step / mean3),
        ]);
    }
    print_tsv(
        "Table II: strategy summary (paper: LB% = 0.02 / 0.11 / 1.88, relative cost per step \
         = 3.91 / 1.51 / 1.00)",
        &[
            "strategy",
            "total_compute_s",
            "total_LB_s",
            "LB_pct_of_compute",
            "rel_cost_per_step",
        ],
        &rows,
    );

    // The paper's shape: each strategy costs strictly less per step than
    // the one before it.
    let rel = summaries.map(|s| s.mean_total_per_step / mean3);
    assert!(
        rel[0] > rel[1] && rel[1] > rel[2],
        "Table II out of order: relative cost per step {rel:?}"
    );

    // ---- §IX.A scalars ----
    let s2_mean = RunSummary::from_records(t2.records()).mean_total_per_step;
    let above = t3.records().iter().filter(|r| r.total() > s2_mean).count();
    println!(
        "# strategy 3: max LB in one step = {:.4}s (paper: 0.52s); mean compute/step = {:.4}s; \
         {above}/{steps} steps above strategy-2 mean (paper: 34/2000)",
        summaries[2].max_lb_step,
        summaries[2].total_compute / steps as f64,
    );
}
