//! Virtual-node ablations of the design choices DESIGN.md calls out:
//!
//! 1. **GPU partition policy** — the paper's interaction-count walk vs a
//!    naive equal-node-count split, across distributions and device counts;
//! 2. **MAC θ** — accuracy/cost trade of the dual traversal;
//! 3. **Prediction accuracy** — predicted vs realized times across S;
//! 4. **Collapse/PushDown vs full rebuild** — modeled maintenance cost of
//!    the incremental operations against a from-scratch rebuild.

use afmm::{lbtime, CostModel, FmmEngine, FmmParams, HeteroNode};
use bench::{default_flops, fmt_s, print_tsv};
use fmm_math::GravityKernel;
use gpu_sim::partition_by_node_count;
use octree::{build_adaptive, BuildParams, Mac};

fn main() {
    bench::cli::no_args("ablation_report");
    partition_ablation();
    mac_ablation();
    prediction_ablation();
    maintenance_ablation();
}

fn partition_ablation() {
    let flops = default_flops(&GravityKernel::default());
    let mut rows = Vec::new();
    // "knotted": a diffuse background with a tight, massive knot — the
    // knot's leaves carry enormous interaction counts and sit contiguously
    // in Morton order, the worst case for an equal-node-count split.
    let knotted = {
        let mut b = nbody::uniform_cube(80_000, 1.0, 66);
        let knot = nbody::plummer(20_000, 0.004, 1.0, 67);
        for i in 0..knot.len() {
            b.push(knot.pos[i] + geom::Vec3::splat(0.5), knot.vel[i], 1.0);
        }
        b
    };
    for (name, bodies) in [
        ("plummer", nbody::plummer(100_000, 1.0, 1.0, 61)),
        ("uniform", nbody::uniform_cube(100_000, 1.0, 62)),
        (
            "two_clusters",
            nbody::two_clusters(100_000, 0.5, 1.0, 6.0, 0.0, 63),
        ),
        ("knotted", knotted),
    ] {
        let tree = build_adaptive(&bodies.pos, BuildParams::with_s(128));
        let lists = octree::dual_traversal(&tree, Mac::default());
        let jobs = afmm::build_gpu_jobs(&tree, &lists);
        for gpus in [2usize, 4] {
            let sys = gpu_sim::GpuSystem::homogeneous(gpus, gpu_sim::GpuSpec::default())
                .expect("positive device count");
            let smart = bench::gpu_time_or_zero(&sys.execute(&jobs).unwrap());
            let naive = bench::gpu_time_or_zero(
                &sys.execute_with_partition(&jobs, partition_by_node_count(jobs.len(), gpus))
                    .unwrap(),
            );
            rows.push(vec![
                name.to_string(),
                gpus.to_string(),
                fmt_s(smart),
                fmt_s(naive),
                format!("{:.3}", naive / smart),
            ]);
        }
        let _ = flops;
    }
    print_tsv(
        "Ablation 1: GPU kernel time — interaction-count partition (paper) vs equal-node-count",
        &[
            "distribution",
            "gpus",
            "t_interactions",
            "t_node_count",
            "naive/smart",
        ],
        &rows,
    );
}

fn mac_ablation() {
    let bodies = nbody::plummer(50_000, 1.0, 1.0, 64);
    let node = HeteroNode::system_a(10, 4);
    let flops = default_flops(&GravityKernel::default());
    let tree = build_adaptive(&bodies.pos, BuildParams::with_s(128));
    let mut rows = Vec::new();
    for theta in [0.3f64, 0.45, 0.6, 0.75, 0.9] {
        let lists = octree::dual_traversal(&tree, Mac::new(theta));
        let counts = octree::count_ops(&tree, &lists);
        let timing =
            afmm::time_step(&tree, &lists, &flops, &node, afmm::ExecPolicy::default()).unwrap();
        rows.push(vec![
            format!("{theta}"),
            counts.m2l_ops.to_string(),
            counts.p2p_interactions.to_string(),
            fmt_s(timing.t_cpu),
            fmt_s(timing.t_gpu),
        ]);
    }
    print_tsv(
        "Ablation 2: MAC theta sweep (stricter = more P2P, more accurate)",
        &["theta", "m2l_ops", "p2p_pairs", "t_cpu_s", "t_gpu_s"],
        &rows,
    );
}

fn prediction_ablation() {
    let bodies = nbody::plummer(100_000, 1.0, 1.0, 65);
    let node = HeteroNode::system_a(10, 4);
    let mut engine = FmmEngine::new(
        GravityKernel::default(),
        FmmParams::default(),
        &bodies.pos,
        128,
    );
    let flops = default_flops(&GravityKernel::default());
    // Observe once at S=128, then predict trees at other S without
    // re-observing — the regime the paper's FGO relies on.
    let counts = engine.refresh_lists();
    let timing = afmm::time_step(
        engine.tree(),
        engine.lists(),
        &flops,
        &node,
        afmm::ExecPolicy::default(),
    )
    .unwrap();
    let mut model = CostModel::new();
    model.observe(&counts, &timing, &flops, &node);
    let mut rows = Vec::new();
    for s in [64usize, 96, 128, 192, 256, 512] {
        engine.rebuild(&bodies.pos, s);
        let c = engine.refresh_lists();
        let real = afmm::time_step(
            engine.tree(),
            engine.lists(),
            &flops,
            &node,
            afmm::ExecPolicy::default(),
        )
        .unwrap();
        let pred = model.predict(&c, &node);
        rows.push(vec![
            s.to_string(),
            fmt_s(real.t_cpu),
            fmt_s(pred.t_cpu),
            fmt_s(real.t_gpu),
            fmt_s(pred.t_gpu),
            format!(
                "{:+.1}%",
                100.0 * (pred.compute() - real.compute()) / real.compute()
            ),
        ]);
    }
    print_tsv(
        "Ablation 3: cost-model prediction vs realized times (observed once at S=128)",
        &[
            "S",
            "cpu_real",
            "cpu_pred",
            "gpu_real",
            "gpu_pred",
            "compute_err",
        ],
        &rows,
    );
}

fn maintenance_ablation() {
    let node = HeteroNode::system_a(10, 4);
    let mut rows = Vec::new();
    for n in [20_000usize, 100_000, 1_000_000] {
        rows.push(vec![
            n.to_string(),
            fmt_s(lbtime::rebuild(&node, n)),
            fmt_s(lbtime::rebin(&node, n)),
            fmt_s(lbtime::enforce(&node, n / 50, n / 2000)),
            fmt_s(lbtime::modify(&node, 32)),
        ]);
    }
    print_tsv(
        "Ablation 4: modeled maintenance costs — incremental ops vs full rebuild",
        &["bodies", "rebuild_s", "rebin_s", "enforce_s", "modify32_s"],
        &rows,
    );
}
