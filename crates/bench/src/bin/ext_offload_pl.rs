//! **Extension (paper §VIII.E)** — the paper's proposed fix for unbalanced
//! nodes, implemented: "The way forward in such an unbalanced situation is
//! to move additional work to the GPU... This can include the P2M expansion
//! formation and L2P expansion evaluation."
//!
//! For each CPU/GPU combination the harness sweeps S with and without the
//! P2M/L2P offload and reports the best compute time of each mode. The
//! CPU-starved configurations (few cores, many GPUs) gain the most; the
//! balanced ones barely move — exactly the situation the paper describes
//! for its 4C4G run.

use afmm::{time_step, ExecPolicy, FmmEngine, FmmParams, HeteroNode};
use bench::{fmt_s, print_tsv, s_grid};
use fmm_math::{GravityKernel, Kernel};

fn main() {
    bench::cli::no_args("ext_offload_pl");
    let n = 100_000;
    let bodies = nbody::plummer(n, 1.0, 1.0, 71);
    let mut engine = FmmEngine::new(
        GravityKernel::default(),
        FmmParams::default(),
        &bodies.pos,
        128,
    );
    let flops = engine.kernel.op_flops(engine.expansion_ops());
    let grid = s_grid(32, 4096, 4);

    let configs: [(usize, usize); 6] = [(2, 8), (4, 4), (4, 8), (10, 1), (10, 2), (10, 4)];
    let mut rows = Vec::new();
    for &(cores, gpus) in &configs {
        let node = HeteroNode::system_a(cores, gpus);
        let mut best_base = (0usize, f64::INFINITY);
        let mut best_off = (0usize, f64::INFINITY);
        for &s in &grid {
            engine.rebuild(&bodies.pos, s);
            engine.refresh_lists();
            let base = time_step(
                engine.tree(),
                engine.lists(),
                &flops,
                &node,
                ExecPolicy::default(),
            )
            .unwrap()
            .compute();
            let off = time_step(
                engine.tree(),
                engine.lists(),
                &flops,
                &node,
                ExecPolicy { offload_pl: true },
            )
            .unwrap()
            .compute();
            if base < best_base.1 {
                best_base = (s, base);
            }
            if off < best_off.1 {
                best_off = (s, off);
            }
        }
        rows.push(vec![
            format!("{cores}C_{gpus}G"),
            best_base.0.to_string(),
            fmt_s(best_base.1),
            best_off.0.to_string(),
            fmt_s(best_off.1),
            format!("{:+.1}%", 100.0 * (best_off.1 / best_base.1 - 1.0)),
        ]);
    }
    print_tsv(
        &format!(
            "Extension §VIII.E: best compute time with/without P2M+L2P GPU offload \
             (Plummer N={n}); CPU-starved configs gain most"
        ),
        &[
            "config",
            "S*_base",
            "best_base_s",
            "S*_offload",
            "best_offload_s",
            "change",
        ],
        &rows,
    );
}
