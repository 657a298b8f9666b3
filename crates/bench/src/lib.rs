//! Shared plumbing for the experiment harnesses (`src/bin/fig*.rs`,
//! `src/bin/table*.rs`), one binary per table/figure of the paper's
//! evaluation. Each binary prints a self-describing TSV series to stdout;
//! EXPERIMENTS.md records paper-vs-measured for each.

use afmm::{time_step, ExecPolicy, FmmParams, HeteroNode, TimingReport};
use fmm_math::{Kernel, OpFlops};
use gpu_sim::KernelTiming;
use octree::{count_ops, dual_traversal, InteractionLists, Octree, OpCounts};
use std::path::PathBuf;

pub mod cli;
pub mod harness;

/// Where a bench artifact named `name` should be written: `$BENCH_OUT_DIR/
/// name` when the variable is set and non-empty (the directory is created
/// on demand), the current working directory otherwise.
///
/// Every bin that emits a `BENCH_*.json` goes through here — previously
/// each wrote into whatever CWD it was launched from, littering the repo
/// root during local runs.
pub fn out_path(name: &str) -> PathBuf {
    match std::env::var_os("BENCH_OUT_DIR") {
        Some(dir) if !dir.is_empty() => {
            let dir = PathBuf::from(dir);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!(
                    "# warning: cannot create BENCH_OUT_DIR {}: {e}; writing to CWD",
                    dir.display()
                );
                return PathBuf::from(name);
            }
            dir.join(name)
        }
        _ => PathBuf::from(name),
    }
}

/// Runs `op` with every `par_*` call inside it on the calling thread alone.
///
/// `telemetry::AllocScope` attributes per thread, so a forked worker's
/// scratch lands in the process totals but in no named scope, and how much
/// of it there is depends on the host's core count. Everything that reports
/// allocator numbers measures under this, which keeps them the width-1
/// schedule's on any host; the solve's bits are the same at any width.
pub fn one_worker<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a width-1 pool starts no thread")
        .install(op)
}

/// GPU makespan of a timing, or 0.0 when the timing covers no devices.
///
/// [`KernelTiming::gpu_time`] returns `None` for a no-device timing — "no
/// measurement", not "zero seconds". The harness binaries report aggregate
/// times where a device-less launch genuinely contributes nothing, so they
/// all map `None` to 0.0; do that through this one helper instead of ad-hoc
/// `unwrap`s that panic on CPU-only configurations.
pub fn gpu_time_or_zero(t: &KernelTiming) -> f64 {
    t.gpu_time().unwrap_or(0.0)
}

/// A geometric grid of S values, `per_decade` points per factor of 10.
pub fn s_grid(lo: usize, hi: usize, per_decade: usize) -> Vec<usize> {
    assert!(lo >= 1 && lo < hi && per_decade >= 1);
    let step = 10f64.powf(1.0 / per_decade as f64);
    let mut out = Vec::new();
    let mut s = lo as f64;
    while (s.round() as usize) <= hi {
        let v = s.round() as usize;
        if out.last() != Some(&v) {
            out.push(v);
        }
        s *= step;
    }
    out
}

/// Print a TSV header + rows with a `#`-prefixed title block.
pub fn print_tsv(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("# {title}");
    println!("{}", header.join("\t"));
    for r in rows {
        println!("{}", r.join("\t"));
    }
    println!();
}

/// Format seconds with fixed precision suitable for the tables.
pub fn fmt_s(t: f64) -> String {
    format!("{t:.6}")
}

/// Time one tree (lists are computed here) on a node; convenience for the
/// sweep harnesses that never need numeric solves.
pub fn time_tree(
    tree: &Octree,
    flops: &OpFlops,
    node: &HeteroNode,
) -> (TimingReport, OpCounts, InteractionLists) {
    let params = FmmParams::default();
    let lists = dual_traversal(tree, params.mac);
    let counts = count_ops(tree, &lists);
    let timing = time_step(tree, &lists, flops, node, ExecPolicy::default())
        .expect("healthy node cannot fail");
    (timing, counts, lists)
}

/// Op-flop table for a kernel at the default expansion order.
pub fn default_flops<K: Kernel>(kernel: &K) -> OpFlops {
    let ops = fmm_math::ExpansionOps::new(FmmParams::default().order);
    kernel.op_flops(&ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s_grid_is_geometric_and_deduped() {
        let g = s_grid(8, 4096, 4);
        assert_eq!(g.first(), Some(&8));
        assert!(*g.last().unwrap() <= 4096);
        for w in g.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(g.len() > 8);
    }

    #[test]
    fn fmt_is_stable() {
        assert_eq!(fmt_s(0.1234567), "0.123457");
    }

    #[test]
    fn empty_timing_maps_to_zero_time_and_unit_efficiency() {
        let t = KernelTiming {
            per_gpu: Vec::new(),
            assignment: Vec::new(),
        };
        assert_eq!(t.gpu_time(), None);
        assert_eq!(t.efficiency(), None);
        assert_eq!(gpu_time_or_zero(&t), 0.0);
    }

    #[test]
    fn real_timing_passes_through_helpers() {
        let sys = gpu_sim::GpuSystem::homogeneous(2).unwrap();
        let jobs = [gpu_sim::GpuJob::p2p(64, [256])];
        let t = sys.execute(&jobs).unwrap();
        assert_eq!(gpu_time_or_zero(&t), t.gpu_time().unwrap());
        assert!(gpu_time_or_zero(&t) > 0.0);
    }
}
