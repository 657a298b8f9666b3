use crate::spec::C2050;

/// One job of a GPU launch, priced once when it is made: `threads` threads
/// go in blocks of [`C2050`]'s `block_size`, every thread takes `steps`
/// useful steps, and every block of the job — full or partial — runs
/// `block_cycles` cycles.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GpuJob {
    pub threads: usize,
    pub steps: u64,
    pub block_cycles: f64,
}

impl GpuJob {
    /// The near-field work of one target leaf: `targets` bodies, one thread
    /// each, interacting with every body of every source node in the leaf's
    /// interaction list; `source_counts` yields each source node's body
    /// count in list order. Every block walks the same source stream: per
    /// source node, tiles of `block_size` bodies are loaded cooperatively,
    /// then each thread processes the loaded bodies serially (the paper's
    /// Fig. 5).
    pub fn p2p(targets: usize, source_counts: impl IntoIterator<Item = usize>) -> Self {
        let mut steps = 0u64;
        let mut block_cycles = 0.0;
        for n in source_counts {
            if n == 0 {
                continue;
            }
            steps += n as u64;
            let tiles = n.div_ceil(C2050.block_size) as f64;
            block_cycles += tiles * C2050.tile_load_cycles + n as f64 * C2050.pair_cycles;
        }
        GpuJob {
            threads: targets,
            steps,
            block_cycles,
        }
    }

    /// Per-leaf expansion work offloaded to the GPU — the paper's proposed
    /// extension ("the way forward in such an unbalanced situation is to
    /// move additional work to the GPU... the P2M expansion formation and
    /// L2P expansion evaluation"). One thread per body, each running
    /// `flops_per_body` flops of expansion arithmetic.
    pub fn expansion(bodies: usize, flops_per_body: f64) -> Self {
        GpuJob {
            threads: bodies,
            steps: 1,
            block_cycles: C2050.expansion_cycles_per_flop * flops_per_body,
        }
    }

    /// Block-steps of one P2P list entry, the unit [`GpuJob::p2p`] charges:
    /// ⌈`targets`/B⌉ blocks, each streaming `sources` bodies in
    /// ⌈`sources`/B⌉ tiles, with B the [`C2050`]'s `block_size`. A tile
    /// load costs what one source body does (`tile_load_cycles` equals
    /// `pair_cycles`), so a job's blocks run `pair_cycles` times the sum of
    /// this over its sources, cycle for cycle.
    #[inline]
    pub fn p2p_block_steps(targets: usize, sources: usize) -> u64 {
        let bs = C2050.block_size;
        (targets.div_ceil(bs) * (sources + sources.div_ceil(bs))) as u64
    }

    /// Useful thread-steps, the weight the partition walk consumes: the
    /// paper's `Interactions(t)` (`targets × total sources`) for P2P work,
    /// the body count for expansion work.
    pub fn work(&self) -> u64 {
        self.threads as u64 * self.steps
    }
}

/// Per-kernel execution report of one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelReport {
    /// Simulated kernel time in seconds (SM makespan + launch overhead).
    pub elapsed_s: f64,
    /// Useful thread-steps performed: interactions of P2P work, body-slots
    /// of expansion work.
    pub useful_pairs: u64,
    /// Thread-slots × steps actually occupied, counting idle threads of
    /// partial blocks. `useful_pairs / occupied_pairs` is the SIMT
    /// efficiency of the kernel.
    pub occupied_pairs: u64,
    /// Blocks issued.
    pub blocks: usize,
}

impl KernelReport {
    /// Fraction of thread work that was useful, in (0, 1]. 1.0 when every
    /// block was exactly full. Defined as 1.0 for an empty kernel.
    pub fn efficiency(&self) -> f64 {
        if self.occupied_pairs == 0 {
            1.0
        } else {
            self.useful_pairs as f64 / self.occupied_pairs as f64
        }
    }
}

/// Execute one kernel covering `jobs` on one device and report its
/// simulated timing.
///
/// Each job's threads go in blocks of `block_size`; a partial block
/// occupies its threads padded up to whole warps, and its idle threads step
/// along doing nothing. Blocks are dispatched greedily to the least-loaded
/// SM slot in issue order — the hardware's block scheduler. Kernel time is
/// the maximum SM load plus the fixed launch overhead. The jobs are
/// borrowed in issue order, so a device's share of a launch is read where
/// it lies.
pub fn run_kernel<'a>(jobs: impl IntoIterator<Item = &'a GpuJob>) -> KernelReport {
    let bs = C2050.block_size;
    let ws = C2050.warp_size;
    let mut sm_load = [0.0f64; C2050.sms];
    let mut useful = 0u64;
    let mut occupied = 0u64;
    let mut blocks = 0usize;
    for job in jobs
        .into_iter()
        .filter(|job| job.threads > 0 && job.steps > 0 && job.block_cycles > 0.0)
    {
        let (threads, steps) = (job.threads, job.steps);
        let full_blocks = threads / bs;
        let rem = threads % bs;
        useful += threads as u64 * steps;
        occupied += full_blocks as u64 * bs as u64 * steps;
        let mut nblocks = full_blocks;
        if rem > 0 {
            nblocks += 1;
            occupied += (rem.div_ceil(ws) * ws) as u64 * steps;
        }
        blocks += nblocks;
        for _ in 0..nblocks {
            // Least-loaded slot; ties broken by lowest index for
            // determinism.
            let (slot, _) = sm_load
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(&b.0)))
                .expect("at least one SM");
            sm_load[slot] += job.block_cycles;
        }
    }
    let max_cycles = sm_load.iter().copied().fold(0.0, f64::max);
    let elapsed = if blocks == 0 {
        0.0
    } else {
        max_cycles / C2050.clock_hz + C2050.launch_overhead_s
    };
    KernelReport {
        elapsed_s: elapsed,
        useful_pairs: useful,
        occupied_pairs: occupied,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_kernel_is_instant_and_efficient() {
        let r = run_kernel(&[]);
        assert_eq!(r.elapsed_s, 0.0);
        assert_eq!(r.efficiency(), 1.0);
        let r2 = run_kernel(&[GpuJob::p2p(0, [128]), GpuJob::p2p(64, [])]);
        assert_eq!(r2.elapsed_s, 0.0);
        assert_eq!(r2.blocks, 0);
    }

    #[test]
    fn time_scales_with_sources() {
        let t1 = run_kernel(&[GpuJob::p2p(128, [1024])]).elapsed_s;
        let t4 = run_kernel(&[GpuJob::p2p(128, [4096])]).elapsed_s;
        let ratio = (t4 - C2050.launch_overhead_s) / (t1 - C2050.launch_overhead_s);
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn full_blocks_are_fully_efficient() {
        let r = run_kernel(&[GpuJob::p2p(256, [512])]); // 2 full blocks
        assert_eq!(r.blocks, 2);
        assert_eq!(r.efficiency(), 1.0);
    }

    #[test]
    fn small_targets_with_many_sources_waste_threads() {
        // The paper's warning case: a tiny target node interacting with a
        // large source stream has terrible SIMT efficiency.
        let r = run_kernel(&[GpuJob::p2p(3, [10_000])]);
        assert!(r.efficiency() < 0.2, "efficiency {}", r.efficiency());
        // ... and takes as long as a 32-target (one-warp) job would.
        let r32 = run_kernel(&[GpuJob::p2p(32, [10_000])]);
        assert_eq!(r.elapsed_s, r32.elapsed_s);
    }

    #[test]
    fn partial_block_time_equals_full_block_time() {
        let t_partial = run_kernel(&[GpuJob::p2p(1, [2048])]).elapsed_s;
        let t_full = run_kernel(&[GpuJob::p2p(C2050.block_size, [2048])]).elapsed_s;
        assert_eq!(t_partial, t_full);
    }

    #[test]
    fn many_blocks_fill_all_sms() {
        // 28 identical one-block jobs on 14 SMs: exactly two rounds.
        let jobs: Vec<_> = (0..28).map(|_| GpuJob::p2p(128, [1000])).collect();
        let one = run_kernel(&jobs[..1]).elapsed_s - C2050.launch_overhead_s;
        let all = run_kernel(&jobs).elapsed_s - C2050.launch_overhead_s;
        assert!((all / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tile_loads_charged_per_source_node() {
        // Same total sources split across many nodes costs more (more tile
        // loads of partial tiles).
        let lumped = run_kernel(&[GpuJob::p2p(128, [4096])]).elapsed_s;
        let split = run_kernel(&[GpuJob::p2p(128, [16; 256])]).elapsed_s;
        assert!(split > lumped);
    }

    #[test]
    fn deterministic() {
        let jobs: Vec<_> = (1..40)
            .map(|i| GpuJob::p2p(i * 7 % 200 + 1, [i * 31 % 900 + 1]))
            .collect();
        let a = run_kernel(&jobs);
        let b = run_kernel(&jobs);
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.useful_pairs, b.useful_pairs);
    }

    #[test]
    fn interactions_formula() {
        let j = GpuJob::p2p(10, [5, 7, 3]);
        assert_eq!(j.steps, 15);
        assert_eq!(j.work(), 150);
    }
}
