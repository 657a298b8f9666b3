use crate::spec::GpuSpec;

/// The near-field work of one target leaf node: `targets` bodies, each of
/// which must interact with every body of every source node in its
/// interaction list. `source_counts[i]` is the body count of the i-th source
/// node (sources are loaded tile-wise per node, as in the paper's Fig. 5).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct P2pJob {
    pub targets: usize,
    pub source_counts: Vec<usize>,
}

impl P2pJob {
    pub fn new(targets: usize, source_counts: Vec<usize>) -> Self {
        P2pJob {
            targets,
            source_counts,
        }
    }

    /// Total source bodies across the interaction list.
    pub fn total_sources(&self) -> usize {
        self.source_counts.iter().sum()
    }

    /// Useful body-body interactions: `targets × total_sources` — the
    /// paper's `Interactions(t)`.
    pub fn interactions(&self) -> u64 {
        self.targets as u64 * self.total_sources() as u64
    }
}

/// Per-leaf expansion work offloaded to the GPU — the paper's proposed
/// extension ("the way forward in such an unbalanced situation is to move
/// additional work to the GPU... the P2M expansion formation and L2P
/// expansion evaluation"). One thread per body; each thread runs
/// `cycles_per_body` cycles of expansion arithmetic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExpansionJob {
    pub bodies: usize,
    pub cycles_per_body: f64,
}

/// One simulated GPU.
#[derive(Clone, Debug, Default)]
pub struct SimGpu {
    pub spec: GpuSpec,
}

/// Per-kernel execution report of one device.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelReport {
    /// Simulated kernel time in seconds (SM makespan + launch overhead).
    pub elapsed_s: f64,
    /// Useful interactions performed.
    pub useful_pairs: u64,
    /// Thread-slots × source-steps actually occupied, counting idle threads
    /// of partial blocks. `useful_pairs / occupied_pairs` is the SIMT
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

impl SimGpu {
    pub fn new(spec: GpuSpec) -> Self {
        SimGpu { spec }
    }

    /// Cycles one block of this job spends marching through all sources.
    ///
    /// Every block of the job — full or partial — walks the same source
    /// stream: per source node, tiles of `block_size` are loaded
    /// cooperatively, then each thread serially processes the loaded bodies.
    fn block_cycles(&self, job: &P2pJob) -> f64 {
        let bs = self.spec.block_size;
        let mut cycles = 0.0;
        for &n in &job.source_counts {
            if n == 0 {
                continue;
            }
            let tiles = n.div_ceil(bs) as f64;
            cycles += tiles * self.spec.tile_load_cycles + n as f64 * self.spec.pair_cycles;
        }
        cycles
    }

    /// Execute a kernel covering `jobs` and report its simulated timing.
    ///
    /// Blocks are created per job (one thread per target body, padded to
    /// whole warps) and dispatched greedily to the least-loaded SM slot in
    /// issue order — the hardware's block scheduler. Kernel time is the
    /// maximum SM load plus the fixed launch overhead. The jobs are
    /// borrowed in issue order, so a device's share of a launch is read
    /// where it lies.
    pub fn run_kernel<'a>(&self, jobs: impl IntoIterator<Item = &'a P2pJob>) -> KernelReport {
        self.dispatch(
            jobs.into_iter()
                .filter(|job| job.targets > 0 && job.total_sources() > 0)
                .map(|job| {
                    let steps = job.total_sources() as u64;
                    (job.targets, steps, self.block_cycles(job))
                }),
        )
    }

    /// Execute a kernel of offloaded expansion work (one thread per body).
    /// `useful_pairs`/`occupied_pairs` count body-slots here, so
    /// [`KernelReport::efficiency`] reports warp occupancy as usual.
    pub fn run_expansion_kernel<'a>(
        &self,
        jobs: impl IntoIterator<Item = &'a ExpansionJob>,
    ) -> KernelReport {
        self.dispatch(
            jobs.into_iter()
                .filter(|job| job.bodies > 0 && job.cycles_per_body > 0.0)
                .map(|job| (job.bodies, 1, job.cycles_per_body)),
        )
    }

    /// The block scheduler both kernel kinds run on. Each item is one job
    /// as `(threads, steps, cycles)`: its threads go in blocks of
    /// `block_size`, every thread takes `steps` useful steps and every
    /// block runs `cycles`. A partial block occupies its threads padded up
    /// to whole warps, and its idle threads step along doing nothing.
    fn dispatch(&self, jobs: impl Iterator<Item = (usize, u64, f64)>) -> KernelReport {
        let bs = self.spec.block_size;
        let ws = self.spec.warp_size.max(1);
        let mut sm_load = vec![0.0f64; self.spec.sms.max(1)];
        let mut useful = 0u64;
        let mut occupied = 0u64;
        let mut blocks = 0usize;
        for (threads, steps, cycles) in jobs {
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
                sm_load[slot] += cycles;
            }
        }
        let max_cycles = sm_load.iter().copied().fold(0.0, f64::max);
        let elapsed = if blocks == 0 {
            0.0
        } else {
            max_cycles / self.spec.clock_hz + self.spec.launch_overhead_s
        };
        KernelReport {
            elapsed_s: elapsed,
            useful_pairs: useful,
            occupied_pairs: occupied,
            blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> SimGpu {
        SimGpu::new(GpuSpec::tesla_c2050())
    }

    #[test]
    fn empty_kernel_is_instant_and_efficient() {
        let r = gpu().run_kernel(&[]);
        assert_eq!(r.elapsed_s, 0.0);
        assert_eq!(r.efficiency(), 1.0);
        let r2 = gpu().run_kernel(&[P2pJob::new(0, vec![128]), P2pJob::new(64, vec![])]);
        assert_eq!(r2.elapsed_s, 0.0);
        assert_eq!(r2.blocks, 0);
    }

    #[test]
    fn time_scales_with_sources() {
        let g = gpu();
        let t1 = g.run_kernel(&[P2pJob::new(128, vec![1024])]).elapsed_s;
        let t4 = g.run_kernel(&[P2pJob::new(128, vec![4096])]).elapsed_s;
        let ratio = (t4 - g.spec.launch_overhead_s) / (t1 - g.spec.launch_overhead_s);
        assert!((ratio - 4.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn full_blocks_are_fully_efficient() {
        let g = gpu();
        let r = g.run_kernel(&[P2pJob::new(256, vec![512])]); // 2 full blocks
        assert_eq!(r.blocks, 2);
        assert_eq!(r.efficiency(), 1.0);
    }

    #[test]
    fn small_targets_with_many_sources_waste_threads() {
        // The paper's warning case: a tiny target node interacting with a
        // large source stream has terrible SIMT efficiency.
        let g = gpu();
        let r = g.run_kernel(&[P2pJob::new(3, vec![10_000])]);
        assert!(r.efficiency() < 0.2, "efficiency {}", r.efficiency());
        // ... and takes as long as a 32-target (one-warp) job would.
        let r32 = g.run_kernel(&[P2pJob::new(32, vec![10_000])]);
        assert_eq!(r.elapsed_s, r32.elapsed_s);
    }

    #[test]
    fn partial_block_time_equals_full_block_time() {
        let g = gpu();
        let t_partial = g.run_kernel(&[P2pJob::new(1, vec![2048])]).elapsed_s;
        let t_full = g
            .run_kernel(&[P2pJob::new(g.spec.block_size, vec![2048])])
            .elapsed_s;
        assert_eq!(t_partial, t_full);
    }

    #[test]
    fn many_blocks_fill_all_sms() {
        let g = gpu();
        // 28 identical one-block jobs on 14 SMs: exactly two rounds.
        let jobs: Vec<_> = (0..28).map(|_| P2pJob::new(128, vec![1000])).collect();
        let one = g.run_kernel(&jobs[..1]).elapsed_s - g.spec.launch_overhead_s;
        let all = g.run_kernel(&jobs).elapsed_s - g.spec.launch_overhead_s;
        assert!((all / one - 2.0).abs() < 1e-9);
    }

    #[test]
    fn tile_loads_charged_per_source_node() {
        // Same total sources split across many nodes costs more (more tile
        // loads of partial tiles).
        let g = gpu();
        let lumped = g.run_kernel(&[P2pJob::new(128, vec![4096])]).elapsed_s;
        let split = g.run_kernel(&[P2pJob::new(128, vec![16; 256])]).elapsed_s;
        assert!(split > lumped);
    }

    #[test]
    fn deterministic() {
        let g = gpu();
        let jobs: Vec<_> = (1..40)
            .map(|i| P2pJob::new(i * 7 % 200 + 1, vec![i * 31 % 900 + 1]))
            .collect();
        let a = g.run_kernel(&jobs);
        let b = g.run_kernel(&jobs);
        assert_eq!(a.elapsed_s, b.elapsed_s);
        assert_eq!(a.useful_pairs, b.useful_pairs);
    }

    #[test]
    fn interactions_formula() {
        let j = P2pJob::new(10, vec![5, 7, 3]);
        assert_eq!(j.total_sources(), 15);
        assert_eq!(j.interactions(), 150);
    }
}
