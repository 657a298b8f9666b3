use gpu_sim::GpuSystem;
use octree::Mac;
use sched_sim::MemoryModel;

/// Numerical parameters of the AFMM.
#[derive(Clone, Copy, Debug)]
pub struct FmmParams {
    /// Expansion order p ("retained terms"). The paper uses spherical
    /// harmonics at p = 10; the cartesian substitution reaches comparable
    /// accuracy around p = 6–8 and the experiments default to 4 for speed.
    pub order: usize,
    /// Multipole acceptance criterion of the dual-tree traversal.
    pub mac: Mac,
    /// Deepest octree level subdivision may reach.
    pub max_level: u16,
}

impl Default for FmmParams {
    fn default() -> Self {
        FmmParams {
            order: 6,
            mac: Mac::default(),
            max_level: 21,
        }
    }
}

impl FmmParams {
    pub fn with_order(order: usize) -> Self {
        FmmParams {
            order,
            ..Default::default()
        }
    }
}

/// The virtual multicore CPU of the heterogeneous node.
#[derive(Clone, Copy, Debug)]
pub struct CpuSpec {
    /// Active cores (each OpenMP/rayon worker is pinned to one, per the
    /// paper).
    pub cores: usize,
    /// Effective flops per second per core on this code.
    pub rate_flops: f64,
    /// Per-task spawn/steal overhead in seconds.
    pub task_overhead_s: f64,
    /// Cache/bandwidth scaling behaviour.
    pub memory: MemoryModel,
}

impl CpuSpec {
    /// One socket's worth of the paper's Test System A CPU (Xeon X5670,
    /// 2.93 GHz Westmere): ~1.2 Gflop/s effective per core on this
    /// expansion-heavy code (2010-era scalar FP with frequent sqrt/div).
    pub fn xeon_x5670(cores: usize) -> Self {
        assert!(cores >= 1);
        CpuSpec {
            cores,
            rate_flops: 1.2e9,
            task_overhead_s: 2.0e-6,
            memory: MemoryModel::ideal(),
        }
    }

    /// The paper's Test System B CPU (4 × Xeon X7560 Nehalem-EX, 32 cores),
    /// with the cache-bonus/bandwidth-saturation model that shapes Fig 6.
    pub fn x7560(cores: usize) -> Self {
        assert!((1..=32).contains(&cores));
        CpuSpec {
            cores,
            rate_flops: 1.0e9,
            task_overhead_s: 2.0e-6,
            memory: MemoryModel::nehalem_ex(),
        }
    }

    pub fn to_sim_config(self) -> sched_sim::SimConfig {
        sched_sim::SimConfig {
            cores: self.cores,
            rate: self.rate_flops,
            task_overhead: self.task_overhead_s,
            memory: self.memory,
        }
    }
}

/// A heterogeneous compute node: a multicore CPU plus zero or more GPUs.
///
/// With GPUs, near-field (P2P) work runs on the GPU system and far-field
/// expansion work on the CPU cores — the paper's split. Without GPUs,
/// everything (including P2P) runs on the CPU cores, which is also how the
/// serial baseline of Fig 7 is defined.
#[derive(Clone, Debug)]
pub struct HeteroNode {
    pub cpu: CpuSpec,
    pub gpus: Option<GpuSystem>,
}

impl HeteroNode {
    /// The paper's Test System A: `cores` Xeon X5670 cores (≤ 12) and
    /// `n_gpus` Tesla C2050s (≤ 4 in the paper; any positive count here).
    pub fn system_a(cores: usize, n_gpus: usize) -> Self {
        let gpus = if n_gpus == 0 {
            None
        } else {
            Some(GpuSystem::homogeneous(n_gpus).expect("n_gpus > 0 here"))
        };
        HeteroNode {
            cpu: CpuSpec::xeon_x5670(cores),
            gpus,
        }
    }

    /// The paper's Test System B: up to 32 Nehalem-EX cores, no GPUs.
    pub fn system_b(cores: usize) -> Self {
        HeteroNode {
            cpu: CpuSpec::x7560(cores),
            gpus: None,
        }
    }

    /// Single CPU core, no GPUs — the serial baseline.
    pub fn serial() -> Self {
        HeteroNode {
            cpu: CpuSpec::xeon_x5670(1),
            gpus: None,
        }
    }

    pub fn num_gpus(&self) -> usize {
        self.gpus.as_ref().map_or(0, GpuSystem::num_gpus)
    }

    /// Devices currently online (installed minus dropped-out). Work is only
    /// offloaded when this is positive; see [`crate::exec::time_step`].
    pub fn num_online_gpus(&self) -> usize {
        self.gpus.as_ref().map_or(0, GpuSystem::num_online)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let a = HeteroNode::system_a(10, 4);
        assert_eq!(a.cpu.cores, 10);
        assert_eq!(a.num_gpus(), 4);
        let b = HeteroNode::system_b(32);
        assert_eq!(b.cpu.cores, 32);
        assert_eq!(b.num_gpus(), 0);
        let s = HeteroNode::serial();
        assert_eq!(s.cpu.cores, 1);
        assert_eq!(s.num_gpus(), 0);
    }

    #[test]
    fn sim_config_roundtrip() {
        let c = CpuSpec::xeon_x5670(8).to_sim_config();
        assert_eq!(c.cores, 8);
        assert_eq!(c.rate, 1.2e9);
    }

    #[test]
    fn zero_gpus_means_cpu_only() {
        assert!(HeteroNode::system_a(4, 0).gpus.is_none());
    }
}
