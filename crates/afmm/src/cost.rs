use crate::config::HeteroNode;
use crate::exec::TimingReport;
use fmm_math::OpFlops;
use octree::OpCounts;

/// Predicted step times for a (possibly hypothetical) tree, from the
/// observational cost model: `T = Σ_op M(op) · C(op)`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Prediction {
    pub t_cpu: f64,
    pub t_gpu: f64,
}

impl Prediction {
    /// Predicted compute time, `max(CPU, GPU)`.
    pub fn compute(&self) -> f64 {
        self.t_cpu.max(self.t_gpu)
    }

    /// Does the CPU dominate the predicted cost?
    pub fn cpu_dominant(&self) -> bool {
        self.t_cpu >= self.t_gpu
    }

    /// Pair this prediction with the realized step timing into an audit
    /// record — the honesty check on the observational model.
    pub fn audit(
        &self,
        step: u64,
        observed: &TimingReport,
        acted: bool,
    ) -> telemetry::PredictionAudit {
        telemetry::PredictionAudit {
            step,
            pred_cpu: self.t_cpu,
            pred_gpu: self.t_gpu,
            actual_cpu: observed.t_cpu,
            actual_gpu: observed.t_gpu,
            acted,
        }
    }
}

/// The paper's observational cost model (§IV.D).
///
/// Coefficients are *derived from realized times*, not predicted: after each
/// solve, [`CostModel::observe`] divides per-operation time by the operation
/// count. CPU coefficients are expressed in **core-seconds per application**
/// ("a single value that encompasses the collective effects of CPU speed,
/// the number of cores, memory speed and the number of retained terms");
/// the observed effective parallelism converts work back to wall time. The
/// GPU coefficient divides the **maximum kernel time** by the **total GPU
/// block-steps over all GPUs** (`OpCounts::gpu_block_steps`): the unit the
/// kernel is charged in, so the idle threads of partial blocks — the warp
/// occupancy that shifts as the tree changes — are in the count, and the
/// coefficient carries only what the count cannot see (SM makespan, launch
/// overhead, the split over devices).
#[derive(Clone, Copy, Debug, Default)]
pub struct CostModel {
    /// CPU core-seconds per body expanded (P2M).
    pub c_p2m: f64,
    /// CPU core-seconds per multipole translation (M2M).
    pub c_m2m: f64,
    /// CPU core-seconds per multipole-to-local translation (M2L).
    pub c_m2l: f64,
    /// CPU core-seconds per local translation (L2L).
    pub c_l2l: f64,
    /// CPU core-seconds per body evaluated (L2P).
    pub c_l2p: f64,
    /// CPU core-seconds per direct interaction (used when the node has no
    /// online GPU and P2P runs on the cores).
    pub c_cpu_pair: f64,
    /// CPU core-seconds of task-runtime overhead per non-empty node (one
    /// upsweep + one downsweep task each).
    pub c_node: f64,
    /// Observed effective parallelism of the far-field phase
    /// (core-equivalents, ≥ 1).
    pub parallel_rate: f64,
    /// GPU-system seconds per block-step: max kernel time divided by the
    /// total block-steps over all GPUs.
    pub c_gpu_block: f64,
    observed: bool,
}

impl CostModel {
    pub fn new() -> Self {
        CostModel {
            parallel_rate: 1.0,
            ..Default::default()
        }
    }

    /// Have coefficients been observed yet (at least one solve)?
    pub fn is_observed(&self) -> bool {
        self.observed
    }

    /// Every coefficient with its name, in the order a checkpoint writes
    /// them.
    pub fn coefficients(&self) -> [(&'static str, f64); 9] {
        [
            ("c_p2m", self.c_p2m),
            ("c_m2m", self.c_m2m),
            ("c_m2l", self.c_m2l),
            ("c_l2l", self.c_l2l),
            ("c_l2p", self.c_l2p),
            ("c_cpu_pair", self.c_cpu_pair),
            ("c_node", self.c_node),
            ("parallel_rate", self.parallel_rate),
            ("c_gpu_block", self.c_gpu_block),
        ]
    }

    /// Restore the observation flag on a model rebuilt from a checkpoint
    /// (the coefficients themselves are public fields).
    pub fn set_observed(&mut self, observed: bool) {
        self.observed = observed;
    }

    /// Derive coefficients from a realized solve: its operation counts and
    /// its virtual-node timing.
    pub fn observe(
        &mut self,
        counts: &OpCounts,
        timing: &TimingReport,
        flops: &OpFlops,
        node: &HeteroNode,
    ) {
        // Per-op core time: total time spent on the op over all workers
        // divided by its count. On the virtual node every worker runs at the
        // same effective rate, so this reduces to flops/rate — but it is
        // still an *observation* of the realized execution (the rate already
        // folds in the memory model at the current core count).
        let eff = node.cpu.rate_flops * node.cpu.memory.rate_factor(node.cpu.cores);
        self.c_p2m = flops.p2m_per_body / eff;
        self.c_m2m = flops.m2m / eff;
        self.c_m2l = flops.m2l / eff;
        self.c_l2l = flops.l2l / eff;
        self.c_l2p = flops.l2p_per_body / eff;
        self.c_cpu_pair = flops.p2p_per_pair / eff;
        self.c_node = 2.0 * node.cpu.task_overhead_s;
        self.parallel_rate = timing.parallel_rate();
        if timing.gpu.is_some() && counts.gpu_block_steps > 0 {
            self.c_gpu_block = timing.t_gpu / counts.gpu_block_steps as f64;
        }
        self.observed = true;
    }

    /// Far-field CPU work in core-seconds for the given counts.
    fn far_field_core_seconds(&self, counts: &OpCounts) -> f64 {
        self.c_p2m * counts.p2m_bodies as f64
            + self.c_m2m * counts.m2m_ops as f64
            + self.c_m2l * counts.m2l_ops as f64
            + self.c_l2l * counts.l2l_ops as f64
            + self.c_l2p * counts.l2p_bodies as f64
            + self.c_node * counts.active_nodes as f64
    }

    /// Predict the CPU/GPU times of a tree with the given operation counts
    /// — the paper's "decisions on whether a tree modification would be
    /// desirable can be made without having to perform a full FMM solve".
    pub fn predict(&self, counts: &OpCounts, node: &HeteroNode) -> Prediction {
        let mut cpu_work = self.far_field_core_seconds(counts);
        let t_gpu;
        // As `exec::time_step` runs it: P2P goes to the cores once no
        // device is online, installed or not.
        if node.num_online_gpus() > 0 {
            t_gpu = self.c_gpu_block * counts.gpu_block_steps as f64;
        } else {
            t_gpu = 0.0;
            cpu_work += self.c_cpu_pair * counts.p2p_interactions as f64;
        }
        Prediction {
            t_cpu: cpu_work / self.parallel_rate.max(1.0),
            t_gpu,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FmmParams, HeteroNode};
    use crate::engine::FmmEngine;
    use crate::exec::{time_step, ExecPolicy};
    use fmm_math::{GravityKernel, Kernel};
    use nbody::plummer;

    fn observed_model(
        n: usize,
        s: usize,
        node: &HeteroNode,
    ) -> (CostModel, OpCounts, TimingReport, FmmEngine<GravityKernel>) {
        let b = plummer(n, 1.0, 1.0, 301);
        let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, s);
        let counts = e.refresh_lists();
        let flops = e.kernel.op_flops(e.expansion_ops());
        let timing = time_step(e.tree(), e.lists(), &flops, node, ExecPolicy::default()).unwrap();
        let mut model = CostModel::new();
        model.observe(&counts, &timing, &flops, node);
        (model, counts, timing, e)
    }

    #[test]
    fn prediction_matches_realized_times_on_same_tree() {
        // The model is self-consistent: predicting the very tree it was
        // observed on reproduces the realized GPU time exactly and the CPU
        // time up to task-overhead effects it does not track.
        let node = HeteroNode::system_a(10, 2);
        let (model, counts, timing, _e) = observed_model(4000, 48, &node);
        let pred = model.predict(&counts, &node);
        assert!((pred.t_gpu - timing.t_gpu).abs() < 1e-12 * timing.t_gpu.max(1e-30));
        let rel = (pred.t_cpu - timing.t_cpu).abs() / timing.t_cpu;
        assert!(rel < 0.05, "CPU prediction off by {rel}");
    }

    #[test]
    fn prediction_tracks_local_tree_modification() {
        // Observe on one tree, apply a batch of local PushDowns (the change
        // FineGrainedOptimize makes), predict, then check against the
        // realized times of the modified tree. The GPU coefficient is held
        // across the change (the paper's approximation), so it carries the
        // pre-modification warp efficiency — good for local changes.
        let node = HeteroNode::system_a(10, 2);
        let (model, _c, _t, mut e) = observed_model(4000, 48, &node);
        let mut heavy: Vec<_> = e.tree().active_leaves();
        heavy.sort_by_key(|&id| std::cmp::Reverse(e.tree().node(id).count()));
        for id in heavy.into_iter().take(10) {
            e.tree_mut().push_down(id);
        }
        let counts = e.refresh_lists();
        let flops = e.kernel.op_flops(e.expansion_ops());
        let real = time_step(e.tree(), e.lists(), &flops, &node, ExecPolicy::default()).unwrap();
        let pred = model.predict(&counts, &node);
        let cpu_rel = (pred.t_cpu - real.t_cpu).abs() / real.t_cpu;
        let gpu_rel = (pred.t_gpu - real.t_gpu).abs() / real.t_gpu;
        assert!(cpu_rel < 0.25, "CPU prediction error {cpu_rel}");
        assert!(gpu_rel < 0.5, "GPU prediction error {gpu_rel}");
    }

    #[test]
    fn cpu_only_prediction_includes_p2p() {
        let node = HeteroNode::serial();
        let (model, counts, timing, _e) = observed_model(1500, 32, &node);
        let pred = model.predict(&counts, &node);
        assert_eq!(pred.t_gpu, 0.0);
        let rel = (pred.t_cpu - timing.t_cpu).abs() / timing.t_cpu;
        assert!(rel < 0.05, "serial prediction off by {rel}");
    }

    #[test]
    fn every_gpu_offline_is_priced_as_a_cpu_only_node() {
        // A fault that takes every device offline leaves the GPU system
        // installed; `time_step` then runs P2P on the cores, and the model
        // must price it there too, not at the stale GPU coefficient.
        let mut node = HeteroNode::system_a(4, 1);
        let (model, counts, _t, e) = observed_model(6000, 64, &node);
        let gpus = node.gpus.as_mut().unwrap();
        gpus.apply_event(&gpu_sim::FaultEvent::GpuDropout { device: 0 })
            .unwrap();
        let flops = e.kernel.op_flops(e.expansion_ops());
        let real = time_step(e.tree(), e.lists(), &flops, &node, ExecPolicy::default()).unwrap();
        let pred = model.predict(&counts, &node);
        let rel = (pred.t_cpu - real.t_cpu) / real.t_cpu;
        assert!(
            pred.t_gpu == 0.0 && rel.abs() < 0.05,
            "predicted {pred:?}, time_step reads cpu {} gpu {}",
            real.t_cpu,
            real.t_gpu
        );
        let cpu_only = HeteroNode { gpus: None, ..node };
        assert_eq!(pred, model.predict(&counts, &cpu_only));
    }

    #[test]
    fn bigger_s_moves_the_prediction_as_time_step_moves() {
        // Observed at S = 32, predicted at 24 and 256: each side's predicted
        // change has the sign of the change `time_step` realizes. At 4k on
        // 10C2G the GPU time *falls* from S 24 to 256 (3.94 → 2.72 ms), as
        // larger leaves fill their blocks.
        let node = HeteroNode::system_a(10, 2);
        let (model, _c, _t, mut e) = observed_model(4000, 32, &node);
        let b = plummer(4000, 1.0, 1.0, 301);
        let flops = e.kernel.op_flops(e.expansion_ops());
        let mut at = |s: usize| {
            e.rebuild(&b.pos, s);
            let counts = e.refresh_lists();
            let real = time_step(e.tree(), e.lists(), &flops, &node, ExecPolicy::default());
            (model.predict(&counts, &node), real.unwrap())
        };
        let (p_fine, t_fine) = at(24);
        let (p_coarse, t_coarse) = at(256);
        assert!(t_coarse.t_gpu < t_fine.t_gpu && t_coarse.t_cpu < t_fine.t_cpu);
        assert!(
            p_coarse.t_gpu < p_fine.t_gpu,
            "GPU {p_fine:?} -> {p_coarse:?}"
        );
        assert!(
            p_coarse.t_cpu < p_fine.t_cpu,
            "CPU {p_fine:?} -> {p_coarse:?}"
        );
    }

    #[test]
    fn gpu_prediction_tracks_time_step_across_s() {
        // Observed at one S, the model's t_gpu is within 10 % of
        // `time_step`'s at every point of a ×1.35 grid from 24 to 1700
        // (12k Plummer, 10C1G): the block-step count carries the partial
        // blocks the kernel is charged for, from leaves of a few bodies to
        // leaves of many blocks.
        let node = HeteroNode::system_a(10, 1);
        let (model, _c, _t, mut e) = observed_model(12_000, 96, &node);
        let b = plummer(12_000, 1.0, 1.0, 301);
        let flops = e.kernel.op_flops(e.expansion_ops());
        let grid = std::iter::successors(Some(24usize), |&s| Some((s as f64 * 1.35) as usize));
        for s in grid.take_while(|&s| s <= 1700) {
            e.rebuild(&b.pos, s);
            let counts = e.refresh_lists();
            let real = time_step(e.tree(), e.lists(), &flops, &node, ExecPolicy::default());
            let real = real.unwrap().t_gpu;
            let rel = (model.predict(&counts, &node).t_gpu - real) / real;
            assert!(rel.abs() < 0.10, "S {s}: t_gpu off by {rel}");
        }
    }

    #[test]
    fn the_crossing_is_priced_at_scale() {
        // At 100k on 10C4G, observed at one S, both predicted times are
        // within 10 % of `time_step`'s at every point of a ×1.35 grid from
        // 24 to 1700: the crossing refinement trusts their ratio.
        let node = HeteroNode::system_a(10, 4);
        let (model, _c, _t, mut e) = observed_model(100_000, 96, &node);
        let b = plummer(100_000, 1.0, 1.0, 301);
        let flops = e.kernel.op_flops(e.expansion_ops());
        let grid = std::iter::successors(Some(24usize), |&s| Some((s as f64 * 1.35) as usize));
        for s in grid.take_while(|&s| s <= 1700) {
            e.rebuild(&b.pos, s);
            let counts = e.refresh_lists();
            let real = time_step(e.tree(), e.lists(), &flops, &node, ExecPolicy::default());
            let real = real.unwrap();
            let pred = model.predict(&counts, &node);
            let gpu = (pred.t_gpu - real.t_gpu) / real.t_gpu;
            let cpu = (pred.t_cpu - real.t_cpu) / real.t_cpu;
            assert!(gpu.abs() < 0.10, "S {s}: t_gpu off by {gpu}");
            assert!(cpu.abs() < 0.10, "S {s}: t_cpu off by {cpu}");
        }
    }

    #[test]
    fn unobserved_model_predicts_zero() {
        let model = CostModel::new();
        assert!(!model.is_observed());
        let pred = model.predict(&OpCounts::default(), &HeteroNode::serial());
        assert_eq!(pred.compute(), 0.0);
    }
}
