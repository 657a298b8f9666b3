use crate::device::{KernelReport, P2pJob, SimGpu};
use crate::error::Error;
use crate::faults::FaultEvent;
use crate::partition::{partition_by_interactions, partition_by_interactions_weighted};
use crate::spec::GpuSpec;

/// Timing of one multi-GPU P2P launch: one kernel per device, as in the
/// paper ("for a single FMM solve, a single kernel is launched on each
/// GPU").
#[derive(Clone, Debug)]
pub struct KernelTiming {
    /// Per-device kernel reports, index = device. Offline devices keep a
    /// zeroed report so the index stays aligned with the system.
    pub per_gpu: Vec<KernelReport>,
    /// Which job indices each device executed.
    pub assignment: Vec<Vec<usize>>,
}

impl KernelTiming {
    /// The paper's **GPU Time**: the maximum of all per-device kernel times
    /// in the step. `None` when the timing covers no devices at all — an
    /// empty `per_gpu` means "no measurement", which is different from a
    /// measured 0-second launch.
    pub fn gpu_time(&self) -> Option<f64> {
        if self.per_gpu.is_empty() {
            return None;
        }
        Some(self.per_gpu.iter().map(|r| r.elapsed_s).fold(0.0, f64::max))
    }

    /// Total useful interactions over all devices.
    pub fn total_pairs(&self) -> u64 {
        self.per_gpu.iter().map(|r| r.useful_pairs).sum()
    }

    /// Whole-system SIMT efficiency (useful / occupied thread work).
    /// `None` when the timing covers no devices; an empty *launch* on real
    /// devices is defined as fully efficient (`Some(1.0)`), matching
    /// [`KernelReport::efficiency`].
    pub fn efficiency(&self) -> Option<f64> {
        if self.per_gpu.is_empty() {
            return None;
        }
        let useful: u64 = self.per_gpu.iter().map(|r| r.useful_pairs).sum();
        let occ: u64 = self.per_gpu.iter().map(|r| r.occupied_pairs).sum();
        if occ == 0 {
            Some(1.0)
        } else {
            Some(useful as f64 / occ as f64)
        }
    }

    /// Load imbalance of the launch: max over mean elapsed time across the
    /// devices that received work. `1.0` = perfectly balanced; `None` when
    /// no device did any work (nothing to compare).
    pub fn imbalance(&self) -> Option<f64> {
        let busy: Vec<f64> = self
            .per_gpu
            .iter()
            .filter(|r| r.useful_pairs > 0)
            .map(|r| r.elapsed_s)
            .collect();
        if busy.is_empty() {
            return None;
        }
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        if mean <= 0.0 {
            return Some(1.0);
        }
        let max = busy.iter().fold(0.0f64, |a, &b| a.max(b));
        Some(max / mean)
    }

    /// Publish this launch into a telemetry recorder: `gpu.time` /
    /// `gpu.imbalance` / `gpu.efficiency` gauges, a `gpu.device_util`
    /// histogram (per busy device, elapsed / makespan), and a
    /// `gpu.launches` counter. A disabled recorder makes this free.
    pub fn record_metrics(&self, rec: &telemetry::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        rec.counter_add("gpu.launches", 1);
        let Some(makespan) = self.gpu_time() else {
            return;
        };
        rec.gauge_set("gpu.time", makespan);
        if let Some(e) = self.efficiency() {
            rec.gauge_set("gpu.efficiency", e);
        }
        if let Some(im) = self.imbalance() {
            rec.gauge_set("gpu.imbalance", im);
        }
        if makespan > 0.0 {
            for (device, r) in self
                .per_gpu
                .iter()
                .enumerate()
                .filter(|(_, r)| r.useful_pairs > 0)
            {
                rec.hist_record("gpu.device_util", r.elapsed_s / makespan);
                // Per-device launch event: the trace exporter turns these
                // into one Chrome timeline track per GPU.
                rec.event(
                    "gpu.util",
                    vec![
                        ("device", telemetry::Value::U64(device as u64)),
                        ("elapsed_s", telemetry::Value::F64(r.elapsed_s)),
                        ("util", telemetry::Value::F64(r.elapsed_s / makespan)),
                        ("pairs", telemetry::Value::U64(r.useful_pairs)),
                    ],
                );
            }
        }
    }
}

/// Health of one device, driven by [`FaultEvent`]s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceStatus {
    /// Whether the device accepts work.
    pub online: bool,
    /// Multiplier on kernel time (`>= 1.0`; `1.0` = nominal speed).
    pub slowdown: f64,
}

impl Default for DeviceStatus {
    fn default() -> Self {
        DeviceStatus {
            online: true,
            slowdown: 1.0,
        }
    }
}

/// A set of simulated GPUs sharing the node, executing the AFMM's direct
/// work each time step. Devices can degrade or drop out at runtime via
/// [`GpuSystem::apply_event`]; work is then partitioned across the online
/// devices only, weighted by their effective (slowdown-adjusted) speed.
#[derive(Clone, Debug)]
pub struct GpuSystem {
    gpus: Vec<SimGpu>,
    status: Vec<DeviceStatus>,
}

impl GpuSystem {
    /// `n` identical devices.
    pub fn homogeneous(n: usize, spec: GpuSpec) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::NoGpus);
        }
        Ok(GpuSystem {
            gpus: vec![SimGpu::new(spec); n],
            status: vec![DeviceStatus::default(); n],
        })
    }

    /// A mixed-device system (extension beyond the paper, which assumes
    /// identical GPUs). [`GpuSystem::execute_weighted`] partitions work in
    /// proportion to each device's peak throughput.
    pub fn heterogeneous(specs: Vec<GpuSpec>) -> Result<Self, Error> {
        if specs.is_empty() {
            return Err(Error::NoGpus);
        }
        let status = vec![DeviceStatus::default(); specs.len()];
        Ok(GpuSystem {
            gpus: specs.into_iter().map(SimGpu::new).collect(),
            status,
        })
    }

    pub fn num_gpus(&self) -> usize {
        self.gpus.len()
    }

    /// Devices currently accepting work.
    pub fn num_online(&self) -> usize {
        self.status.iter().filter(|s| s.online).count()
    }

    pub fn is_online(&self, i: usize) -> bool {
        self.status.get(i).is_some_and(|s| s.online)
    }

    pub fn status(&self, i: usize) -> Option<&DeviceStatus> {
        self.status.get(i)
    }

    /// Per-device health, index = device — the piece of GPU state a
    /// checkpoint must carry (specs are configuration, health is state).
    pub fn statuses(&self) -> &[DeviceStatus] {
        &self.status
    }

    /// Restore a saved health vector onto this system, validating shape and
    /// values so a tampered checkpoint cannot smuggle in an impossible
    /// status (e.g. a negative slowdown).
    pub fn restore_statuses(&mut self, saved: &[DeviceStatus]) -> Result<(), Error> {
        if saved.len() != self.status.len() {
            return Err(Error::StatusCountMismatch {
                expected: self.status.len(),
                got: saved.len(),
            });
        }
        for s in saved {
            if !s.slowdown.is_finite() || s.slowdown < 1.0 {
                return Err(Error::BadFactor { factor: s.slowdown });
            }
        }
        self.status.copy_from_slice(saved);
        Ok(())
    }

    pub fn spec(&self, i: usize) -> &GpuSpec {
        &self.gpus[i].spec
    }

    /// Apply one fault event. Host-side events (`ExternalCpuLoad`,
    /// `TimingNoise`) are validated but not stored here — they belong to
    /// the CPU timing model — so the return distinguishes them: `Ok(true)`
    /// means GPU state changed, `Ok(false)` means the event is host-side.
    pub fn apply_event(&mut self, event: &FaultEvent) -> Result<bool, Error> {
        let check_device = |device: usize, count: usize| {
            if device >= count {
                Err(Error::DeviceOutOfRange { device, count })
            } else {
                Ok(())
            }
        };
        match *event {
            FaultEvent::GpuSlowdown { device, factor } => {
                check_device(device, self.gpus.len())?;
                if !factor.is_finite() || factor < 1.0 {
                    return Err(Error::BadFactor { factor });
                }
                self.status[device].slowdown = factor;
                Ok(true)
            }
            FaultEvent::GpuDropout { device } => {
                check_device(device, self.gpus.len())?;
                self.status[device].online = false;
                Ok(true)
            }
            FaultEvent::GpuRecover { device } => {
                check_device(device, self.gpus.len())?;
                self.status[device] = DeviceStatus::default();
                Ok(true)
            }
            FaultEvent::ExternalCpuLoad { factor } => {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(Error::BadFactor { factor });
                }
                Ok(false)
            }
            FaultEvent::TimingNoise { sigma } => {
                if !sigma.is_finite() || sigma < 0.0 {
                    return Err(Error::BadFactor { factor: sigma });
                }
                Ok(false)
            }
        }
    }

    fn online_indices(&self) -> Vec<usize> {
        (0..self.gpus.len())
            .filter(|&i| self.status[i].online)
            .collect()
    }

    /// Partition `jobs` by the paper's interaction-count walk across the
    /// *online* devices and run one kernel per device. When online devices
    /// are unevenly slowed, the walk is weighted by `1 / slowdown` so a
    /// throttled device receives proportionally less work.
    pub fn execute(&self, jobs: &[P2pJob]) -> Result<KernelTiming, Error> {
        let online = self.checked_online(jobs.is_empty())?;
        let weights: Vec<u64> = jobs.iter().map(P2pJob::interactions).collect();
        let assignment = if self.uniform_slowdown(&online) {
            partition_by_interactions(&weights, online.len().max(1))
        } else {
            let shares: Vec<f64> = online
                .iter()
                .map(|&i| 1.0 / self.status[i].slowdown)
                .collect();
            partition_by_interactions_weighted(&weights, &shares)
        };
        Ok(self.run_scattered(jobs, &online, assignment))
    }

    /// Partition `jobs` by the speed-weighted walk (each online device's
    /// share is proportional to its effective pair throughput — peak
    /// divided by slowdown) and run one kernel per device. On a nominal
    /// homogeneous system this is identical to [`GpuSystem::execute`].
    pub fn execute_weighted(&self, jobs: &[P2pJob]) -> Result<KernelTiming, Error> {
        let online = self.checked_online(jobs.is_empty())?;
        let weights: Vec<u64> = jobs.iter().map(P2pJob::interactions).collect();
        let shares: Vec<f64> = online
            .iter()
            .map(|&i| self.gpus[i].spec.peak_pairs_per_sec() / self.status[i].slowdown)
            .collect();
        let assignment = if online.is_empty() {
            vec![]
        } else {
            partition_by_interactions_weighted(&weights, &shares)
        };
        Ok(self.run_scattered(jobs, &online, assignment))
    }

    /// Partition offloaded expansion jobs by body count (the analogue of
    /// the interaction walk) across the online devices and run one
    /// expansion kernel per device.
    pub fn execute_expansions(
        &self,
        jobs: &[crate::device::ExpansionJob],
    ) -> Result<KernelTiming, Error> {
        let online = self.checked_online(jobs.is_empty())?;
        let weights: Vec<u64> = jobs.iter().map(|j| j.bodies as u64).collect();
        let online_assignment = if self.uniform_slowdown(&online) {
            partition_by_interactions(&weights, online.len().max(1))
        } else {
            let shares: Vec<f64> = online
                .iter()
                .map(|&i| 1.0 / self.status[i].slowdown)
                .collect();
            partition_by_interactions_weighted(&weights, &shares)
        };
        let mut assignment = vec![Vec::new(); self.gpus.len()];
        for (slot, idxs) in online.iter().zip(online_assignment) {
            assignment[*slot] = idxs;
        }
        let per_gpu = self
            .gpus
            .iter()
            .zip(&assignment)
            .enumerate()
            .map(|(d, (gpu, idxs))| {
                let mine: Vec<_> = idxs.iter().map(|&i| jobs[i]).collect();
                let mut r = gpu.run_expansion_kernel(&mine);
                r.elapsed_s *= self.status[d].slowdown;
                r
            })
            .collect();
        Ok(KernelTiming {
            per_gpu,
            assignment,
        })
    }

    /// Run one kernel per device with a caller-provided partition (used by
    /// the partitioning ablation). `assignment.len()` must equal the device
    /// count, and no offline device may receive work.
    pub fn execute_with_partition(
        &self,
        jobs: &[P2pJob],
        assignment: Vec<Vec<usize>>,
    ) -> Result<KernelTiming, Error> {
        if assignment.len() != self.gpus.len() {
            return Err(Error::PartitionMismatch {
                expected: self.gpus.len(),
                got: assignment.len(),
            });
        }
        for (d, idxs) in assignment.iter().enumerate() {
            if !idxs.is_empty() && !self.status[d].online {
                return Err(Error::OfflineDeviceAssigned { device: d });
            }
        }
        Ok(self.run_full(jobs, assignment))
    }

    /// `Err(NoOnlineGpus)` when there is real work but nothing to run it
    /// on; otherwise the online device list (possibly empty for an empty
    /// launch).
    fn checked_online(&self, jobs_empty: bool) -> Result<Vec<usize>, Error> {
        let online = self.online_indices();
        if online.is_empty() && !jobs_empty {
            return Err(Error::NoOnlineGpus);
        }
        Ok(online)
    }

    fn uniform_slowdown(&self, online: &[usize]) -> bool {
        online
            .windows(2)
            .all(|w| self.status[w[0]].slowdown == self.status[w[1]].slowdown)
    }

    /// Scatter an online-indexed assignment back to full device indexing
    /// and run it.
    fn run_scattered(
        &self,
        jobs: &[P2pJob],
        online: &[usize],
        online_assignment: Vec<Vec<usize>>,
    ) -> KernelTiming {
        let mut assignment = vec![Vec::new(); self.gpus.len()];
        for (slot, idxs) in online.iter().zip(online_assignment) {
            assignment[*slot] = idxs;
        }
        self.run_full(jobs, assignment)
    }

    fn run_full(&self, jobs: &[P2pJob], assignment: Vec<Vec<usize>>) -> KernelTiming {
        let per_gpu = self
            .gpus
            .iter()
            .zip(&assignment)
            .enumerate()
            .map(|(d, (gpu, idxs))| {
                let mut r = gpu.run_kernel(idxs.iter().map(|&i| &jobs[i]));
                r.elapsed_s *= self.status[d].slowdown;
                r
            })
            .collect();
        KernelTiming {
            per_gpu,
            assignment,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload with many similar jobs — the regime of the paper's
    /// Table I GPU-scaling measurement.
    fn plummer_like_jobs(n: usize) -> Vec<P2pJob> {
        (0..n)
            .map(|i| {
                let t = 60 + (i * 131) % 80;
                let srcs = vec![64 + (i * 17) % 70; 20 + i % 9];
                P2pJob::new(t, srcs)
            })
            .collect()
    }

    fn homog(n: usize) -> GpuSystem {
        GpuSystem::homogeneous(n, GpuSpec::default()).unwrap()
    }

    #[test]
    fn gpu_scaling_matches_table1_shape() {
        // Paper Table I: speedups ≈ 1.00, 1.97, 2.95, 3.92 for 1..4 GPUs on
        // a fixed workload.
        let jobs = plummer_like_jobs(4000);
        let t1 = homog(1).execute(&jobs).unwrap().gpu_time().unwrap();
        for (n, expect) in [(2usize, 1.97), (3, 2.95), (4, 3.92)] {
            let tn = homog(n).execute(&jobs).unwrap().gpu_time().unwrap();
            let speedup = t1 / tn;
            assert!(
                (speedup - expect).abs() < 0.25,
                "{n} GPUs: speedup {speedup:.2}, paper {expect}"
            );
        }
    }

    #[test]
    fn gpu_time_is_max_over_devices() {
        let jobs = plummer_like_jobs(100);
        let timing = homog(3).execute(&jobs).unwrap();
        let max = timing
            .per_gpu
            .iter()
            .map(|r| r.elapsed_s)
            .fold(0.0, f64::max);
        assert_eq!(timing.gpu_time(), Some(max));
    }

    #[test]
    fn all_jobs_executed_exactly_once() {
        let jobs = plummer_like_jobs(57);
        let timing = homog(4).execute(&jobs).unwrap();
        let mut seen = vec![false; jobs.len()];
        for g in &timing.assignment {
            for &i in g {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        let expect: u64 = jobs.iter().map(P2pJob::interactions).sum();
        assert_eq!(timing.total_pairs(), expect);
    }

    #[test]
    fn interaction_partition_beats_node_count_on_skew() {
        use crate::partition::partition_by_node_count;
        // Heavily skewed: early nodes tiny, late nodes huge. Node-count
        // partition puts all the weight on the last GPU.
        let mut jobs = vec![P2pJob::new(4, vec![16]); 60];
        jobs.extend((0..20).map(|_| P2pJob::new(128, vec![512; 30])));
        let sys = homog(4);
        let smart = sys.execute(&jobs).unwrap().gpu_time().unwrap();
        let naive = sys
            .execute_with_partition(&jobs, partition_by_node_count(jobs.len(), 4))
            .unwrap()
            .gpu_time()
            .unwrap();
        assert!(
            naive > 1.5 * smart,
            "naive {naive} should be much worse than smart {smart}"
        );
    }

    #[test]
    fn efficiency_reflects_leaf_sizes() {
        let spec = GpuSpec::default();
        let sys = GpuSystem::homogeneous(2, spec).unwrap();
        // Full blocks everywhere.
        let good: Vec<P2pJob> = (0..50)
            .map(|_| P2pJob::new(spec.block_size, vec![512]))
            .collect();
        // Tiny targets, huge source streams.
        let bad: Vec<P2pJob> = (0..50).map(|_| P2pJob::new(3, vec![512; 10])).collect();
        assert_eq!(sys.execute(&good).unwrap().efficiency(), Some(1.0));
        assert!(sys.execute(&bad).unwrap().efficiency().unwrap() < 0.2);
    }

    #[test]
    fn deterministic() {
        let jobs = plummer_like_jobs(333);
        let sys = homog(4);
        let a = sys.execute(&jobs).unwrap();
        let b = sys.execute(&jobs).unwrap();
        assert_eq!(a.gpu_time(), b.gpu_time());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn empty_workload() {
        let sys = homog(2);
        let timing = sys.execute(&[]).unwrap();
        // No work is a measured 0-second launch, not a missing measurement.
        assert_eq!(timing.gpu_time(), Some(0.0));
        assert_eq!(timing.total_pairs(), 0);
    }

    #[test]
    fn empty_timing_has_no_gpu_time() {
        let t = KernelTiming {
            per_gpu: vec![],
            assignment: vec![],
        };
        assert_eq!(t.gpu_time(), None);
        assert_eq!(t.efficiency(), None);
        assert_eq!(t.imbalance(), None);
    }

    #[test]
    fn imbalance_is_max_over_mean_of_busy_devices() {
        let jobs = plummer_like_jobs(400);
        let timing = homog(2).execute(&jobs).unwrap();
        let im = timing.imbalance().unwrap();
        assert!((1.0..1.5).contains(&im), "balanced walk, imbalance {im}");
        // Force everything onto one device: the idle one must not count.
        let sys = homog(2);
        let skew = sys
            .execute_with_partition(&jobs, vec![(0..jobs.len()).collect(), vec![]])
            .unwrap();
        assert_eq!(skew.imbalance(), Some(1.0));
    }

    #[test]
    fn record_metrics_publishes_launch() {
        let rec = telemetry::Recorder::enabled();
        let jobs = plummer_like_jobs(300);
        let timing = homog(3).execute(&jobs).unwrap();
        timing.record_metrics(&rec);
        let m = rec.metrics();
        assert_eq!(m.counter("gpu.launches"), Some(1));
        assert_eq!(m.gauge("gpu.time"), timing.gpu_time());
        assert_eq!(m.gauge("gpu.imbalance"), timing.imbalance());
        assert_eq!(m.histogram("gpu.device_util").unwrap().count, 3);
        // Disabled recorder: free no-op.
        timing.record_metrics(&telemetry::Recorder::disabled());
    }

    #[test]
    fn zero_devices_is_an_error() {
        assert_eq!(
            GpuSystem::homogeneous(0, GpuSpec::default()).unwrap_err(),
            Error::NoGpus
        );
        assert_eq!(GpuSystem::heterogeneous(vec![]).unwrap_err(), Error::NoGpus);
    }

    #[test]
    fn weighted_equals_plain_on_homogeneous_system() {
        let jobs = plummer_like_jobs(200);
        let sys = homog(3);
        let a = sys.execute(&jobs).unwrap();
        let b = sys.execute_weighted(&jobs).unwrap();
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.gpu_time(), b.gpu_time());
    }

    #[test]
    fn weighted_partition_balances_mixed_devices() {
        // One full-speed C2050 and one half-clock device: the weighted walk
        // must beat the equal-share walk.
        let fast = GpuSpec::default();
        let slow = GpuSpec {
            clock_hz: fast.clock_hz / 2.0,
            ..fast
        };
        let sys = GpuSystem::heterogeneous(vec![fast, slow]).unwrap();
        let jobs = plummer_like_jobs(600);
        let equal = sys.execute(&jobs).unwrap().gpu_time().unwrap();
        let weighted = sys.execute_weighted(&jobs).unwrap().gpu_time().unwrap();
        assert!(
            weighted < 0.85 * equal,
            "weighted {weighted} should clearly beat equal-share {equal}"
        );
        // And the fast device must carry roughly 2/3 of the interactions.
        let t = sys.execute_weighted(&jobs).unwrap();
        let w0: u64 = t.per_gpu[0].useful_pairs;
        let w1: u64 = t.per_gpu[1].useful_pairs;
        let frac = w0 as f64 / (w0 + w1) as f64;
        assert!((0.55..0.8).contains(&frac), "fast-device share {frac}");
    }

    #[test]
    fn expansion_kernels_scale_with_devices() {
        use crate::device::ExpansionJob;
        let jobs: Vec<ExpansionJob> = (0..200)
            .map(|i| ExpansionJob {
                bodies: 64 + i % 128,
                cycles_per_body: 50_000.0,
            })
            .collect();
        let t1 = homog(1)
            .execute_expansions(&jobs)
            .unwrap()
            .gpu_time()
            .unwrap();
        let t4 = homog(4)
            .execute_expansions(&jobs)
            .unwrap()
            .gpu_time()
            .unwrap();
        assert!(t4 < 0.4 * t1, "expansion offload must scale: {t1} -> {t4}");
    }

    // ---- fault handling ----

    #[test]
    fn dropout_reroutes_work_to_survivors() {
        let jobs = plummer_like_jobs(400);
        let mut sys = homog(2);
        let before = sys.execute(&jobs).unwrap();
        sys.apply_event(&FaultEvent::GpuDropout { device: 1 })
            .unwrap();
        assert_eq!(sys.num_online(), 1);
        assert!(!sys.is_online(1));
        let after = sys.execute(&jobs).unwrap();
        // Device 1 idles; device 0 carries everything and takes about twice
        // as long.
        assert!(after.assignment[1].is_empty());
        assert_eq!(after.per_gpu[1].useful_pairs, 0);
        assert_eq!(after.total_pairs(), before.total_pairs());
        let ratio = after.gpu_time().unwrap() / before.gpu_time().unwrap();
        assert!(ratio > 1.5, "survivor should slow down, ratio {ratio}");
    }

    #[test]
    fn recover_restores_original_behaviour() {
        let jobs = plummer_like_jobs(400);
        let mut sys = homog(2);
        let before = sys.execute(&jobs).unwrap();
        sys.apply_event(&FaultEvent::GpuDropout { device: 0 })
            .unwrap();
        sys.apply_event(&FaultEvent::GpuRecover { device: 0 })
            .unwrap();
        let after = sys.execute(&jobs).unwrap();
        assert_eq!(before.assignment, after.assignment);
        assert_eq!(before.gpu_time(), after.gpu_time());
    }

    #[test]
    fn slowdown_scales_kernel_time_and_rebalances() {
        let jobs = plummer_like_jobs(600);
        let mut sys = homog(2);
        let nominal = sys.execute(&jobs).unwrap();
        sys.apply_event(&FaultEvent::GpuSlowdown {
            device: 1,
            factor: 3.0,
        })
        .unwrap();
        let slowed = sys.execute(&jobs).unwrap();
        // The walk shifts work toward the healthy device...
        assert!(slowed.per_gpu[0].useful_pairs > nominal.per_gpu[0].useful_pairs);
        // ...and the makespan still degrades, but far less than 3×.
        let ratio = slowed.gpu_time().unwrap() / nominal.gpu_time().unwrap();
        assert!(ratio > 1.05 && ratio < 2.5, "ratio {ratio}");
        // Clearing the slowdown restores nominal behaviour.
        sys.apply_event(&FaultEvent::GpuSlowdown {
            device: 1,
            factor: 1.0,
        })
        .unwrap();
        assert_eq!(sys.execute(&jobs).unwrap().gpu_time(), nominal.gpu_time());
    }

    #[test]
    fn all_devices_lost_errors_on_real_work_only() {
        let mut sys = homog(2);
        sys.apply_event(&FaultEvent::GpuDropout { device: 0 })
            .unwrap();
        sys.apply_event(&FaultEvent::GpuDropout { device: 1 })
            .unwrap();
        let jobs = plummer_like_jobs(10);
        assert_eq!(sys.execute(&jobs).unwrap_err(), Error::NoOnlineGpus);
        assert_eq!(
            sys.execute_weighted(&jobs).unwrap_err(),
            Error::NoOnlineGpus
        );
        // An empty launch is still well-defined.
        assert_eq!(sys.execute(&[]).unwrap().gpu_time(), Some(0.0));
    }

    #[test]
    fn apply_event_validates_inputs() {
        let mut sys = homog(2);
        assert_eq!(
            sys.apply_event(&FaultEvent::GpuDropout { device: 5 })
                .unwrap_err(),
            Error::DeviceOutOfRange {
                device: 5,
                count: 2
            }
        );
        assert!(matches!(
            sys.apply_event(&FaultEvent::GpuSlowdown {
                device: 0,
                factor: 0.5
            }),
            Err(Error::BadFactor { .. })
        ));
        assert!(matches!(
            sys.apply_event(&FaultEvent::GpuSlowdown {
                device: 0,
                factor: f64::NAN
            }),
            Err(Error::BadFactor { .. })
        ));
        assert!(matches!(
            sys.apply_event(&FaultEvent::TimingNoise { sigma: -0.1 }),
            Err(Error::BadFactor { .. })
        ));
        // Host-side events are validated but leave GPU state untouched.
        assert!(!sys
            .apply_event(&FaultEvent::ExternalCpuLoad { factor: 2.0 })
            .unwrap());
        assert_eq!(sys.num_online(), 2);
        assert_eq!(sys.status(0).unwrap().slowdown, 1.0);
    }

    #[test]
    fn partition_to_offline_device_is_rejected() {
        let jobs = plummer_like_jobs(20);
        let mut sys = homog(2);
        sys.apply_event(&FaultEvent::GpuDropout { device: 1 })
            .unwrap();
        let bad = vec![vec![0], (1..jobs.len()).collect()];
        assert_eq!(
            sys.execute_with_partition(&jobs, bad).unwrap_err(),
            Error::OfflineDeviceAssigned { device: 1 }
        );
        let wrong_len = vec![vec![0]];
        assert_eq!(
            sys.execute_with_partition(&jobs, wrong_len).unwrap_err(),
            Error::PartitionMismatch {
                expected: 2,
                got: 1
            }
        );
    }
}
