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

    /// Emit one `gpu.util` event per busy device of this launch (elapsed,
    /// elapsed / makespan, pairs); the trace exporter draws one Chrome
    /// timeline track per GPU from them. A disabled recorder makes this free.
    pub fn record_util_events(&self, rec: &telemetry::Recorder) {
        if !rec.is_enabled() {
            return;
        }
        let Some(makespan) = self.gpu_time() else {
            return;
        };
        if makespan > 0.0 {
            for (device, r) in self
                .per_gpu
                .iter()
                .enumerate()
                .filter(|(_, r)| r.useful_pairs > 0)
            {
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

    /// Partition `jobs` by the paper's interaction-count walk across the
    /// *online* devices and run one kernel per device. When online devices
    /// are unevenly slowed, the walk is weighted by `1 / slowdown` so a
    /// throttled device receives proportionally less work.
    pub fn execute(&self, jobs: &[P2pJob]) -> Result<KernelTiming, Error> {
        let weights: Vec<u64> = jobs.iter().map(P2pJob::interactions).collect();
        let assignment = self.partition_online(&weights)?;
        Ok(self.run_full(jobs, assignment))
    }

    /// Partition offloaded expansion jobs by body count (the analogue of
    /// the interaction walk) across the online devices and run one
    /// expansion kernel per device.
    pub fn execute_expansions(
        &self,
        jobs: &[crate::device::ExpansionJob],
    ) -> Result<KernelTiming, Error> {
        let weights: Vec<u64> = jobs.iter().map(|j| j.bodies as u64).collect();
        let assignment = self.partition_online(&weights)?;
        Ok(self.run(assignment, |gpu, idxs| {
            gpu.run_expansion_kernel(idxs.iter().map(|&i| &jobs[i]))
        }))
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

    /// The walk over `weights` across the online devices, scattered back
    /// to device indexing: equal shares when the online devices run at one
    /// speed, `1 / slowdown` shares otherwise. `Err(NoOnlineGpus)` when
    /// there is real work but nothing to run it on.
    fn partition_online(&self, weights: &[u64]) -> Result<Vec<Vec<usize>>, Error> {
        let online: Vec<usize> = (0..self.gpus.len())
            .filter(|&i| self.status[i].online)
            .collect();
        if online.is_empty() && !weights.is_empty() {
            return Err(Error::NoOnlineGpus);
        }
        let uniform = online
            .windows(2)
            .all(|w| self.status[w[0]].slowdown == self.status[w[1]].slowdown);
        let online_assignment = if uniform {
            partition_by_interactions(weights, online.len().max(1))
        } else {
            let shares: Vec<f64> = online
                .iter()
                .map(|&i| 1.0 / self.status[i].slowdown)
                .collect();
            partition_by_interactions_weighted(weights, &shares)
        };
        let mut assignment = vec![Vec::new(); self.gpus.len()];
        for (slot, idxs) in online.iter().zip(online_assignment) {
            assignment[*slot] = idxs;
        }
        Ok(assignment)
    }

    fn run_full(&self, jobs: &[P2pJob], assignment: Vec<Vec<usize>>) -> KernelTiming {
        self.run(assignment, |gpu, idxs| {
            gpu.run_kernel(idxs.iter().map(|&i| &jobs[i]))
        })
    }

    /// Run one kernel per device on its share of `assignment`, each
    /// device's time stretched by its slowdown.
    fn run(
        &self,
        assignment: Vec<Vec<usize>>,
        kernel: impl Fn(&SimGpu, &[usize]) -> KernelReport,
    ) -> KernelTiming {
        let per_gpu = self
            .gpus
            .iter()
            .zip(&self.status)
            .zip(&assignment)
            .map(|((gpu, status), idxs)| {
                let mut r = kernel(gpu, idxs);
                r.elapsed_s *= status.slowdown;
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
    fn record_util_events_emits_one_event_per_busy_device() {
        let rec = telemetry::Recorder::enabled();
        let jobs = plummer_like_jobs(300);
        let timing = homog(3).execute(&jobs).unwrap();
        timing.record_util_events(&rec);
        let util = rec.events_named("gpu.util");
        assert_eq!(util.len(), 3);
        let makespan = timing.gpu_time().unwrap();
        for (device, (e, r)) in util.iter().zip(&timing.per_gpu).enumerate() {
            assert_eq!(e.field_u64("device"), Some(device as u64));
            assert_eq!(e.field_f64("elapsed_s"), Some(r.elapsed_s));
            assert_eq!(e.field_f64("util"), Some(r.elapsed_s / makespan));
            assert_eq!(e.field_u64("pairs"), Some(r.useful_pairs));
        }
        // Disabled recorder: free no-op.
        timing.record_util_events(&telemetry::Recorder::disabled());
    }

    #[test]
    fn zero_devices_is_an_error() {
        assert_eq!(
            GpuSystem::homogeneous(0, GpuSpec::default()).unwrap_err(),
            Error::NoGpus
        );
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

    /// Four devices, one slowed 2×: the slowdown-weighted walk of both
    /// launch kinds, pinned to the bit.
    #[test]
    fn slowed_device_partition_is_pinned_for_both_launch_kinds() {
        use crate::device::ExpansionJob;
        let mut sys = homog(4);
        sys.apply_event(&FaultEvent::GpuSlowdown {
            device: 2,
            factor: 2.0,
        })
        .unwrap();
        let p2p = sys.execute(&plummer_like_jobs(40)).unwrap();
        let ex_jobs: Vec<ExpansionJob> = (0..40)
            .map(|i| ExpansionJob {
                bodies: 40 + (i * 37) % 150,
                cycles_per_body: 30_000.0,
            })
            .collect();
        let ex = sys.execute_expansions(&ex_jobs).unwrap();
        // The throttled device takes half a share in both walks.
        let groups: Vec<Vec<usize>> = [0..12, 12..24, 24..30, 30..40]
            .into_iter()
            .map(|r| r.collect())
            .collect();
        let bits = |t: &KernelTiming| -> Vec<u64> {
            t.per_gpu.iter().map(|r| r.elapsed_s.to_bits()).collect()
        };
        assert_eq!(p2p.assignment, groups);
        assert_eq!(
            bits(&p2p),
            [
                4559252313851128596,
                4558824028575678122,
                4562957089256872365,
                4558095783200942110
            ]
        );
        assert_eq!(p2p.gpu_time().unwrap().to_bits(), 4562957089256872365);
        assert_eq!(ex.assignment, groups);
        assert_eq!(
            bits(&ex),
            [
                4544953919200304813,
                4544953919200304813,
                4546429658726201577,
                4544953919200304813
            ]
        );
        assert_eq!(ex.gpu_time().unwrap().to_bits(), 4546429658726201577);
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
