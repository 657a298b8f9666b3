//! Seeded, deterministic chaos plans: fault scripts extended with state
//! corruption and kill-and-restore events, for soak-testing the supervisor.
//!
//! A [`ChaosPlan`] is generated from a seed alone, so every scenario is
//! reproducible from its number. It has two halves:
//!
//! * the [`FaultEvent`] subset, exported as a [`FaultSchedule`] that is
//!   **valid by construction** (dropout/recover windows never overlap,
//!   factors are in range — the invariants [`FaultSchedule::try_with`]
//!   enforces), installed on the tracker and fired by the timing layer;
//! * corruption events ([`ChaosEvent::NanBody`], [`ChaosEvent::TruncatePlan`],
//!   [`ChaosEvent::StaleEpoch`], [`ChaosEvent::KillRestore`]), injected by
//!   the driver *behind the engine's back* via [`inject`] — the state rot
//!   the audits and the escalation ladder exist to catch.
//!
//! Roughly one scheduled step in six is a *storm*: several events landing
//! on the same step (e.g. a double device dropout, or corruption while a
//! fault window is open).

use crate::supervisor::Supervisor;
use fmm_math::Kernel;
use geom::Vec3;
use gpu_sim::{FaultEvent, FaultSchedule};
use std::collections::BTreeSet;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One disturbance of a chaos scenario: either a regular timed fault or a
/// state corruption the fault layer cannot express.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChaosEvent {
    /// A virtual-node fault, fired through the tracker's [`FaultSchedule`].
    Fault(FaultEvent),
    /// Overwrite one body coordinate with NaN in the driver's position
    /// buffer — the classic upstream-integrator bug.
    NanBody { index: usize },
    /// Truncate one interaction list inside the live plan without updating
    /// its counts; the audit catches it by comparing the lists with a fresh
    /// traversal.
    TruncatePlan,
    /// Rewind the plan epoch below its stamps (breaks monotonicity).
    StaleEpoch,
    /// Kill the run and restore from the last checkpoint mid-flight.
    KillRestore,
}

impl ChaosEvent {
    /// Is this a corruption event (driver-injected) rather than a fault?
    pub fn is_corruption(&self) -> bool {
        !matches!(self, ChaosEvent::Fault(_))
    }

    pub fn name(&self) -> &'static str {
        match self {
            ChaosEvent::Fault(FaultEvent::GpuSlowdown { .. }) => "gpu_slowdown",
            ChaosEvent::Fault(FaultEvent::GpuDropout { .. }) => "gpu_dropout",
            ChaosEvent::Fault(FaultEvent::GpuRecover { .. }) => "gpu_recover",
            ChaosEvent::Fault(FaultEvent::ExternalCpuLoad { .. }) => "cpu_load",
            ChaosEvent::Fault(FaultEvent::TimingNoise { .. }) => "noise",
            ChaosEvent::NanBody { .. } => "nan_body",
            ChaosEvent::TruncatePlan => "truncate_plan",
            ChaosEvent::StaleEpoch => "stale_epoch",
            ChaosEvent::KillRestore => "kill_restore",
        }
    }
}

/// A [`ChaosEvent`] scheduled for a specific step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedChaos {
    pub step: usize,
    pub event: ChaosEvent,
}

/// A deterministic, seed-reproducible chaos scenario.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    pub seed: u64,
    /// Events sorted by step (stable within a step).
    pub events: Vec<TimedChaos>,
}

impl ChaosPlan {
    /// Generate a scenario from a seed: events spread over `steps` steps
    /// against a node with `num_devices` GPUs and `n_bodies` bodies.
    /// The same arguments always produce the same plan.
    pub fn generate(seed: u64, steps: usize, num_devices: usize, n_bodies: usize) -> Self {
        let mut rng = seed;
        let mut events = Vec::new();
        let mut down: BTreeSet<usize> = BTreeSet::new();
        // Leave the first few steps quiet so the balancer gets a baseline.
        let mut step = 3 + (splitmix64(&mut rng) % 3) as usize;
        while step < steps {
            let storm = splitmix64(&mut rng).is_multiple_of(6);
            let burst = if storm {
                2 + (splitmix64(&mut rng) % 3) as usize
            } else {
                1
            };
            for _ in 0..burst {
                let mut kind = splitmix64(&mut rng) % 10;
                if num_devices == 0 && kind <= 3 {
                    kind = 4 + kind % 2; // no GPUs: remap to host-side faults
                }
                let event = match kind {
                    // Dropout/recover as a toggle per device, so windows
                    // never overlap and recovers are never unmatched.
                    0..=2 => {
                        let device = (splitmix64(&mut rng) % num_devices as u64) as usize;
                        if down.remove(&device) {
                            ChaosEvent::Fault(FaultEvent::GpuRecover { device })
                        } else {
                            down.insert(device);
                            ChaosEvent::Fault(FaultEvent::GpuDropout { device })
                        }
                    }
                    3 => ChaosEvent::Fault(FaultEvent::GpuSlowdown {
                        device: (splitmix64(&mut rng) % num_devices as u64) as usize,
                        factor: 1.0 + (splitmix64(&mut rng) % 30) as f64 / 10.0,
                    }),
                    4 => ChaosEvent::Fault(FaultEvent::ExternalCpuLoad {
                        factor: 1.0 + (splitmix64(&mut rng) % 40) as f64 / 10.0,
                    }),
                    5 => ChaosEvent::Fault(FaultEvent::TimingNoise {
                        sigma: (splitmix64(&mut rng) % 25) as f64 / 100.0,
                    }),
                    6 => ChaosEvent::NanBody {
                        index: (splitmix64(&mut rng) % n_bodies.max(1) as u64) as usize,
                    },
                    7 => ChaosEvent::TruncatePlan,
                    8 => ChaosEvent::StaleEpoch,
                    _ => ChaosEvent::KillRestore,
                };
                events.push(TimedChaos { step, event });
            }
            step += 2 + (splitmix64(&mut rng) % 6) as usize;
        }
        ChaosPlan { seed, events }
    }

    /// The fault half of the plan as a schedule for
    /// [`StrategyTracker::set_fault_schedule`](crate::StrategyTracker::set_fault_schedule).
    /// Valid by construction; [`FaultSchedule::validate`] proves it.
    pub fn fault_schedule(&self) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        for tc in &self.events {
            if let ChaosEvent::Fault(ev) = tc.event {
                s.push(tc.step, ev);
            }
        }
        s
    }
}

/// Inject one corruption event into a supervised run. `pos` is the driver's
/// live position buffer for the upcoming step; [`ChaosEvent::KillRestore`]
/// replaces it with the checkpoint's positions. Returns whether anything
/// actually mutated ([`ChaosEvent::Fault`] never does — faults fire through
/// the schedule inside the step).
pub fn inject<K: Kernel + Copy>(
    event: &ChaosEvent,
    sup: &mut Supervisor<K>,
    pos: &mut Vec<Vec3>,
) -> bool {
    match event {
        ChaosEvent::Fault(_) => false,
        ChaosEvent::NanBody { index } => {
            if pos.is_empty() {
                return false;
            }
            let i = index % pos.len();
            pos[i].x = f64::NAN;
            true
        }
        ChaosEvent::TruncatePlan => sup
            .tracker_mut()
            .engine_mut()
            .plan_mut_for_chaos()
            .map(|p| p.corrupt_truncate_list())
            .unwrap_or(false),
        ChaosEvent::StaleEpoch => sup
            .tracker_mut()
            .engine_mut()
            .plan_mut_for_chaos()
            .map(|p| p.corrupt_stale_epoch())
            .unwrap_or(false),
        ChaosEvent::KillRestore => {
            if sup.last_checkpoint().is_none() {
                // Nothing to restore from; only checkpoint if the state is
                // healthy, else the kill is a no-op for this scenario.
                if !sup.checkpoint_if_healthy(pos) {
                    return false;
                }
            }
            match sup.restore_from_checkpoint() {
                Ok(saved) => {
                    *pos = saved;
                    true
                }
                Err(_) => false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = ChaosPlan::generate(42, 80, 2, 1000);
        let b = ChaosPlan::generate(42, 80, 2, 1000);
        assert_eq!(a.events, b.events);
        let c = ChaosPlan::generate(43, 80, 2, 1000);
        assert_ne!(a.events, c.events, "different seeds, different plans");
    }

    #[test]
    fn fault_half_is_always_a_valid_schedule() {
        for seed in 0..200 {
            for devices in [0usize, 1, 2, 4] {
                let plan = ChaosPlan::generate(seed, 60, devices, 500);
                plan.fault_schedule()
                    .validate()
                    .unwrap_or_else(|e| panic!("seed {seed}, {devices} devices: {e}"));
            }
        }
    }

    #[test]
    fn events_are_sorted_and_eventually_corrupting() {
        let mut corrupting = 0;
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed, 100, 2, 800);
            assert!(
                plan.events.windows(2).all(|w| w[0].step <= w[1].step),
                "seed {seed} out of order"
            );
            if plan.events.iter().any(|tc| tc.event.is_corruption()) {
                corrupting += 1;
            }
        }
        assert!(
            corrupting > 30,
            "most seeds should include corruption events, got {corrupting}"
        );
    }

    #[test]
    fn cpu_only_plans_carry_no_gpu_faults() {
        for seed in 0..50 {
            let plan = ChaosPlan::generate(seed, 60, 0, 500);
            assert!(plan.events.iter().all(|tc| !matches!(
                tc.event,
                ChaosEvent::Fault(ev) if ev.is_gpu_event()
            )));
        }
    }
}
