//! Fault injection for the virtual heterogeneous node.
//!
//! The paper motivates *dynamic* load balancing with exactly these
//! disturbances: "the GPUs may be shared by other processes", clock
//! throttling, and external CPU load that shifts the CPU/GPU crossover.
//! A [`FaultSchedule`] scripts such disturbances at specific time steps so
//! the balancer's recovery behaviour can be measured deterministically.
//!
//! GPU-side events ([`FaultEvent::GpuSlowdown`], [`FaultEvent::GpuDropout`],
//! [`FaultEvent::GpuRecover`]) are applied to the
//! [`GpuSystem`](crate::GpuSystem) via
//! [`GpuSystem::apply_event`](crate::GpuSystem::apply_event); host-side
//! events ([`FaultEvent::ExternalCpuLoad`], [`FaultEvent::TimingNoise`])
//! are interpreted by the driver that owns the CPU timing model.

use crate::error::Error;

/// One disturbance to the virtual node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultEvent {
    /// Device `device` runs `factor`× slower than nominal from now on
    /// (e.g. a co-tenant process or thermal throttling). `factor >= 1.0`;
    /// `1.0` restores nominal speed.
    GpuSlowdown { device: usize, factor: f64 },
    /// Device `device` stops accepting work (driver crash, ECC retirement,
    /// preemption by another job).
    GpuDropout { device: usize },
    /// Device `device` comes back online at nominal speed.
    GpuRecover { device: usize },
    /// The host CPU is shared with an external process: measured CPU time
    /// is multiplied by `factor` (`>= 1.0`; `1.0` clears the load).
    ExternalCpuLoad { factor: f64 },
    /// Multiplicative measurement jitter: each observed time is scaled by
    /// `exp(sigma * z)` with `z` standard normal (`sigma >= 0.0`; `0.0`
    /// turns noise off). Models timer granularity and OS scheduling noise.
    TimingNoise { sigma: f64 },
}

impl FaultEvent {
    /// Whether the event targets the GPU system (as opposed to the host).
    pub fn is_gpu_event(&self) -> bool {
        matches!(
            self,
            FaultEvent::GpuSlowdown { .. }
                | FaultEvent::GpuDropout { .. }
                | FaultEvent::GpuRecover { .. }
        )
    }
}

/// A [`FaultEvent`] scheduled for a specific simulation step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimedFault {
    pub step: usize,
    pub event: FaultEvent,
}

/// A script of timed disturbances, kept sorted by step (stable within a
/// step, so events added for the same step fire in insertion order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Add an event at `step`.
    pub fn push(&mut self, step: usize, event: FaultEvent) {
        let at = self.events.partition_point(|e| e.step <= step);
        self.events.insert(at, TimedFault { step, event });
    }

    /// Builder-style [`FaultSchedule::push`].
    pub fn with(mut self, step: usize, event: FaultEvent) -> Self {
        self.push(step, event);
        self
    }

    /// Validating constructor: accept a raw fault script and reject ill-formed
    /// ones with a structured [`Error`] instead of letting them silently
    /// misbehave at run time. Rejected shapes:
    ///
    /// * events out of step order ([`Error::OutOfOrderFaults`]) — a raw
    ///   script is a literal timeline, so order is meaning;
    /// * a second [`FaultEvent::GpuDropout`] for a device whose previous
    ///   dropout window is still open ([`Error::OverlappingFaultWindow`]);
    /// * a [`FaultEvent::GpuRecover`] for a device with no open window
    ///   ([`Error::UnmatchedRecover`]);
    /// * non-finite or out-of-range factors / sigmas ([`Error::BadFactor`]),
    ///   caught here instead of mid-run.
    ///
    /// A window left open at the end of the script is fine — permanent
    /// dropout is a legitimate scenario.
    pub fn try_with(events: Vec<TimedFault>) -> Result<Self, Error> {
        for w in events.windows(2) {
            if w[1].step < w[0].step {
                return Err(Error::OutOfOrderFaults {
                    step: w[1].step,
                    after: w[0].step,
                });
            }
        }
        let mut down: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for tf in &events {
            match tf.event {
                FaultEvent::GpuDropout { device } => {
                    if !down.insert(device) {
                        return Err(Error::OverlappingFaultWindow {
                            device,
                            step: tf.step,
                        });
                    }
                }
                FaultEvent::GpuRecover { device } => {
                    if !down.remove(&device) {
                        return Err(Error::UnmatchedRecover {
                            device,
                            step: tf.step,
                        });
                    }
                }
                FaultEvent::GpuSlowdown { factor, .. } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(Error::BadFactor { factor });
                    }
                }
                FaultEvent::ExternalCpuLoad { factor } => {
                    if !factor.is_finite() || factor < 1.0 {
                        return Err(Error::BadFactor { factor });
                    }
                }
                FaultEvent::TimingNoise { sigma } => {
                    if !sigma.is_finite() || sigma < 0.0 {
                        return Err(Error::BadFactor { factor: sigma });
                    }
                }
            }
        }
        Ok(FaultSchedule { events })
    }

    /// Run [`FaultSchedule::try_with`]'s checks on an already-built schedule.
    pub fn validate(&self) -> Result<(), Error> {
        FaultSchedule::try_with(self.events.clone()).map(|_| ())
    }

    /// All events scheduled for exactly `step`, in insertion order.
    pub fn events_at(&self, step: usize) -> impl Iterator<Item = &FaultEvent> {
        let lo = self.events.partition_point(|e| e.step < step);
        let hi = self.events.partition_point(|e| e.step <= step);
        self.events[lo..hi].iter().map(|e| &e.event)
    }

    /// The full sorted script.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_by_step_and_keeps_insertion_order_within_a_step() {
        let s = FaultSchedule::new()
            .with(10, FaultEvent::GpuDropout { device: 1 })
            .with(3, FaultEvent::TimingNoise { sigma: 0.05 })
            .with(10, FaultEvent::ExternalCpuLoad { factor: 2.0 });
        let steps: Vec<usize> = s.events().iter().map(|e| e.step).collect();
        assert_eq!(steps, vec![3, 10, 10]);
        let at10: Vec<&FaultEvent> = s.events_at(10).collect();
        assert_eq!(
            at10,
            vec![
                &FaultEvent::GpuDropout { device: 1 },
                &FaultEvent::ExternalCpuLoad { factor: 2.0 }
            ]
        );
        assert_eq!(s.events_at(4).count(), 0);
    }

    #[test]
    fn try_with_accepts_well_formed_scripts() {
        let s = FaultSchedule::try_with(vec![
            TimedFault {
                step: 3,
                event: FaultEvent::GpuDropout { device: 0 },
            },
            TimedFault {
                step: 8,
                event: FaultEvent::GpuRecover { device: 0 },
            },
            TimedFault {
                step: 8,
                event: FaultEvent::GpuDropout { device: 1 },
            },
        ])
        .unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.validate().is_ok());
    }

    #[test]
    fn try_with_rejects_overlapping_windows() {
        let err = FaultSchedule::try_with(vec![
            TimedFault {
                step: 3,
                event: FaultEvent::GpuDropout { device: 0 },
            },
            TimedFault {
                step: 5,
                event: FaultEvent::GpuDropout { device: 0 },
            },
        ])
        .unwrap_err();
        assert_eq!(err, Error::OverlappingFaultWindow { device: 0, step: 5 });
    }

    #[test]
    fn try_with_rejects_unmatched_recover_and_disorder() {
        let err = FaultSchedule::try_with(vec![TimedFault {
            step: 4,
            event: FaultEvent::GpuRecover { device: 2 },
        }])
        .unwrap_err();
        assert_eq!(err, Error::UnmatchedRecover { device: 2, step: 4 });

        let err = FaultSchedule::try_with(vec![
            TimedFault {
                step: 9,
                event: FaultEvent::TimingNoise { sigma: 0.1 },
            },
            TimedFault {
                step: 2,
                event: FaultEvent::TimingNoise { sigma: 0.1 },
            },
        ])
        .unwrap_err();
        assert_eq!(err, Error::OutOfOrderFaults { step: 2, after: 9 });
    }

    #[test]
    fn try_with_rejects_bad_factors_up_front() {
        for ev in [
            FaultEvent::GpuSlowdown {
                device: 0,
                factor: 0.5,
            },
            FaultEvent::ExternalCpuLoad { factor: f64::NAN },
            FaultEvent::TimingNoise { sigma: -0.1 },
        ] {
            let err = FaultSchedule::try_with(vec![TimedFault { step: 1, event: ev }]).unwrap_err();
            assert!(matches!(err, Error::BadFactor { .. }), "{ev:?}");
        }
    }

    #[test]
    fn gpu_event_classification() {
        assert!(FaultEvent::GpuSlowdown {
            device: 0,
            factor: 2.0
        }
        .is_gpu_event());
        assert!(FaultEvent::GpuRecover { device: 0 }.is_gpu_event());
        assert!(!FaultEvent::ExternalCpuLoad { factor: 2.0 }.is_gpu_event());
        assert!(!FaultEvent::TimingNoise { sigma: 0.1 }.is_gpu_event());
    }
}
