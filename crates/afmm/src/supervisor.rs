//! The step supervisor: integrity auditing plus a self-healing escalation
//! ladder around [`StrategyTracker::step`].
//!
//! Every supervised step is audited ([`FmmEngine::audit_tree`],
//! [`FmmEngine::audit_plan`], [`FmmEngine::audit_bodies`], plan-epoch
//! monotonicity). When a step fails — an error, a failed audit, or a
//! contained panic — the supervisor walks an escalation ladder, cheapest
//! rung first:
//!
//! 1. **Retry** — transient disturbances (a fault window that closed, one
//!    garbage measurement) clear on their own.
//! 2. **Rebuild** — throw away the tree and plan and re-derive both from
//!    the positions ([`StrategyTracker::heal_rebuild`]). Heals any cached-
//!    state corruption; skipped when the positions themselves are corrupt.
//! 3. **CPU-only fallback** — drop the GPU system and run everything on the
//!    cores ([`StrategyTracker::force_cpu_only`]): a degraded but
//!    self-consistent machine.
//! 4. **Restore** — rebuild the whole tracker from the last checkpoint
//!    ([`StrategyTracker::restore`]), rewinding to a known-good state.
//!
//! Each rung emits a `supervisor.*` telemetry event, and the
//! [`SupervisorReport`] counts every rung, recorder or not. A run is declared
//! unrecoverable ([`Error::Unrecoverable`]) only when the last rung fails.

use crate::engine::FmmEngine;
use crate::error::Error;
use crate::simulate::{StepRecord, StrategyTracker};
use crate::HeteroNode;
use fmm_math::Kernel;
use geom::Vec3;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tunables of the supervisor.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Rung-1 retries before escalating.
    pub max_retries: usize,
    /// Audit every N-th step (1 = every step, 0 = audits off). The plan
    /// audit builds a fresh plan of the tree and compares it with the live
    /// one, so it costs about a plan build.
    pub audit_every: usize,
    /// Take an automatic checkpoint every N-th step (0 = manual only via
    /// [`Supervisor::checkpoint_now`]).
    pub checkpoint_every: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 1,
            audit_every: 1,
            checkpoint_every: 0,
        }
    }
}

/// The rung that produced a supervised step's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// The step succeeded first try.
    None,
    Retry,
    Rebuild,
    CpuFallback,
    Restore,
}

impl RecoveryAction {
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::None => "none",
            RecoveryAction::Retry => "retry",
            RecoveryAction::Rebuild => "rebuild",
            RecoveryAction::CpuFallback => "cpu_fallback",
            RecoveryAction::Restore => "restore",
        }
    }
}

/// Lifetime counts of everything the supervisor did.
#[derive(Clone, Copy, Debug, Default)]
pub struct SupervisorReport {
    pub retries: u64,
    pub rebuilds: u64,
    pub cpu_fallbacks: u64,
    pub restores: u64,
    pub audit_failures: u64,
    pub panics_contained: u64,
    pub checkpoints_taken: u64,
}

/// Escalation-ladder wrapper around one [`StrategyTracker`]. The kernel is
/// `Copy` (stateless configuration) so restore rungs can rebuild engines;
/// the node configuration is captured pristine at construction for the same
/// reason.
pub struct Supervisor<K: Kernel + Copy> {
    tracker: StrategyTracker<K>,
    kernel: K,
    node_config: HeteroNode,
    cfg: SupervisorConfig,
    last_checkpoint: Option<String>,
    last_epoch: Option<u32>,
    report: SupervisorReport,
}

impl<K: Kernel + Copy> Supervisor<K> {
    pub fn new(tracker: StrategyTracker<K>, cfg: SupervisorConfig) -> Self {
        let kernel = tracker.engine().kernel;
        let node_config = tracker.node().clone();
        Supervisor {
            tracker,
            kernel,
            node_config,
            cfg,
            last_checkpoint: None,
            last_epoch: None,
            report: SupervisorReport::default(),
        }
    }

    pub fn tracker(&self) -> &StrategyTracker<K> {
        &self.tracker
    }

    /// Mutable tracker access — used by the chaos harness to inject
    /// corruption *through* the supervisor it is trying to defeat.
    pub fn tracker_mut(&mut self) -> &mut StrategyTracker<K> {
        &mut self.tracker
    }

    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// The next step's index (also: number of completed step records).
    pub fn step_index(&self) -> usize {
        self.tracker.records().len()
    }

    /// The serialized text of the last checkpoint, if one has been taken.
    pub fn last_checkpoint(&self) -> Option<&str> {
        self.last_checkpoint.as_deref()
    }

    /// Take a checkpoint of the current tracker state + positions.
    pub fn checkpoint_now(&mut self, pos: &[Vec3]) -> &str {
        let text = self.tracker.checkpoint(pos);
        self.report.checkpoints_taken += 1;
        let rec = self.tracker.recorder().clone();
        if rec.is_enabled() {
            rec.event(
                "supervisor.checkpoint",
                vec![
                    ("step", telemetry::Value::U64(self.step_index() as u64)),
                    ("bytes", telemetry::Value::U64(text.len() as u64)),
                ],
            );
        }
        self.last_checkpoint = Some(text);
        self.last_checkpoint.as_deref().unwrap()
    }

    /// Rebuild the tracker from the last checkpoint (the chaos harness's
    /// kill-and-restore event rides on this too). Returns the checkpointed
    /// positions — the trajectory point the run rewound to. The recorder
    /// and the execution policy are caller configuration the checkpoint
    /// does not hold, so both are carried across from the live tracker.
    pub fn restore_from_checkpoint(&mut self) -> Result<Vec<Vec3>, Error> {
        let text = self.last_checkpoint.clone().ok_or(Error::NoCheckpoint)?;
        let recorder = self.tracker.recorder().clone();
        let policy = self.tracker.engine().exec_policy();
        let (mut tracker, pos) =
            StrategyTracker::restore(self.kernel, self.node_config.clone(), &text)?;
        tracker.engine_mut().set_exec_policy(policy);
        if recorder.is_enabled() {
            recorder.event(
                "supervisor.restore",
                vec![(
                    "rewound_to",
                    telemetry::Value::U64(tracker.records().len() as u64),
                )],
            );
            tracker.set_recorder(recorder);
        }
        self.tracker = tracker;
        self.last_epoch = None;
        self.report.restores += 1;
        Ok(pos)
    }

    /// Do positions, tree and plan all pass their audits right now?
    /// Checkpoints must only capture state that does: the last-resort
    /// restore rung rewinds to it. (A checkpoint holds no plan — the
    /// restored engine builds one from the tree — but a corrupted plan
    /// means the step that produced this state cannot be trusted.)
    fn state_healthy(&self, pos: &[Vec3]) -> bool {
        FmmEngine::<K>::audit_bodies(pos).is_ok()
            && self.tracker.engine().audit_tree().is_ok()
            && self.tracker.engine().audit_plan().is_ok()
    }

    /// Take a checkpoint only if the full audit passes; returns whether one
    /// was taken. The chaos harness's kill-and-restore event uses this so a
    /// just-injected corruption is never enshrined as the rollback point.
    pub fn checkpoint_if_healthy(&mut self, pos: &[Vec3]) -> bool {
        if self.state_healthy(pos) {
            self.checkpoint_now(pos);
            true
        } else {
            false
        }
    }

    /// One supervised step: audit, and on any failure walk the escalation
    /// ladder. Returns the completed record and the rung that produced it.
    ///
    /// After a [`RecoveryAction::Restore`] the run has rewound — drive the
    /// trajectory by [`Supervisor::step_index`], not by loop count.
    pub fn step(&mut self, pos: &[Vec3]) -> Result<(StepRecord, RecoveryAction), Error> {
        if self.cfg.checkpoint_every > 0
            && self.step_index().is_multiple_of(self.cfg.checkpoint_every)
        {
            self.checkpoint_if_healthy(pos);
        }
        match self.attempt(pos) {
            Ok(rec) => Ok((rec, RecoveryAction::None)),
            Err(e) => self.escalate(pos, e),
        }
    }

    /// Run one audited step attempt, containing panics. Audits run *before*
    /// the step: the step's own rebin/refresh re-derives much of the cached
    /// state, so corruption injected between steps would be laundered by
    /// the very step that consumes it — and a corrupted plan must be caught
    /// before it produces a wrong answer, not after.
    fn attempt(&mut self, pos: &[Vec3]) -> Result<StepRecord, Error> {
        // A non-finite position would silently poison Morton codes and
        // every float sum downstream — refuse before stepping.
        FmmEngine::<K>::audit_bodies(pos)?;
        if self.cfg.audit_every != 0 && self.step_index().is_multiple_of(self.cfg.audit_every) {
            let audits = self
                .tracker
                .engine()
                .audit_tree()
                .and_then(|()| self.tracker.engine().audit_plan());
            if let Err(e) = audits {
                self.note_audit_failure(&e);
                return Err(e);
            }
        }
        let stepped = catch_unwind(AssertUnwindSafe(|| self.tracker.step(pos)));
        let rec = match stepped {
            Ok(result) => result?,
            Err(_) => {
                self.report.panics_contained += 1;
                return Err(Error::StepPanicked);
            }
        };
        self.watch_epoch();
        Ok(rec)
    }

    /// Post-step epoch watch: the plan epoch only moves forward under
    /// patches and refreshes. A rewind while the audits pass is a
    /// legitimate rebuild (which resets the stamps too); it is logged so
    /// soak runs can correlate it, not escalated.
    fn watch_epoch(&mut self) {
        let epoch = self.tracker.engine().plan_epoch();
        if let (Some(e), Some(last)) = (epoch, self.last_epoch) {
            if e < last {
                let rec = self.tracker.recorder().clone();
                if rec.is_enabled() {
                    rec.event(
                        "supervisor.epoch_reset",
                        vec![
                            ("from", telemetry::Value::U64(last as u64)),
                            ("to", telemetry::Value::U64(e as u64)),
                        ],
                    );
                }
            }
        }
        if epoch.is_some() {
            self.last_epoch = epoch;
        }
    }

    fn note_audit_failure(&mut self, e: &Error) {
        self.report.audit_failures += 1;
        let rec = self.tracker.recorder().clone();
        if rec.is_enabled() {
            rec.event(
                "supervisor.audit_failed",
                vec![("error", telemetry::Value::Str(e.to_string()))],
            );
        }
    }

    fn emit_rung(&self, rung: &'static str, err: &Error) {
        let rec = self.tracker.recorder().clone();
        if rec.is_enabled() {
            rec.event(
                rung,
                vec![
                    ("step", telemetry::Value::U64(self.step_index() as u64)),
                    ("error", telemetry::Value::Str(err.to_string())),
                ],
            );
        }
    }

    /// Walk the ladder. Each rung re-attempts a full audited step; the
    /// first healthy step wins.
    fn escalate(
        &mut self,
        pos: &[Vec3],
        first_err: Error,
    ) -> Result<(StepRecord, RecoveryAction), Error> {
        let mut last_err = first_err;
        // Rung 1: retry.
        for _ in 0..self.cfg.max_retries {
            self.report.retries += 1;
            self.emit_rung("supervisor.retry", &last_err);
            match self.attempt(pos) {
                Ok(r) => return Ok((r, RecoveryAction::Retry)),
                Err(e) => last_err = e,
            }
        }
        // Rungs 2 and 3 rebuild from the positions — pointless if the
        // positions themselves are the corruption.
        if FmmEngine::<K>::audit_bodies(pos).is_ok() {
            // Rung 2: rebuild tree + plan from scratch.
            self.report.rebuilds += 1;
            self.emit_rung("supervisor.rebuild", &last_err);
            self.tracker.heal_rebuild(pos);
            match self.attempt(pos) {
                Ok(r) => return Ok((r, RecoveryAction::Rebuild)),
                Err(e) => last_err = e,
            }
            // Rung 3: drop the GPUs, run everything on the cores.
            if self.tracker.node().gpus.is_some() {
                self.report.cpu_fallbacks += 1;
                self.emit_rung("supervisor.cpu_fallback", &last_err);
                self.tracker.force_cpu_only();
                self.tracker.heal_rebuild(pos);
                match self.attempt(pos) {
                    Ok(r) => return Ok((r, RecoveryAction::CpuFallback)),
                    Err(e) => last_err = e,
                }
            }
        }
        // Rung 4: restore from the last checkpoint and re-step from the
        // checkpointed positions.
        self.emit_rung("supervisor.restore", &last_err);
        let saved_pos = self
            .restore_from_checkpoint()
            .map_err(|e| Error::Unrecoverable(Box::new(e)))?;
        match self.attempt(&saved_pos) {
            Ok(r) => Ok((r, RecoveryAction::Restore)),
            Err(e) => Err(Error::Unrecoverable(Box::new(e))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{LbConfig, Strategy};
    use crate::config::FmmParams;
    use fmm_math::GravityKernel;
    use nbody::plummer;

    fn tracker(n: usize, seed: u64) -> StrategyTracker<GravityKernel> {
        let b = plummer(n, 1.0, 1.0, seed);
        StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            LbConfig {
                eps_switch_s: 2e-3,
                ..Default::default()
            },
            &b.pos,
            None,
        )
    }

    fn positions(n: usize, seed: u64) -> Vec<Vec3> {
        plummer(n, 1.0, 1.0, seed).pos
    }

    #[test]
    fn healthy_run_never_escalates() {
        let pos = positions(1200, 601);
        let mut sup = Supervisor::new(tracker(1200, 601), SupervisorConfig::default());
        for _ in 0..10 {
            let (_, action) = sup.step(&pos).unwrap();
            assert_eq!(action, RecoveryAction::None);
        }
        assert_eq!(sup.report().audit_failures, 0);
    }

    #[test]
    fn plan_corruption_is_audited_and_healed_by_rebuild() {
        let pos = positions(1500, 602);
        let mut sup = Supervisor::new(tracker(1500, 602), SupervisorConfig::default());
        // Let the balancer settle: while it is still searching, it rebuilds
        // the plan itself each step, which would heal the corruption before
        // the audit ever sees it.
        for _ in 0..30 {
            sup.step(&pos).unwrap();
        }
        let corrupted = sup
            .tracker_mut()
            .engine_mut()
            .plan_mut_for_chaos()
            .map(|p| p.corrupt_truncate_list())
            .unwrap_or(false);
        assert!(corrupted, "live plan should be available for corruption");
        let (_, action) = sup.step(&pos).unwrap();
        assert_eq!(action, RecoveryAction::Rebuild);
        assert!(sup.report().audit_failures >= 1);
        assert_eq!(sup.report().rebuilds, 1);
        // Healed: subsequent steps are clean.
        let (_, action) = sup.step(&pos).unwrap();
        assert_eq!(action, RecoveryAction::None);
    }

    #[test]
    fn stale_epoch_corruption_is_caught() {
        let pos = positions(1500, 603);
        let mut sup = Supervisor::new(tracker(1500, 603), SupervisorConfig::default());
        // Drift the positions so patches bump stamps past zero, then hold
        // still so the settled balancer stops rebuilding on its own.
        let mut p = pos.clone();
        for _ in 0..20 {
            sup.step(&p).unwrap();
            for q in &mut p {
                *q *= 0.97;
            }
        }
        for _ in 0..10 {
            sup.step(&p).unwrap();
        }
        let corrupted = sup
            .tracker_mut()
            .engine_mut()
            .plan_mut_for_chaos()
            .map(|pl| pl.corrupt_stale_epoch())
            .unwrap_or(false);
        if !corrupted {
            // No stamp ever moved (fully static plan): nothing to corrupt.
            return;
        }
        let (_, action) = sup.step(&p).unwrap();
        assert_ne!(action, RecoveryAction::None, "corruption must not pass");
        assert!(sup.report().audit_failures >= 1);
    }

    #[test]
    fn nan_positions_escalate_to_restore() {
        let pos = positions(1000, 604);
        let mut sup = Supervisor::new(
            tracker(1000, 604),
            SupervisorConfig {
                checkpoint_every: 2,
                ..Default::default()
            },
        );
        for _ in 0..5 {
            sup.step(&pos).unwrap();
        }
        let mut bad = pos.clone();
        bad[17].x = f64::NAN;
        let before = sup.step_index();
        let (_, action) = sup.step(&bad).unwrap();
        assert_eq!(action, RecoveryAction::Restore);
        assert_eq!(sup.report().restores, 1);
        assert!(
            sup.step_index() <= before,
            "restore rewinds to the checkpoint"
        );
        // The restored tracker keeps working on clean positions.
        let (_, action) = sup.step(&pos).unwrap();
        assert_eq!(action, RecoveryAction::None);
    }

    #[test]
    fn corruption_without_checkpoint_is_unrecoverable() {
        let pos = positions(800, 605);
        let mut sup = Supervisor::new(tracker(800, 605), SupervisorConfig::default());
        sup.step(&pos).unwrap();
        let mut bad = pos.clone();
        bad[3].y = f64::INFINITY;
        let err = sup.step(&bad).unwrap_err();
        assert!(matches!(err, Error::Unrecoverable(inner) if *inner == Error::NoCheckpoint));
    }
}
