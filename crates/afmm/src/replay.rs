//! Offline replay validation: reconstruct the [`crate::LoadBalancer`]
//! trajectory from a telemetry trace and check that it was *legal* — plus a
//! step-aligned diff of two runs.
//!
//! The validator is the read-side contract of the balancer's flight
//! recorder: every `lb.transition` must be an edge the state machine can
//! actually take, Recovery must be provoked by a device-count change,
//! Observation-state `Enforce_S` must have a recorded cause, S must stay
//! inside the configured bounds, and the cost model must not silently
//! drift. A trace that fails here either came from a corrupted file or
//! from a balancer bug — both worth failing CI over.
//!
//! Invariant names (stable, used by tests and the `afmm-trace` CLI):
//!
//! | invariant              | meaning                                          |
//! |------------------------|--------------------------------------------------|
//! | `seq_monotone`         | record sequence numbers strictly increase        |
//! | `missing_config`       | no `run.config` header in a trace with steps     |
//! | `transition_legality`  | an `lb.transition` edge the machine cannot take  |
//! | `state_continuity`     | transition `from` ≠ reconstructed current state, |
//! |                        | or `step.record.state` ≠ state at step start     |
//! | `recovery_cause`       | Recovery without device-count change evidence    |
//! | `s_bounds`             | S outside `[s_min, s_max]` from `run.config`     |
//! | `enforce_provenance`   | Observation-state enforce not preceded by an     |
//! |                        | `lb.regression` in the same step                 |
//! | `audit_drift`          | audited prediction error beyond tolerance        |
//! | `phase_reconciliation` | per-step `phase.*` span durations do not sum to  |
//! |                        | the step's reported scheduler makespan           |

use telemetry::{EventRecord, RecordKind};

/// One invariant violation found during replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name (see the module table).
    pub invariant: &'static str,
    /// Sequence number of the offending record (or the nearest anchor).
    pub seq: u64,
    /// Logical step of the offending record.
    pub step: u64,
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seq {} step {}: {}",
            self.invariant, self.seq, self.step, self.detail
        )
    }
}

/// The validator's default phase-reconciliation tolerance.
pub const DEFAULT_PHASE_TOLERANCE: f64 = 0.2;

/// Tunables of [`validate_trace`].
#[derive(Debug, Clone, Copy)]
pub struct ValidateOptions {
    /// Maximum tolerated audited relative prediction error on steps where
    /// the balancer did not act. Deliberately generous: the audit gate in CI
    /// already alarms at far lower error; this invariant catches corrupt
    /// traces and runaway models, not modeling noise.
    pub audit_tolerance: f64,
    /// Maximum tolerated relative gap between a step's summed CPU-side
    /// `phase.*` span durations and its reported scheduler makespan
    /// (`step.record.t_sched`). The attributed spans undershoot by the
    /// task-overhead share, well inside [`DEFAULT_PHASE_TOLERANCE`], while
    /// a zeroed or scaled span from a corrupted trace does not. Steps
    /// missing either side (older traces) are skipped. The CLI's
    /// `--phase-tol` sets this.
    pub phase_tolerance: f64,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        ValidateOptions {
            audit_tolerance: 10.0,
            phase_tolerance: DEFAULT_PHASE_TOLERANCE,
        }
    }
}

/// Outcome of [`validate_trace_report`]: the violations plus the realized
/// phase-reconciliation quality, so callers can report *how close* the
/// trace was instead of only pass/fail.
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    pub violations: Vec<Violation>,
    /// Largest realized relative phase residual
    /// `|Σ phase spans − t_sched| / t_sched` over reconciled steps
    /// (0 when no step carried both sides).
    pub max_phase_residual: f64,
    /// Step the largest residual occurred on.
    pub max_phase_residual_step: Option<u64>,
    /// Number of steps that carried both reconciliation sides.
    pub reconciled_steps: usize,
}

/// Every (from, to, cause) edge the balancer can emit. Anything else in a
/// trace is a `transition_legality` violation.
const LEGAL_TRANSITIONS: &[(&str, &str, &str)] = &[
    // Search settles by strategy: StaticS freezes, EnforceOnly observes,
    // Full walks incrementally. Recovery exits through the same path.
    ("search", "frozen", "search_settled"),
    ("search", "observation", "search_settled"),
    ("search", "incremental", "search_settled"),
    ("recovery", "frozen", "search_settled"),
    ("recovery", "observation", "search_settled"),
    ("recovery", "incremental", "search_settled"),
    // The Incremental walk exhausts both directions and hands off.
    ("incremental", "observation", "incremental_settled"),
    // Observation falls back to the global walk when local repair fails.
    ("observation", "incremental", "repair_failed"),
    // Recovery is entered *solely* on a device-count change.
    ("search", "recovery", "device_count_changed"),
    ("incremental", "recovery", "device_count_changed"),
    ("observation", "recovery", "device_count_changed"),
    // Total GPU loss: CPU-only sweep, then straight to Observation.
    ("search", "observation", "all_gpus_offline"),
    ("incremental", "observation", "all_gpus_offline"),
    ("recovery", "observation", "all_gpus_offline"),
];

/// Replay a trace and collect every invariant violation (empty = legal run).
///
/// Thin wrapper over [`validate_trace_report`] for callers that only need
/// the violation list.
pub fn validate_trace(records: &[EventRecord], opts: &ValidateOptions) -> Vec<Violation> {
    validate_trace_report(records, opts).violations
}

/// Replay a trace, collect every invariant violation, and report the
/// realized phase-reconciliation residual (see [`ValidationReport`]).
///
/// `records` must be in emission order (as read back by
/// [`telemetry::TraceReader`]); the validator re-checks that via
/// `seq_monotone` rather than sorting.
pub fn validate_trace_report(records: &[EventRecord], opts: &ValidateOptions) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut out = Vec::new();
    let mut last_seq: Option<u64> = None;

    // run.config header: S bounds.
    let config = records.iter().find(|r| r.name == "run.config");
    let s_bounds = config.map(|c| {
        (
            c.field_u64("s_min").unwrap_or(1),
            c.field_u64("s_max").unwrap_or(u64::MAX),
        )
    });
    let has_steps = records.iter().any(|r| r.name == "step.record");
    if config.is_none() && has_steps {
        out.push(Violation {
            invariant: "missing_config",
            seq: records.first().map_or(0, |r| r.seq),
            step: 0,
            detail: "trace has step records but no run.config header".into(),
        });
    }

    // Per-step online-GPU counts, for recovery evidence.
    let online_at: Vec<(u64, u64)> = records
        .iter()
        .filter(|r| r.name == "step.record")
        .filter_map(|r| r.field_u64("online_gpus").map(|o| (r.step, o)))
        .collect();
    let online_before = |step: u64| {
        online_at
            .iter()
            .rev()
            .find(|(s, _)| *s < step)
            .map(|(_, o)| *o)
    };
    let online_during = |step: u64| online_at.iter().find(|(s, _)| *s == step).map(|(_, o)| *o);

    // Reconstructed state machine.
    let mut cur_state = "search".to_string();
    let mut cur_step: Option<u64> = None;
    let mut state_at_step_start = cur_state.clone();
    // A supervisor restore rewinds the run to a checkpoint: step numbers
    // repeat and the balancer state jumps to whatever was checkpointed.
    // Resync the reconstruction at the next stateful record instead of
    // reporting the jump as a continuity violation.
    let mut resync = false;
    // Most recent lb.regression seen, as (step, seq).
    let mut last_regression: Option<(u64, u64)> = None;
    // CPU-side phase.* span durations accumulated within the current step
    // (phase spans precede their step's step.record in emission order).
    let mut phase_sum = 0.0f64;
    let mut phase_spans = 0usize;

    for r in records {
        if let Some(prev) = last_seq {
            if r.seq <= prev {
                out.push(Violation {
                    invariant: "seq_monotone",
                    seq: r.seq,
                    step: r.step,
                    detail: format!("seq {} follows {}", r.seq, prev),
                });
            }
        }
        last_seq = Some(r.seq);

        if cur_step != Some(r.step) {
            // First record of a new step: whatever state the machine is in
            // now is the state this step *ran* in (transitions are emitted
            // in post_step, before the step's own step.record).
            cur_step = Some(r.step);
            state_at_step_start = cur_state.clone();
            phase_sum = 0.0;
            phase_spans = 0;
        }

        if r.kind == RecordKind::Span && r.name.starts_with("phase.") {
            // P2P on the GPUs runs on device lanes, not the CPU makespan.
            let on_gpu = r.name == "phase.p2p" && r.field_bool("on_gpu").unwrap_or(false);
            if !on_gpu {
                if let Some(d) = r.dur_s {
                    phase_sum += d;
                    phase_spans += 1;
                }
            }
        }

        match r.name {
            "supervisor.restore" => resync = true,
            "lb.transition" => {
                let from = r.field_str("from").unwrap_or("?");
                let to = r.field_str("to").unwrap_or("?");
                let cause = r.field_str("cause").unwrap_or("?");
                if resync {
                    cur_state = from.to_string();
                    state_at_step_start = cur_state.clone();
                    resync = false;
                }
                if !LEGAL_TRANSITIONS
                    .iter()
                    .any(|&(f, t, c)| f == from && t == to && c == cause)
                {
                    out.push(Violation {
                        invariant: "transition_legality",
                        seq: r.seq,
                        step: r.step,
                        detail: format!("illegal edge {from} -> {to} (cause: {cause})"),
                    });
                }
                if from != cur_state {
                    out.push(Violation {
                        invariant: "state_continuity",
                        seq: r.seq,
                        step: r.step,
                        detail: format!(
                            "transition claims from={from} but the machine is in {cur_state}"
                        ),
                    });
                }
                if to == "recovery" {
                    // Evidence: an lb.recovery event in the same step and a
                    // step-record online count that actually changed.
                    let has_marker = records
                        .iter()
                        .any(|m| m.name == "lb.recovery" && m.step == r.step);
                    if !has_marker {
                        out.push(Violation {
                            invariant: "recovery_cause",
                            seq: r.seq,
                            step: r.step,
                            detail: "recovery entered without an lb.recovery marker".into(),
                        });
                    }
                    if let (Some(before), Some(during)) =
                        (online_before(r.step), online_during(r.step))
                    {
                        if before == during {
                            out.push(Violation {
                                invariant: "recovery_cause",
                                seq: r.seq,
                                step: r.step,
                                detail: format!(
                                    "recovery entered but online GPU count stayed {during}"
                                ),
                            });
                        }
                    }
                }
                if let (Some(s), Some((lo, hi))) = (r.field_u64("s"), s_bounds) {
                    if s < lo || s > hi {
                        out.push(Violation {
                            invariant: "s_bounds",
                            seq: r.seq,
                            step: r.step,
                            detail: format!("transition at S={s} outside [{lo}, {hi}]"),
                        });
                    }
                }
                cur_state = to.to_string();
            }
            "step.record" => {
                let state = r.field_str("state").unwrap_or("?");
                if resync {
                    cur_state = state.to_string();
                    state_at_step_start = cur_state.clone();
                    resync = false;
                }
                if state != state_at_step_start {
                    out.push(Violation {
                        invariant: "state_continuity",
                        seq: r.seq,
                        step: r.step,
                        detail: format!(
                            "step ran in {state} but replay says {state_at_step_start}"
                        ),
                    });
                }
                if let (Some(s), Some((lo, hi))) = (r.field_u64("s"), s_bounds) {
                    if s < lo || s > hi {
                        out.push(Violation {
                            invariant: "s_bounds",
                            seq: r.seq,
                            step: r.step,
                            detail: format!("step at S={s} outside [{lo}, {hi}]"),
                        });
                    }
                }
                // Phase-span reconciliation: the step's CPU-side phase
                // durations must sum to the undisturbed scheduler makespan.
                // Needs both sides present — older traces carry neither.
                if let Some(t_sched) = r.field_f64("t_sched") {
                    if phase_spans > 0 && t_sched.is_finite() {
                        let gap = (phase_sum - t_sched).abs();
                        let residual = gap / t_sched.max(1e-12);
                        report.reconciled_steps += 1;
                        if residual > report.max_phase_residual {
                            report.max_phase_residual = residual;
                            report.max_phase_residual_step = Some(r.step);
                        }
                        if gap > opts.phase_tolerance * t_sched.max(1e-12) + 1e-12 {
                            out.push(Violation {
                                invariant: "phase_reconciliation",
                                seq: r.seq,
                                step: r.step,
                                detail: format!(
                                    "phase spans sum to {phase_sum:.6e} but the step \
                                     reports a scheduler makespan of {t_sched:.6e}"
                                ),
                            });
                        }
                    }
                }
            }
            "lb.regression" => last_regression = Some((r.step, r.seq)),
            "lb.enforce" => {
                // Only Observation-state enforces need provenance — the
                // Incremental walk enforces on every probe by design. While
                // a restore resync is pending the state is unknown (the
                // enforce of a replayed step precedes its step.record), so
                // the check waits for the machine to resync.
                if cur_state == "observation" && !resync {
                    let reg_ok = matches!(
                        last_regression,
                        Some((s, q)) if s == r.step && q < r.seq
                    );
                    if !reg_ok {
                        out.push(Violation {
                            invariant: "enforce_provenance",
                            seq: r.seq,
                            step: r.step,
                            detail: "observation-state enforce with no lb.regression \
                                     before it in the same step"
                                .into(),
                        });
                    }
                }
                if let (Some(s), Some((lo, hi))) = (r.field_u64("s"), s_bounds) {
                    if s < lo || s > hi {
                        out.push(Violation {
                            invariant: "s_bounds",
                            seq: r.seq,
                            step: r.step,
                            detail: format!("enforce at S={s} outside [{lo}, {hi}]"),
                        });
                    }
                }
            }
            "audit.prediction" => {
                // Acted steps knowingly invalidate the forecast; skip them.
                let acted = r.field_bool("acted").unwrap_or(false);
                if let Some(err) = r.field_f64("rel_error") {
                    if !acted && err.is_finite() && err > opts.audit_tolerance {
                        out.push(Violation {
                            invariant: "audit_drift",
                            seq: r.seq,
                            step: r.step,
                            detail: format!(
                                "prediction error {err:.3} exceeds tolerance {:.3}",
                                opts.audit_tolerance
                            ),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    report.violations = out;
    report
}

/// One step-aligned discrepancy between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    pub step: u64,
    /// What differs: `"s"`, `"state"`, or `"step_count"`.
    pub kind: &'static str,
    pub a: String,
    pub b: String,
}

impl std::fmt::Display for DiffEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: {} differs (a: {}, b: {})",
            self.step, self.kind, self.a, self.b
        )
    }
}

/// Result of a step-aligned [`diff_traces`].
#[derive(Debug, Clone, Default)]
pub struct TraceDiff {
    pub steps_a: usize,
    pub steps_b: usize,
    /// Structural mismatches (S trajectory / state trajectory / length).
    pub mismatches: Vec<DiffEntry>,
    /// Largest per-step compute-time ratio `max(a/b, b/a)` over aligned
    /// steps (1.0 = identical timing; informational, never a mismatch).
    pub max_time_ratio: f64,
}

impl TraceDiff {
    /// True when the two runs took the same S/state trajectory.
    pub fn is_match(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Align two traces on their `step.record` events and compare the balancer
/// trajectory (S, state) step by step; timing differences are summarized as
/// a ratio but never count as mismatches (two runs of the same trajectory
/// on different hardware legitimately differ in time).
pub fn diff_traces(a: &[EventRecord], b: &[EventRecord]) -> TraceDiff {
    let steps = |recs: &[EventRecord]| -> Vec<EventRecord> {
        recs.iter()
            .filter(|r| r.name == "step.record")
            .cloned()
            .collect()
    };
    let sa = steps(a);
    let sb = steps(b);
    let mut diff = TraceDiff {
        steps_a: sa.len(),
        steps_b: sb.len(),
        mismatches: Vec::new(),
        max_time_ratio: 1.0,
    };
    if sa.len() != sb.len() {
        diff.mismatches.push(DiffEntry {
            step: sa.len().min(sb.len()) as u64,
            kind: "step_count",
            a: sa.len().to_string(),
            b: sb.len().to_string(),
        });
    }
    for (ra, rb) in sa.iter().zip(&sb) {
        let step = ra.step;
        match (ra.field_u64("s"), rb.field_u64("s")) {
            (Some(x), Some(y)) if x != y => diff.mismatches.push(DiffEntry {
                step,
                kind: "s",
                a: x.to_string(),
                b: y.to_string(),
            }),
            _ => {}
        }
        let state_a = ra.field_str("state").unwrap_or("?");
        let state_b = rb.field_str("state").unwrap_or("?");
        if state_a != state_b {
            diff.mismatches.push(DiffEntry {
                step,
                kind: "state",
                a: state_a.to_string(),
                b: state_b.to_string(),
            });
        }
        let compute = |r: &EventRecord| {
            let c = r
                .field_f64("t_cpu")
                .unwrap_or(0.0)
                .max(r.field_f64("t_gpu").unwrap_or(0.0));
            c.max(0.0)
        };
        let (ca, cb) = (compute(ra), compute(rb));
        if ca > 0.0 && cb > 0.0 {
            diff.max_time_ratio = diff.max_time_ratio.max((ca / cb).max(cb / ca));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{intern, Value};

    /// Hand-build a minimal legal trace: config, two observation steps.
    fn event(seq: u64, step: u64, name: &str, fields: Vec<(&'static str, Value)>) -> EventRecord {
        EventRecord {
            seq,
            step,
            kind: RecordKind::Event,
            name: intern(name),
            dur_s: None,
            fields,
        }
    }

    fn config(seq: u64) -> EventRecord {
        event(
            seq,
            0,
            "run.config",
            vec![
                ("strategy", Value::Str("full".into())),
                ("s_min", Value::U64(8)),
                ("s_max", Value::U64(4096)),
            ],
        )
    }

    fn step_record(seq: u64, step: u64, s: u64, state: &str, online: u64) -> EventRecord {
        event(
            seq,
            step,
            "step.record",
            vec![
                ("s", Value::U64(s)),
                ("state", Value::Str(state.into())),
                ("t_cpu", Value::F64(1.0)),
                ("t_gpu", Value::F64(1.1)),
                ("t_lb", Value::F64(0.0)),
                ("acted", Value::Bool(false)),
                ("online_gpus", Value::U64(online)),
            ],
        )
    }

    fn transition(seq: u64, step: u64, from: &str, to: &str, cause: &str, s: u64) -> EventRecord {
        event(
            seq,
            step,
            "lb.transition",
            vec![
                ("from", Value::Str(from.into())),
                ("to", Value::Str(to.into())),
                ("cause", Value::Str(cause.into())),
                ("s", Value::U64(s)),
            ],
        )
    }

    #[test]
    fn clean_synthetic_trace_validates() {
        let recs = vec![
            config(0),
            transition(1, 0, "search", "incremental", "search_settled", 64),
            step_record(2, 0, 64, "search", 2),
            transition(
                3,
                1,
                "incremental",
                "observation",
                "incremental_settled",
                74,
            ),
            step_record(4, 1, 64, "incremental", 2),
            step_record(5, 2, 74, "observation", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn illegal_edge_is_named() {
        let recs = vec![
            config(0),
            transition(1, 0, "search", "frozen", "repair_failed", 64),
            step_record(2, 0, 64, "search", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(
            v.iter().any(|x| x.invariant == "transition_legality"),
            "{v:?}"
        );
    }

    #[test]
    fn recovery_without_evidence_is_flagged() {
        let recs = vec![
            config(0),
            step_record(1, 0, 64, "search", 2),
            // Recovery claimed, but no lb.recovery marker and the online
            // count never changed.
            transition(2, 1, "search", "recovery", "device_count_changed", 64),
            step_record(3, 1, 64, "search", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        let hits: Vec<_> = v
            .iter()
            .filter(|x| x.invariant == "recovery_cause")
            .collect();
        assert_eq!(hits.len(), 2, "marker + count evidence both missing: {v:?}");
    }

    #[test]
    fn legal_recovery_passes() {
        let recs = vec![
            config(0),
            step_record(1, 0, 64, "search", 2),
            event(
                2,
                1,
                "lb.recovery",
                vec![("online", Value::U64(1)), ("s", Value::U64(64))],
            ),
            transition(3, 1, "search", "recovery", "device_count_changed", 64),
            step_record(4, 1, 64, "search", 1),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn s_out_of_bounds_is_flagged() {
        let recs = vec![config(0), step_record(1, 0, 5000, "search", 2)];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.iter().any(|x| x.invariant == "s_bounds"), "{v:?}");
    }

    #[test]
    fn orphan_observation_enforce_is_flagged() {
        let mut recs = vec![
            config(0),
            transition(1, 0, "search", "incremental", "search_settled", 64),
            step_record(2, 0, 64, "search", 2),
            transition(
                3,
                1,
                "incremental",
                "observation",
                "incremental_settled",
                64,
            ),
            step_record(4, 1, 64, "incremental", 2),
            // Enforce with no lb.regression before it.
            event(
                5,
                2,
                "lb.enforce",
                vec![
                    ("collapses", Value::U64(1)),
                    ("pushdowns", Value::U64(0)),
                    ("patched", Value::Bool(true)),
                    ("s", Value::U64(64)),
                ],
            ),
            step_record(6, 2, 64, "observation", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(
            v.iter().any(|x| x.invariant == "enforce_provenance"),
            "{v:?}"
        );
        // Keep seq monotone after an insert.
        let resequence = |recs: &mut Vec<EventRecord>| {
            for (i, r) in recs.iter_mut().enumerate() {
                r.seq = i as u64;
            }
        };
        // An `anomaly.step_time` event two steps earlier (traces recorded
        // while the online detector existed carry them) is not provenance.
        let mut with_anomaly = recs.clone();
        with_anomaly.insert(
            1,
            event(0, 0, "anomaly.step_time", vec![("score", Value::F64(9.0))]),
        );
        resequence(&mut with_anomaly);
        let v = validate_trace(&with_anomaly, &ValidateOptions::default());
        assert!(
            v.iter().any(|x| x.invariant == "enforce_provenance"),
            "{v:?}"
        );
        // Adding the regression signal ahead of it makes the trace legal.
        recs.insert(
            5,
            event(
                4,
                2,
                "lb.regression",
                vec![
                    ("compute", Value::F64(1.3)),
                    ("limit", Value::F64(1.2)),
                    ("best", Value::F64(1.1)),
                ],
            ),
        );
        resequence(&mut recs);
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn audit_drift_and_seq_violations() {
        let recs = vec![
            config(0),
            event(
                1,
                0,
                "audit.prediction",
                vec![
                    ("pred_total", Value::F64(50.0)),
                    ("actual_total", Value::F64(1.0)),
                    ("rel_error", Value::F64(49.0)),
                    ("acted", Value::Bool(false)),
                ],
            ),
            // seq goes backwards here:
            step_record(1, 0, 64, "search", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.iter().any(|x| x.invariant == "audit_drift"), "{v:?}");
        assert!(v.iter().any(|x| x.invariant == "seq_monotone"), "{v:?}");
    }

    #[test]
    fn missing_config_is_flagged() {
        let recs = vec![step_record(0, 0, 64, "search", 2)];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.iter().any(|x| x.invariant == "missing_config"), "{v:?}");
        // An empty trace, by contrast, is trivially legal.
        assert!(validate_trace(&[], &ValidateOptions::default()).is_empty());
    }

    fn phase_span(seq: u64, step: u64, name: &'static str, dur: f64) -> EventRecord {
        EventRecord {
            seq,
            step,
            kind: RecordKind::Span,
            name: intern(name),
            dur_s: Some(dur),
            fields: vec![("ops", Value::U64(10))],
        }
    }

    fn step_record_with_sched(
        seq: u64,
        step: u64,
        s: u64,
        state: &str,
        t_sched: f64,
    ) -> EventRecord {
        let mut r = step_record(seq, step, s, state, 2);
        r.fields.push(("t_sched", Value::F64(t_sched)));
        r
    }

    #[test]
    fn reconciled_phase_spans_pass() {
        let recs = vec![
            config(0),
            phase_span(1, 0, "phase.p2m", 0.1),
            phase_span(2, 0, "phase.m2m", 0.2),
            phase_span(3, 0, "phase.m2l", 0.5),
            phase_span(4, 0, "phase.l2l", 0.1),
            phase_span(5, 0, "phase.l2p", 0.1),
            step_record_with_sched(6, 0, 64, "search", 1.0),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn corrupted_phase_span_is_flagged() {
        // The M2L span was zeroed (dominant phase lost): the sum no longer
        // covers the reported makespan.
        let recs = vec![
            config(0),
            phase_span(1, 0, "phase.p2m", 0.1),
            phase_span(2, 0, "phase.m2m", 0.2),
            phase_span(3, 0, "phase.m2l", 0.0),
            phase_span(4, 0, "phase.l2l", 0.1),
            phase_span(5, 0, "phase.l2p", 0.1),
            step_record_with_sched(6, 0, 64, "search", 1.0),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(
            v.iter().any(|x| x.invariant == "phase_reconciliation"),
            "{v:?}"
        );
    }

    #[test]
    fn gpu_p2p_span_stays_out_of_cpu_reconciliation() {
        // phase.p2p with on_gpu=true is device time; including it would blow
        // the CPU-side sum. A trace where it is correctly excluded passes.
        let mut p2p = phase_span(5, 0, "phase.p2p", 3.0);
        p2p.fields.push(("on_gpu", Value::Bool(true)));
        let recs = vec![
            config(0),
            phase_span(1, 0, "phase.p2m", 0.2),
            phase_span(2, 0, "phase.m2m", 0.2),
            phase_span(3, 0, "phase.m2l", 0.4),
            phase_span(4, 0, "phase.l2l", 0.2),
            p2p,
            step_record_with_sched(6, 0, 64, "search", 1.0),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn traces_without_t_sched_skip_reconciliation() {
        // Pre-DAG traces have phase spans but no t_sched anchor: skipped,
        // not flagged (backwards compatibility).
        let recs = vec![
            config(0),
            phase_span(1, 0, "phase.m2l", 123.0),
            step_record(2, 0, 64, "search", 2),
        ];
        let v = validate_trace(&recs, &ValidateOptions::default());
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn report_carries_realized_residual() {
        // Two reconciled steps: 10% residual on step 0, 2% on step 1. Both
        // inside the default tolerance, but the report says how close.
        let recs = vec![
            config(0),
            phase_span(1, 0, "phase.m2l", 0.9),
            step_record_with_sched(2, 0, 64, "search", 1.0),
            phase_span(3, 1, "phase.m2l", 0.98),
            step_record_with_sched(4, 1, 64, "search", 1.0),
        ];
        let rep = validate_trace_report(&recs, &ValidateOptions::default());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        assert_eq!(rep.reconciled_steps, 2);
        assert!((rep.max_phase_residual - 0.1).abs() < 1e-12);
        assert_eq!(rep.max_phase_residual_step, Some(0));
    }

    #[test]
    fn caller_override_beats_trace_tolerance() {
        // A pre-PR-14 header recorded 50% (no longer read); the caller (CLI
        // --phase-tol) demands 1%.
        let mut cfg = config(0);
        cfg.fields.push(("phase_tolerance", Value::F64(0.5)));
        let recs = vec![
            cfg,
            phase_span(1, 0, "phase.m2l", 0.9),
            step_record_with_sched(2, 0, 64, "search", 1.0),
        ];
        let opts = ValidateOptions {
            phase_tolerance: 0.01,
            ..ValidateOptions::default()
        };
        let rep = validate_trace_report(&recs, &opts);
        assert!(
            rep.violations
                .iter()
                .any(|x| x.invariant == "phase_reconciliation"),
            "{:?}",
            rep.violations
        );
    }

    #[test]
    fn diff_matches_identical_and_spots_divergence() {
        let a = vec![
            config(0),
            step_record(1, 0, 64, "search", 2),
            step_record(2, 1, 80, "incremental", 2),
        ];
        let d = diff_traces(&a, &a);
        assert!(d.is_match());
        assert_eq!(d.max_time_ratio, 1.0);

        let mut b = a.clone();
        b[2] = step_record(2, 1, 96, "observation", 2);
        let d = diff_traces(&a, &b);
        assert!(!d.is_match());
        let kinds: Vec<_> = d.mismatches.iter().map(|m| m.kind).collect();
        assert!(
            kinds.contains(&"s") && kinds.contains(&"state"),
            "{kinds:?}"
        );

        let c = a[..2].to_vec();
        let d = diff_traces(&a, &c);
        assert!(d.mismatches.iter().any(|m| m.kind == "step_count"));
    }
}
