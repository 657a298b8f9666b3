//! Offline replay validation: a clean instrumented run satisfies every
//! replay invariant, hand-corrupted traces fail with the *named* invariant,
//! and `diff_traces` distinguishes identical trajectories from divergent
//! ones.

use afmm_repro::prelude::*;
use afmm_repro::telemetry::{self, EventRecord};

/// JSONL lines of a telemetry-enabled dynamic run (deterministic).
fn traced_lines(steps: usize, seed: u64, drift: bool) -> Vec<String> {
    let setup = nbody::collapsing_plummer(2500, 1.0, seed);
    let rec = Recorder::enabled();
    let sink = VecSink::new();
    rec.set_sink(sink.clone());
    let mut tracker = StrategyTracker::new(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(10, 2),
        Strategy::Full,
        LbConfig {
            eps_switch_s: 2e-3,
            ..Default::default()
        },
        &setup.bodies.pos,
        Some((setup.domain_center, setup.domain_half_width)),
    );
    tracker.set_recorder(rec.clone());
    let mut pos = setup.bodies.pos.clone();
    for step in 0..steps {
        tracker.step(&pos).unwrap();
        if drift && step < steps / 2 {
            for p in &mut pos {
                *p *= 0.97;
            }
        }
    }
    sink.lines()
}

fn parse(lines: &[String]) -> Vec<EventRecord> {
    lines
        .iter()
        .map(|l| EventRecord::from_json(l).expect("trace line parses"))
        .collect()
}

fn violated_invariants(records: &[EventRecord]) -> Vec<&'static str> {
    validate_trace(records)
        .into_iter()
        .map(|v| v.invariant)
        .collect()
}

#[test]
fn clean_hundred_step_run_validates() {
    let records = parse(&traced_lines(100, 4242, true));
    let violations = validate_trace(&records);
    assert!(
        violations.is_empty(),
        "clean run should satisfy all invariants, got: {:?}",
        violations.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn corrupted_seq_names_seq_monotone() {
    let mut lines = traced_lines(20, 7, true);
    // Rewind one sequence number mid-trace: replay ordering is broken.
    let idx = lines.len() / 2;
    let seq_field = lines[idx]
        .split(',')
        .next()
        .unwrap()
        .trim_start_matches('{')
        .to_string();
    lines[idx] = lines[idx].replace(&seq_field, "\"seq\":0");
    let records = parse(&lines);
    let inv = violated_invariants(&records);
    assert!(
        inv.contains(&"seq_monotone"),
        "expected seq_monotone violation, got {inv:?}"
    );
}

#[test]
fn corrupted_s_names_s_bounds() {
    let mut lines = traced_lines(30, 8, true);
    // Push S far beyond the configured s_max on one step.record.
    let mut hit = false;
    for line in lines.iter_mut() {
        if line.contains("\"name\":\"step.record\"") && line.contains("\"s\":") {
            *line = line.replacen("\"s\":", "\"s\":9999", 1);
            // "s":9999<old digits> — still valid JSON, wildly out of bounds.
            hit = true;
            break;
        }
    }
    assert!(hit, "no step.record with an s field found to corrupt");
    let records = parse(&lines);
    let inv = violated_invariants(&records);
    assert!(
        inv.contains(&"s_bounds"),
        "expected s_bounds violation, got {inv:?}"
    );
}

#[test]
fn corrupted_transition_names_transition_legality() {
    let mut lines = traced_lines(60, 9, true);
    // Forge an illegal jump: rewrite a real transition's destination to
    // "recovery" with a cause that does not permit it.
    let mut hit = false;
    for line in lines.iter_mut() {
        if line.contains("\"name\":\"lb.transition\"")
            && line.contains("\"cause\":\"search_settled\"")
        {
            *line = line
                .replacen("\"to\":\"frozen\"", "\"to\":\"recovery\"", 1)
                .replacen("\"to\":\"observation\"", "\"to\":\"recovery\"", 1)
                .replacen("\"to\":\"incremental\"", "\"to\":\"recovery\"", 1);
            hit = line.contains("\"to\":\"recovery\"");
            if hit {
                break;
            }
        }
    }
    assert!(hit, "no search_settled transition found to corrupt");
    let records = parse(&lines);
    let inv = violated_invariants(&records);
    assert!(
        inv.iter().any(|i| *i == "transition_legality"
            || *i == "recovery_cause"
            || *i == "state_continuity"),
        "expected a state-machine violation, got {inv:?}"
    );
}

#[test]
fn missing_config_is_flagged() {
    let lines: Vec<String> = traced_lines(15, 10, false)
        .into_iter()
        .filter(|l| !l.contains("\"name\":\"run.config\""))
        .collect();
    let records = parse(&lines);
    let inv = violated_invariants(&records);
    assert!(
        inv.contains(&"missing_config"),
        "expected missing_config violation, got {inv:?}"
    );
}

#[test]
fn diff_of_identical_runs_matches() {
    let a = parse(&traced_lines(40, 11, true));
    let b = parse(&traced_lines(40, 11, true));
    let d = diff_traces(&a, &b);
    assert!(
        d.is_match(),
        "identical runs should diff clean: {:?}",
        d.mismatches
    );
    assert_eq!(d.steps_a, 40);
    assert_eq!(d.steps_b, 40);
    // Determinism is byte-level, so compute ratio is exactly 1 everywhere
    // it is defined... but wall-clock timing fields are *measured*, so only
    // require it to be finite and positive.
    assert!(d.max_time_ratio.is_finite() && d.max_time_ratio > 0.0);
}

#[test]
fn diff_of_divergent_runs_reports_mismatches() {
    // Different workloads take different balancer trajectories.
    let a = parse(&traced_lines(40, 11, true));
    let b = parse(&traced_lines(25, 12, false));
    let d = diff_traces(&a, &b);
    assert_eq!(d.steps_a, 40);
    assert_eq!(d.steps_b, 25);
    assert!(!d.is_match(), "divergent runs should not match");
    assert!(!d.mismatches.is_empty());
}

/// One step of a trace recorded before PR 14 removed the `Dag` execution
/// mode: its `run.config`/`exec.policy` carry `phase_tolerance` and
/// `mode:"dag"`, the step has `sched.*` x-ray events, and `step.record` has
/// the three x-ray gauges. It also carries two `anomaly.*` events from the
/// online detector that PR 16 removed. People keep old traces; readers must
/// still take them.
const PRE_PR14_DAG_TRACE: &str = include_str!("fixtures/pre_pr14_dag_trace.jsonl");

#[test]
fn validate_via_file_round_trip() {
    // The same check the CI step runs: write the JSONL, read it back with
    // the streaming reader, validate — a fresh trace and an old Dag one.
    let path =
        std::env::temp_dir().join(format!("afmm_replay_validate_{}.jsonl", std::process::id()));
    for text in [
        traced_lines(30, 13, true).join("\n"),
        PRE_PR14_DAG_TRACE.to_string(),
    ] {
        std::fs::write(&path, text).unwrap();
        let records = telemetry::read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let violations = validate_trace(&records);
        assert!(violations.is_empty(), "{violations:?}");
    }
}

/// A `GravitySim` takes a recorder through the tracker it owns: its trace
/// holds one `step.record` per step and satisfies every replay invariant,
/// and recording moves no bit of the run.
#[test]
fn recorded_gravity_sim_validates_and_matches_its_unrecorded_twin() {
    let steps = 40;
    for strategy in [Strategy::StaticS, Strategy::EnforceOnly, Strategy::Full] {
        let mk = || {
            let setup = nbody::collapsing_plummer(1000, 1.0, 4303);
            GravitySim::new(
                setup.bodies,
                1.0,
                1e-3,
                0.05,
                FmmParams {
                    order: 4,
                    ..Default::default()
                },
                HeteroNode::system_a(10, 1),
                strategy,
                LbConfig {
                    eps_switch_s: 2e-3,
                    ..Default::default()
                },
                Some((setup.domain_center, setup.domain_half_width)),
            )
        };
        let (mut plain, mut traced) = (mk(), mk());
        let rec = Recorder::enabled();
        let sink = VecSink::new();
        rec.set_sink(sink.clone());
        traced.tracker_mut().set_recorder(rec);
        for _ in 0..steps {
            let (a, b) = (plain.step().unwrap(), traced.step().unwrap());
            // Debug prints floats shortest-round-trip: equal text, equal bits.
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{strategy:?}");
        }
        assert_eq!(plain.bodies.pos, traced.bodies.pos, "{strategy:?}");

        let records = parse(&sink.lines());
        let step_records = records.iter().filter(|r| r.name == "step.record").count();
        assert_eq!(step_records, steps, "{strategy:?}");
        let violations = validate_trace(&records);
        assert!(violations.is_empty(), "{strategy:?}: {violations:?}");
        assert_eq!(traced.tracker().audits().len(), steps - 1, "{strategy:?}");
        assert!(plain.tracker().audits().is_empty());
    }
}
