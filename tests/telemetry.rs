//! End-to-end telemetry: the recorder threaded through the whole stack —
//! engine solve spans, virtual per-phase spans, per-step records, balancer
//! flight record, per-device GPU events and the prediction audit — plus the
//! guarantee that instrumentation never perturbs the simulation itself.

use afmm_repro::prelude::*;
use telemetry::{Value, VecSink};

fn small_cfg() -> LbConfig {
    LbConfig {
        eps_switch_s: 2e-3,
        ..Default::default()
    }
}

/// A dynamic (contracting) run with telemetry on: every acceptance artifact
/// of the trace must be present.
#[test]
fn dynamic_run_emits_full_trace() {
    let setup = nbody::collapsing_plummer(4000, 1.0, 7001);
    let rec = Recorder::enabled();
    let sink = VecSink::new();
    rec.set_sink(sink.clone());
    let mut tracker = StrategyTracker::with_telemetry(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(10, 2),
        Strategy::Full,
        small_cfg(),
        &setup.bodies.pos,
        Some((setup.domain_center, setup.domain_half_width)),
        rec.clone(),
    );
    let mut pos = setup.bodies.pos.clone();
    for _ in 0..15 {
        tracker.step(&pos).unwrap();
        for p in &mut pos {
            *p *= 0.96;
        }
    }

    // Spans for all five far-field phases + P2P.
    for name in [
        "phase.p2m",
        "phase.m2m",
        "phase.m2l",
        "phase.l2l",
        "phase.l2p",
        "phase.p2p",
    ] {
        let spans = rec.events_named(name);
        assert_eq!(spans.len(), 15, "one {name} span per step");
        assert!(spans.iter().all(|e| e.dur_s.unwrap_or(-1.0) >= 0.0));
    }

    // Every LbState transition is in the flight record, with vocabulary
    // causes and states.
    let transitions = rec.events_named("lb.transition");
    assert!(!transitions.is_empty(), "Full strategy must leave Search");
    let states = ["search", "incremental", "observation", "frozen", "recovery"];
    for t in &transitions {
        for key in ["from", "to"] {
            match t.field(key) {
                Some(Value::Str(s)) => assert!(states.contains(&s.as_str()), "bad state {s}"),
                other => panic!("transition {key} missing: {other:?}"),
            }
        }
    }

    // ≥1 prediction audit per balanced step (every step after the first).
    assert_eq!(tracker.audits().len(), 14);
    let stats = tracker.audits().stats();
    assert!(stats.median.is_finite() && stats.median >= 0.0);

    // Per-device launch events flowed from the simulated system, and every
    // step left its summary record with the S it ran at.
    assert!(!rec.events_named("gpu.util").is_empty());
    let steps = rec.events_named("step.record");
    assert_eq!(steps.len(), 15, "one step.record per step");
    assert!(steps.iter().all(|e| e.field_u64("s").is_some()));

    // Everything that hit the ring also hit the sink, as valid JSONL.
    let lines = sink.lines();
    assert!(lines.len() >= rec.events().len());
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "bad JSONL: {line}"
        );
        assert!(line.contains("\"name\":"));
    }
}

/// The numeric solve path emits its three top-level spans.
#[test]
fn solve_emits_phase_spans() {
    let b = nbody::plummer(2000, 1.0, 1.0, 7002);
    let rec = Recorder::enabled();
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, 64);
    engine.set_recorder(rec.clone());
    engine.solve(&b.pos, &b.mass);
    for name in ["solve.upsweep", "solve.downsweep", "solve.near_field"] {
        let spans = rec.events_named(name);
        assert_eq!(spans.len(), 1, "missing {name}");
        assert!(spans[0].dur_s.unwrap() >= 0.0);
    }
}

/// Telemetry must be a pure observer: identical records with it on or off,
/// and the disabled recorder must keep the ring empty.
#[test]
fn instrumentation_is_a_pure_observer() {
    let setup = nbody::collapsing_plummer(3000, 1.0, 7003);
    let mk = |rec: Option<Recorder>| {
        let mut t = StrategyTracker::new(
            GravityKernel::default(),
            FmmParams::default(),
            HeteroNode::system_a(10, 2),
            Strategy::Full,
            small_cfg(),
            &setup.bodies.pos,
            Some((setup.domain_center, setup.domain_half_width)),
        );
        if let Some(rec) = rec {
            t.set_recorder(rec);
        }
        t
    };
    let off = Recorder::disabled();
    let mut plain = mk(Some(off.clone()));
    let mut traced = mk(Some(Recorder::enabled()));
    let mut pos = setup.bodies.pos.clone();
    for _ in 0..10 {
        let a = plain.step(&pos).unwrap();
        let b = traced.step(&pos).unwrap();
        assert_eq!(a.s, b.s);
        assert_eq!(a.state, b.state);
        assert_eq!(a.t_cpu.to_bits(), b.t_cpu.to_bits());
        assert_eq!(a.t_gpu.to_bits(), b.t_gpu.to_bits());
        assert_eq!(a.t_lb.to_bits(), b.t_lb.to_bits());
        for p in &mut pos {
            *p *= 0.97;
        }
    }
    assert!(off.events().is_empty(), "disabled recorder must stay empty");
    assert!(!off.is_enabled());
}
