//! The trace pipeline's round-trip contract, end to end: every JSONL line a
//! recorder emits parses back into a typed record that re-serializes to the
//! *identical bytes* — including the `push_json_f64` edge cases (NaN, ±inf,
//! negative zero) — and the Chrome export of a real run is valid JSON with
//! the phase / device / balancer tracks present.

use afmm_repro::prelude::*;
use afmm_repro::telemetry::{self, intern, RecordKind};
use proptest::prelude::{
    any, prop, prop_assert, prop_assert_eq, prop_oneof, proptest, Just, ProptestConfig,
    Strategy as PropStrategy,
};

// ---- property: to_json -> from_json identity over all Value variants ----

/// Character palette covering every escape class the encoder handles: the
/// two mandatory escapes, the named control escapes, a raw control byte,
/// ASCII, and multi-byte UTF-8 up to an astral-plane char (surrogate pair
/// in \u form).
const CHAR_PALETTE: [char; 12] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', 'é', '🚀',
];

fn arb_string() -> impl PropStrategy<Value = String> {
    prop::collection::vec(0usize..CHAR_PALETTE.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHAR_PALETTE[i]).collect())
}

fn arb_f64() -> impl PropStrategy<Value = f64> {
    prop_oneof![
        any::<f64>().boxed(),
        (-1.0f64..1.0).boxed(),
        Just(f64::NAN).boxed(),
        Just(f64::INFINITY).boxed(),
        Just(f64::NEG_INFINITY).boxed(),
        Just(-0.0f64).boxed(),
        Just(0.0f64).boxed(),
        Just(5e-324).boxed(), // smallest subnormal
        Just(1e300).boxed(),  // 301-digit integral rendering
        Just(0.1f64).boxed(), // classic shortest-round-trip case
    ]
}

fn arb_value() -> impl PropStrategy<Value = telemetry::Value> {
    prop_oneof![
        any::<u64>().prop_map(telemetry::Value::U64).boxed(),
        (i64::MIN..i64::MAX).prop_map(telemetry::Value::I64).boxed(),
        Just(telemetry::Value::I64(i64::MAX)).boxed(),
        arb_f64().prop_map(telemetry::Value::F64).boxed(),
        any::<bool>().prop_map(telemetry::Value::Bool).boxed(),
        arb_string().prop_map(telemetry::Value::Str).boxed(),
    ]
}

/// Field keys must be `&'static str`; draw from a fixed pool.
const KEY_POOL: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_record_roundtrips_byte_for_byte(
        seq in any::<u64>(),
        step in any::<u64>(),
        is_span in any::<bool>(),
        dur in prop_oneof![
            Just(None).boxed(),
            arb_f64().prop_map(Some).boxed(),
        ],
        fields in prop::collection::vec((0usize..KEY_POOL.len(), arb_value()), 0..6),
    ) {
        let rec = telemetry::EventRecord {
            seq,
            step,
            kind: if is_span { RecordKind::Span } else { RecordKind::Event },
            name: "prop.event",
            dur_s: dur,
            fields: fields
                .into_iter()
                .map(|(k, v)| (KEY_POOL[k], v))
                .collect(),
        };
        let line = rec.to_json();
        let back = telemetry::EventRecord::from_json(&line)
            .unwrap_or_else(|e| panic!("failed to parse {line}: {e}"));
        // Byte-for-byte: string equality is the identity that survives NaN
        // (NaN != NaN breaks record equality but not its serialization).
        prop_assert_eq!(back.to_json(), line);
        prop_assert_eq!(back.seq, rec.seq);
        prop_assert_eq!(back.step, rec.step);
        prop_assert_eq!(back.kind, rec.kind);
        prop_assert_eq!(back.name, rec.name);
        prop_assert_eq!(back.fields.len(), rec.fields.len());
    }

    /// The nonfinite-to-null mapping specifically: whatever float goes in,
    /// the parsed record re-serializes identically, and non-finite inputs
    /// come back as NaN (the canonical "was null" marker).
    #[test]
    fn push_json_f64_edges_roundtrip(x in arb_f64()) {
        let rec = telemetry::EventRecord {
            seq: 1,
            step: 2,
            kind: RecordKind::Span,
            name: "edge",
            dur_s: Some(x),
            fields: vec![("v", telemetry::Value::F64(x))],
        };
        let line = rec.to_json();
        let back = telemetry::EventRecord::from_json(&line).unwrap();
        prop_assert_eq!(back.to_json(), line);
        if !x.is_finite() {
            prop_assert!(matches!(back.dur_s, Some(d) if d.is_nan()));
        } else if x == 0.0 && x.is_sign_negative() {
            // Sign of zero survives: −0 prints as "-0" and must come back as
            // F64(−0.0), not the canonical integer zero (+0 prints "0" and
            // canonicalizes to U64(0) — equally byte-identical).
            let back_v = match back.field("v") {
                Some(telemetry::Value::F64(v)) => *v,
                other => panic!("expected F64, got {other:?}"),
            };
            prop_assert_eq!(back_v.to_bits(), x.to_bits());
        }
    }
}

// ---- full-run round trip + Chrome export -----------------------------------

/// Run a real telemetry-enabled tracker (with a mid-run dropout so the
/// recovery path is in the trace too) and return the sink's JSONL lines.
fn traced_run_lines(steps: usize) -> Vec<String> {
    let setup = nbody::collapsing_plummer(3000, 1.0, 42);
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
    let mut sched = FaultSchedule::new();
    sched.push(steps * 2 / 3, FaultEvent::GpuDropout { device: 1 });
    tracker.set_fault_schedule(sched);
    let mut pos = setup.bodies.pos.clone();
    for step in 0..steps {
        tracker.step(&pos).unwrap();
        if step < steps / 2 {
            for p in &mut pos {
                *p *= 0.98;
            }
        }
    }
    sink.lines()
}

#[test]
fn full_tracker_run_roundtrips_byte_for_byte() {
    let lines = traced_run_lines(25);
    assert!(
        lines.len() > 100,
        "expected a substantial trace, got {} lines",
        lines.len()
    );
    for (i, line) in lines.iter().enumerate() {
        let rec = telemetry::EventRecord::from_json(line)
            .unwrap_or_else(|e| panic!("line {i} failed to parse: {e}\n{line}"));
        assert_eq!(
            rec.to_json(),
            *line,
            "line {i} did not reserialize byte-for-byte"
        );
    }
}

/// One step of a trace recorded before PR 14 removed the `Dag` execution
/// mode: its `run.config`/`exec.policy` carry `phase_tolerance` and
/// `mode:"dag"`, the step has `sched.*` x-ray events, and `step.record` has
/// the three x-ray gauges. It also carries two `anomaly.*` events from the
/// online detector that PR 16 removed. People keep old traces; readers must
/// still take them.
const PRE_PR14_DAG_TRACE: &str = include_str!("fixtures/pre_pr14_dag_trace.jsonl");

#[test]
fn chrome_export_of_real_run_is_valid_with_all_tracks() {
    // The x-ray and anomaly events of an old trace have no track of their
    // own any more: the spans land on the solve track, the events on the
    // balancer's.
    let old: Vec<telemetry::EventRecord> = PRE_PR14_DAG_TRACE
        .lines()
        .map(|l| telemetry::EventRecord::from_json(l).unwrap())
        .collect();
    let json = ChromeTraceExporter::export(&old);
    assert!(telemetry::json::Json::parse(&json).is_ok());
    for want in [
        "sched.task",
        "sched.lane",
        "sched.critpath",
        "phase.m2l",
        "anomaly.step_time",
        "anomaly.pred_error",
    ] {
        assert!(json.contains(want), "old-trace export missing {want}");
    }
    assert!(!json.contains("\"anomalies\""), "anomaly track is gone");

    let lines = traced_run_lines(25);
    let records: Vec<telemetry::EventRecord> = lines
        .iter()
        .map(|l| telemetry::EventRecord::from_json(l).unwrap())
        .collect();
    let json = ChromeTraceExporter::export(&records);
    assert!(
        telemetry::json::Json::parse(&json).is_ok(),
        "Chrome export is not well-formed JSON"
    );
    assert!(json.contains("\"traceEvents\""));
    // Phase tracks (one per FMM phase), device tracks, balancer track.
    for want in [
        "\"p2m\"",
        "\"m2m\"",
        "\"m2l\"",
        "\"l2l\"",
        "\"l2p\"",
        "\"p2p\"",
        "\"gpu0\"",
        "\"gpu1\"",
        "\"load balancer\"",
        "lb.transition",
        "lb.recovery",
    ] {
        assert!(json.contains(want), "export missing {want}");
    }
    // Span, instant, counter, and metadata phases all present.
    for ph in [
        "\"ph\":\"X\"",
        "\"ph\":\"i\"",
        "\"ph\":\"C\"",
        "\"ph\":\"M\"",
    ] {
        assert!(json.contains(ph), "export missing {ph} events");
    }
}

#[test]
fn trace_reader_streams_file_back_identically() {
    let path =
        std::env::temp_dir().join(format!("afmm_trace_roundtrip_{}.jsonl", std::process::id()));
    // A fresh run, and old Dag-mode lines: both stream back as written.
    for lines in [
        traced_run_lines(12),
        PRE_PR14_DAG_TRACE.lines().map(String::from).collect(),
    ] {
        std::fs::write(&path, lines.join("\n")).unwrap();
        let records = telemetry::read_trace(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len(), lines.len());
        for (rec, line) in records.iter().zip(&lines) {
            assert_eq!(rec.to_json(), *line);
        }
        // Sequence numbers came back in emission order.
        assert!(records.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}

#[test]
fn interned_names_match_static_vocabulary() {
    let lines = traced_run_lines(8);
    let rec = telemetry::EventRecord::from_json(&lines[0]).unwrap();
    // Parsing the same name twice yields pointer-identical statics.
    let again = telemetry::EventRecord::from_json(&lines[0]).unwrap();
    assert!(std::ptr::eq(rec.name, again.name));
    assert_eq!(intern(rec.name), rec.name);
}
