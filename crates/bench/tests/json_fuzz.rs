//! Hostile input against every reader that sits on the shared
//! `telemetry::json` parser: seeded mutations of one valid artifact of each
//! kind, and pathologically deep nesting, all on a 256 KB stack. A reader
//! may refuse the text, or accept it and produce a value that writes back
//! to text it accepts again — it may never panic or overflow the stack.

use std::path::PathBuf;
use std::process::Command;

use afmm::checkpoint::{engine_from_json, engine_to_json, tracker_from_json, tracker_to_json};
use afmm::{
    FaultEvent, FaultSchedule, FmmEngine, FmmParams, HeteroNode, LbConfig, Strategy,
    StrategyTracker,
};
use bench::harness::{BenchReport, Metric, Scenario};
use fmm_math::GravityKernel;
use rand::prelude::*;
use telemetry::json::{obj, Json};
use telemetry::{EventRecord, RecordKind, Value};

const CASES: usize = 2000;
const SMALL_STACK: usize = 256 * 1024;

fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(SMALL_STACK)
        .spawn(f)
        .unwrap()
        .join()
        .expect("reader panicked on hostile input");
}

/// Uniform index below `n` (0 when `n` is 0: a mutation may empty the text).
fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.random_range(0..n.max(1))
}

/// One to three edits — byte flip, truncation, insertion, span duplication —
/// with inserted bytes biased toward the characters the grammar cares about.
fn mutate(valid: &str, rng: &mut StdRng) -> String {
    const SPICE: &[u8] = b"[]{}\",:\\-+.eE0919tfnu \n\x00\x1f\x7f\x80\xc3\xed\xf0";
    let mut bytes = valid.as_bytes().to_vec();
    for _ in 0..1 + below(rng, 3) {
        let at = below(rng, bytes.len());
        match below(rng, 4) {
            0 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= 1 << below(rng, 8);
                }
            }
            1 => bytes.truncate(at),
            2 => bytes.insert(at, SPICE[below(rng, SPICE.len())]),
            _ => {
                let end = (at + 1 + below(rng, 64)).min(bytes.len());
                let span = bytes[at..end].to_vec();
                bytes.splice(at..at, span);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Recompute a checkpoint envelope's checksum over whatever now sits in the
/// payload span, so mutations reach the typed readers behind it.
fn reseal(text: &str) -> Option<String> {
    let body = text.strip_suffix('}')?;
    let (head, payload) = body.split_once("\"payload\":")?;
    let at = head.find("\"checksum\":\"")? + "\"checksum\":\"".len();
    head.get(at..at + 16)?;
    let mut out = text.to_string();
    out.replace_range(
        at..at + 16,
        &format!("{:016x}", fnv1a64(payload.as_bytes())),
    );
    Some(out)
}

/// Drive `CASES` mutations of `valid` through `read`; an accepted value is
/// written back with `write` and must be accepted again.
fn fuzz<T>(
    name: &str,
    seed: u64,
    valid: &str,
    sealed: bool,
    read: impl Fn(&str) -> Option<T>,
    write: impl Fn(&T) -> String,
) {
    let first = read(valid).unwrap_or_else(|| panic!("{name}: the valid artifact is refused"));
    assert_eq!(write(&first), valid, "{name}: fixture is not canonical");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut accepted = 0;
    for case in 0..CASES {
        let mut text = mutate(valid, &mut rng);
        if sealed && case % 2 == 0 {
            text = reseal(&text).unwrap_or(text);
        }
        if let Some(v) = read(&text) {
            accepted += 1;
            let again = write(&v);
            assert!(
                read(&again).is_some(),
                "{name} case {case}: accepted {text:?} but refuses its own rewrite {again:?}"
            );
        }
    }
    // The mutator is not so violent that only the refusal path runs.
    assert!(accepted > 0, "{name}: no mutation was accepted");
}

fn small_bodies(n: usize, seed: u64) -> Vec<geom::Vec3> {
    nbody::plummer(n, 1.0, 1.0, seed).pos
}

fn engine_text() -> String {
    let pos = small_bodies(160, 41);
    let mut e = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, 24);
    e.refresh_lists();
    engine_to_json(&e.checkpoint_state())
}

fn tracker_text() -> String {
    let pos = small_bodies(160, 42);
    let mut t = StrategyTracker::new(
        GravityKernel::default(),
        FmmParams::default(),
        HeteroNode::system_a(4, 2),
        Strategy::Full,
        LbConfig::default(),
        &pos,
        None,
    );
    t.set_fault_schedule(
        FaultSchedule::new()
            .with(
                4,
                FaultEvent::GpuSlowdown {
                    device: 0,
                    factor: 2.0,
                },
            )
            .with(6, FaultEvent::GpuDropout { device: 1 })
            .with(9, FaultEvent::GpuRecover { device: 1 }),
    );
    for _ in 0..3 {
        t.step(&pos).unwrap();
    }
    t.checkpoint(&pos)
}

fn report() -> BenchReport {
    BenchReport {
        host: obj(vec![
            ("os", Json::Str("linux".into())),
            ("cpus", Json::U64(16)),
        ]),
        commit: "c0ffee".into(),
        config: obj(vec![("mode", Json::Str("quick".into()))]),
        scenarios: vec![Scenario {
            name: "solve_step".into(),
            params: obj(vec![
                ("n", Json::U64(4096)),
                ("note", Json::Str("a\"b".into())),
            ]),
            metrics: vec![
                Metric::wall("wall_s", "s", vec![1.0, 1.02, 0.98, 1.01], 9),
                Metric::virtual_point("virtual_s", "s", 0.25),
            ],
            snapshot: obj(vec![(
                "cost_model",
                obj(vec![
                    ("c_m2l", Json::F64(2.5e-9)),
                    ("observed", Json::Bool(true)),
                ]),
            )]),
        }],
    }
}

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("afmm-json-fuzz-{tag}-{}", std::process::id()))
}

#[test]
fn mutated_artifacts_never_panic_and_rewrite_to_readable_text() {
    let engine = engine_text();
    let tracker = tracker_text();
    let report_text = report().to_json();
    let trace_line = EventRecord {
        seq: 7,
        step: 3,
        kind: RecordKind::Span,
        name: "phase.m2l",
        dur_s: Some(0.5),
        fields: vec![
            ("ops", Value::U64(42)),
            ("drift", Value::I64(-3)),
            ("eff", Value::F64(0.75)),
            ("ok", Value::Bool(true)),
            ("cause", Value::Str("s\"x\\é😀".into())),
        ],
    }
    .to_json();

    on_small_stack(move || {
        fuzz(
            "engine checkpoint",
            1,
            &engine,
            true,
            |t| engine_from_json(t).ok(),
            engine_to_json,
        );
        fuzz(
            "tracker checkpoint",
            2,
            &tracker,
            true,
            |t| tracker_from_json(t).ok(),
            tracker_to_json,
        );
        fuzz(
            "trace line",
            3,
            &trace_line,
            false,
            |t| EventRecord::from_json(t).ok(),
            EventRecord::to_json,
        );
        fuzz(
            "bench report",
            4,
            &report_text,
            false,
            |t| BenchReport::from_json(t).ok(),
            BenchReport::to_json,
        );
    });
}

#[test]
fn hostile_nesting_is_refused_by_every_reader() {
    on_small_stack(|| {
        for open in ["[", "{\"a\":", "[{\"scenarios\":"] {
            let deep = open.repeat(300_000);
            assert!(engine_from_json(&deep).is_err());
            assert!(tracker_from_json(&deep).is_err());
            assert!(BenchReport::from_json(&deep).is_err());
            assert!(EventRecord::from_json(&deep).is_err());
            assert!(telemetry::parse_flat_json(&deep).is_err());
        }
    });
}

#[test]
fn afmm_perf_compare_exits_2_on_a_hostile_report() {
    let deep = temp_file("deep.json");
    std::fs::write(&deep, "[".repeat(300_000)).unwrap();
    let good = temp_file("good.json");
    std::fs::write(&good, report().to_json()).unwrap();
    for (old, new) in [(&deep, &good), (&good, &deep)] {
        let out = Command::new(env!("CARGO_BIN_EXE_afmm-perf"))
            .arg("compare")
            .args([old, new])
            .output()
            .expect("spawn afmm-perf");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&deep);
    let _ = std::fs::remove_file(&good);
}
