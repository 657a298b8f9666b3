//! The read side of the trace pipeline: parse JSONL emitted by
//! [`EventRecord::to_json`] back into typed records ([`EventRecord::from_json`],
//! [`TraceReader`]) and export a parsed trace as Chrome `trace_event` JSON
//! ([`ChromeTraceExporter`]) loadable in Perfetto / `chrome://tracing`.
//!
//! Round-trip contract: for any record `r`, `from_json(r.to_json())` succeeds
//! and re-serializes to the *identical byte string*. Two conventions make
//! this exact rather than approximate:
//!
//! * **Non-finite floats.** `to_json` maps NaN/±Inf to `null`; `from_json`
//!   maps `null` back to `Value::F64(NAN)` (and a `null` `dur_s` to
//!   `Some(NAN)`), which re-serializes to `null` — the byte round-trip holds
//!   even though NaN cannot compare equal to itself.
//! * **Number typing.** JSON does not distinguish `U64(2)` from `F64(2.0)`
//!   (both print `2`); the shared parser ([`crate::json`]) types numbers by
//!   syntax, and either reading re-serializes byte-identically because the
//!   encoder is deterministic.
//!
//! Parsed names and field keys are interned into a process-wide pool (the
//! schema's vocabulary is finite, so the pool is bounded) to satisfy
//! [`EventRecord`]'s `&'static str` fields without cloning per record.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use crate::event::{push_json_f64, push_json_str, push_json_value, EventRecord, RecordKind, Value};
use crate::json::Json;

/// Failure while reading a trace: I/O, or a malformed line (1-based).
#[derive(Debug)]
pub enum TraceError {
    Io(std::io::Error),
    Parse { line: usize, msg: String },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, msg } => write!(f, "trace line {line}: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Intern a name/key into the process-wide pool, leaking each *distinct*
/// string once. The event vocabulary is a fixed schema, so the pool stays
/// bounded in any legitimate trace.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().unwrap();
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---- records and flat objects over the shared parser ---------------------

/// Parse `line` as one JSON object and hand back its fields.
fn object_fields(line: &str) -> Result<Vec<(String, Json)>, String> {
    match Json::parse(line).map_err(|e| e.to_string())? {
        Json::Obj(fields) => Ok(fields),
        _ => Err("expected a JSON object".into()),
    }
}

/// A field value of the flat schemas: scalars only.
fn scalar(v: Json) -> Result<Value, String> {
    Ok(match v {
        Json::U64(x) => Value::U64(x),
        Json::I64(x) => Value::I64(x),
        Json::F64(x) => Value::F64(x),
        Json::Bool(x) => Value::Bool(x),
        Json::Str(x) => Value::Str(x),
        // `null` is how the encoder spells a non-finite float; NaN
        // re-serializes to `null`.
        Json::Null => Value::F64(f64::NAN),
        Json::Arr(_) | Json::Obj(_) => {
            return Err("nested values are not part of the trace schema".into())
        }
    })
}

impl EventRecord {
    /// Parse one JSONL line produced by [`EventRecord::to_json`].
    ///
    /// Accepts any key order but requires the four header keys
    /// (`seq`/`step`/`kind`/`name`); re-serialization is canonical, so a
    /// line straight from `to_json` round-trips byte-for-byte.
    pub fn from_json(line: &str) -> Result<EventRecord, String> {
        let mut seq = None;
        let mut step = None;
        let mut kind = None;
        let mut name = None;
        let mut dur_s = None;
        let mut fields: Vec<(&'static str, Value)> = Vec::new();
        for (key, v) in object_fields(line)? {
            let header_u64 = || {
                v.as_u64()
                    .ok_or_else(|| format!("\"{key}\" must be an unsigned integer"))
            };
            match key.as_str() {
                "seq" => seq = Some(header_u64()?),
                "step" => step = Some(header_u64()?),
                "kind" => match v.as_str() {
                    Some("span") => kind = Some(RecordKind::Span),
                    Some("event") => kind = Some(RecordKind::Event),
                    Some(s) => return Err(format!("unknown kind \"{s}\"")),
                    None => return Err("\"kind\" must be a string".into()),
                },
                "name" => match v.as_str() {
                    Some(s) => name = Some(intern(s)),
                    None => return Err("\"name\" must be a string".into()),
                },
                "dur_s" => match v {
                    Json::Null => dur_s = Some(f64::NAN),
                    _ => dur_s = Some(v.as_f64().ok_or("expected a number or null")?),
                },
                _ => fields.push((intern(&key), scalar(v)?)),
            }
        }
        Ok(EventRecord {
            seq: seq.ok_or("missing \"seq\"")?,
            step: step.ok_or("missing \"step\"")?,
            kind: kind.ok_or("missing \"kind\"")?,
            name: name.ok_or("missing \"name\"")?,
            dur_s,
            fields,
        })
    }
}

/// Parse one *flat* JSON object (string/number/bool/null values only) into
/// its key/value pairs, preserving order.
///
/// This is the shared reader for flat JSONL artifacts that are not event
/// records — the repo benchmark's result lines — so they accept exactly the
/// grammar the canonical encoders emit.
/// Unknown keys are the caller's business (they are returned, not rejected),
/// which is what makes the artifacts forward-compatible: a newer writer can
/// add fields without breaking an older reader. Nested objects/arrays are
/// rejected like in the trace schema.
pub fn parse_flat_json(line: &str) -> Result<Vec<(String, Value)>, String> {
    object_fields(line)?
        .into_iter()
        .map(|(k, v)| Ok((k, scalar(v)?)))
        .collect()
}

/// Fetch a numeric field from [`parse_flat_json`] output as `f64`.
pub fn flat_f64(fields: &[(String, Value)], key: &str) -> Option<f64> {
    match fields.iter().find(|(k, _)| k == key)?.1 {
        Value::F64(v) => Some(v),
        Value::U64(v) => Some(v as f64),
        Value::I64(v) => Some(v as f64),
        _ => None,
    }
}

/// Fetch a non-negative integer field from [`parse_flat_json`] output.
pub fn flat_u64(fields: &[(String, Value)], key: &str) -> Option<u64> {
    match fields.iter().find(|(k, _)| k == key)?.1 {
        Value::U64(v) => Some(v),
        Value::I64(v) if v >= 0 => Some(v as u64),
        _ => None,
    }
}

/// Fetch a string field from [`parse_flat_json`] output.
pub fn flat_str<'a>(fields: &'a [(String, Value)], key: &str) -> Option<&'a str> {
    match &fields.iter().find(|(k, _)| k == key)?.1 {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

// ---- streaming reader ----------------------------------------------------

/// Streams a JSONL trace file back into typed [`EventRecord`]s, skipping
/// blank lines and reporting parse failures with their line number.
pub struct TraceReader<R: BufRead = BufReader<File>> {
    lines: std::io::Lines<R>,
    line_no: usize,
}

impl TraceReader<BufReader<File>> {
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::from_reader(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> TraceReader<R> {
    pub fn from_reader(reader: R) -> Self {
        TraceReader {
            lines: reader.lines(),
            line_no: 0,
        }
    }

    /// Read the whole stream, failing on the first bad line.
    pub fn read_all(self) -> Result<Vec<EventRecord>, TraceError> {
        self.collect()
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<EventRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            self.line_no += 1;
            match self.lines.next()? {
                Err(e) => return Some(Err(TraceError::Io(e))),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    return Some(
                        EventRecord::from_json(&line).map_err(|msg| TraceError::Parse {
                            line: self.line_no,
                            msg,
                        }),
                    )
                }
            }
        }
    }
}

/// Parse a whole trace file into memory.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Vec<EventRecord>, TraceError> {
    TraceReader::open(path)?.read_all()
}

// ---- Chrome trace_event export -------------------------------------------

/// Process/track ids of the exported timeline.
const PID_PHASES: u32 = 1;
const PID_GPU: u32 = 2;
const PID_LB: u32 = 3;

/// (tid, label) per far-field/near-field phase, in pipeline order.
const PHASE_TRACKS: [(&str, u32); 6] = [
    ("phase.p2m", 1),
    ("phase.m2m", 2),
    ("phase.m2l", 3),
    ("phase.l2l", 4),
    ("phase.l2p", 5),
    ("phase.p2p", 6),
];
const TID_SOLVE: u32 = 7;
const TID_LB_EVENTS: u32 = 1;

/// Exports a parsed trace as Chrome `trace_event` JSON (the "JSON Array
/// Format" object flavor: `{"traceEvents": [...]}`), with
///
/// * one track per FMM phase (P2M/M2M/M2L/L2L/L2P/P2P) plus a solve track,
/// * one track per GPU device (from per-launch `gpu.util` events),
/// * instant events for the balancer flight record (`lb.*` and any other
///   unclaimed event name) and an `S` counter track.
///
/// Records carry a logical `step` clock rather than wall time, so the
/// exporter synthesizes a timeline: each step occupies a slot wide enough
/// for its longest track (far-field phases laid out sequentially, P2P and
/// the per-device kernels in parallel), and instants land at their step's
/// start. Durations are exported in microseconds.
pub struct ChromeTraceExporter {
    events: Vec<String>,
}

impl Default for ChromeTraceExporter {
    fn default() -> Self {
        Self::new()
    }
}

impl ChromeTraceExporter {
    pub fn new() -> Self {
        ChromeTraceExporter { events: Vec::new() }
    }

    /// One-shot convenience: build the full export for `records`.
    pub fn export(records: &[EventRecord]) -> String {
        let mut ex = Self::new();
        ex.add_records(records);
        ex.finish()
    }

    /// Append all of `records` to the timeline.
    pub fn add_records(&mut self, records: &[EventRecord]) {
        self.emit_metadata(records);
        // Group by logical step, preserving seq order within each.
        let mut by_step: BTreeMap<u64, Vec<&EventRecord>> = BTreeMap::new();
        for r in records {
            by_step.entry(r.step).or_default().push(r);
        }
        let mut base_us = 0.0f64;
        for (_step, recs) in by_step {
            let mut farfield_cursor = 0.0f64; // sequential P2M..L2P chain
            let mut solve_cursor = 0.0f64;
            let mut width = 1.0f64; // a step is never zero-width
            for r in recs {
                let dur_us = r.dur_s.unwrap_or(0.0).max(0.0) * 1e6;
                match r.kind {
                    RecordKind::Span => {
                        if let Some(&(_, tid)) = PHASE_TRACKS.iter().find(|(n, _)| *n == r.name) {
                            if r.name == "phase.p2p" {
                                // Near field runs concurrently with the
                                // far-field chain, from the step's start.
                                self.push_span(r, PID_PHASES, tid, base_us, dur_us);
                                width = width.max(dur_us);
                            } else {
                                self.push_span(
                                    r,
                                    PID_PHASES,
                                    tid,
                                    base_us + farfield_cursor,
                                    dur_us,
                                );
                                farfield_cursor += dur_us;
                            }
                        } else {
                            self.push_span(
                                r,
                                PID_PHASES,
                                TID_SOLVE,
                                base_us + solve_cursor,
                                dur_us,
                            );
                            solve_cursor += dur_us;
                        }
                    }
                    RecordKind::Event => {
                        if r.name == "gpu.util" {
                            let device = match r.field("device") {
                                Some(Value::U64(d)) => *d as u32,
                                _ => 0,
                            };
                            let dur = match r.field("elapsed_s") {
                                Some(Value::F64(s)) if s.is_finite() && *s > 0.0 => s * 1e6,
                                _ => 0.0,
                            };
                            self.push_gpu_span(r, device, base_us, dur);
                            width = width.max(dur);
                        } else if r.name == "step.record" {
                            self.push_counter(r, base_us);
                        } else {
                            self.push_instant(r, PID_LB, TID_LB_EVENTS, base_us);
                        }
                    }
                }
            }
            width = width.max(farfield_cursor).max(solve_cursor);
            base_us += width;
        }
    }

    /// Finish the export: the `{"traceEvents": [...]}` document.
    pub fn finish(self) -> String {
        let mut out =
            String::with_capacity(64 + self.events.iter().map(String::len).sum::<usize>());
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    fn emit_metadata(&mut self, records: &[EventRecord]) {
        self.push_meta_process(PID_PHASES, "fmm phases");
        for (name, tid) in PHASE_TRACKS {
            self.push_meta_thread(PID_PHASES, tid, name.trim_start_matches("phase."));
        }
        self.push_meta_thread(PID_PHASES, TID_SOLVE, "solve");
        self.push_meta_process(PID_LB, "load balancer");
        self.push_meta_thread(PID_LB, TID_LB_EVENTS, "flight record");
        let mut devices: Vec<u64> = records
            .iter()
            .filter(|r| r.name == "gpu.util")
            .filter_map(|r| match r.field("device") {
                Some(Value::U64(d)) => Some(*d),
                _ => None,
            })
            .collect();
        devices.sort_unstable();
        devices.dedup();
        if !devices.is_empty() {
            self.push_meta_process(PID_GPU, "gpu devices");
            for d in devices {
                self.push_meta_thread(PID_GPU, d as u32 + 1, &format!("gpu{d}"));
            }
        }
    }

    fn push_meta_process(&mut self, pid: u32, name: &str) {
        let mut e =
            format!("{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":");
        push_json_str(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    fn push_meta_thread(&mut self, pid: u32, tid: u32, name: &str) {
        let mut e = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":"
        );
        push_json_str(&mut e, name);
        e.push_str("}}");
        self.events.push(e);
    }

    fn push_span(&mut self, r: &EventRecord, pid: u32, tid: u32, ts_us: f64, dur_us: f64) {
        let mut e = String::with_capacity(128);
        e.push_str("{\"name\":");
        push_json_str(&mut e, r.name);
        e.push_str(&format!(
            ",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":"
        ));
        push_json_f64(&mut e, ts_us);
        e.push_str(",\"dur\":");
        push_json_f64(&mut e, dur_us.max(0.001));
        e.push_str(",\"args\":");
        push_args(&mut e, r);
        e.push('}');
        self.events.push(e);
    }

    fn push_gpu_span(&mut self, r: &EventRecord, device: u32, ts_us: f64, dur_us: f64) {
        let mut e = String::with_capacity(128);
        e.push_str(&format!(
            "{{\"name\":\"gpu{device} p2p\",\"ph\":\"X\",\"pid\":{PID_GPU},\"tid\":{},\"ts\":",
            device + 1
        ));
        push_json_f64(&mut e, ts_us);
        e.push_str(",\"dur\":");
        push_json_f64(&mut e, dur_us.max(0.001));
        e.push_str(",\"args\":");
        push_args(&mut e, r);
        e.push('}');
        self.events.push(e);
    }

    fn push_instant(&mut self, r: &EventRecord, pid: u32, tid: u32, ts_us: f64) {
        let mut e = String::with_capacity(128);
        e.push_str("{\"name\":");
        push_json_str(&mut e, r.name);
        e.push_str(&format!(
            ",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":{tid},\"ts\":"
        ));
        push_json_f64(&mut e, ts_us);
        e.push_str(",\"args\":");
        push_args(&mut e, r);
        e.push('}');
        self.events.push(e);
    }

    /// The balancer's S trajectory as a Chrome counter track.
    fn push_counter(&mut self, r: &EventRecord, ts_us: f64) {
        let Some(Value::U64(s)) = r.field("s") else {
            return;
        };
        let mut e = format!("{{\"name\":\"S\",\"ph\":\"C\",\"pid\":{PID_LB},\"ts\":");
        push_json_f64(&mut e, ts_us);
        e.push_str(&format!(",\"args\":{{\"s\":{s}}}}}"));
        self.events.push(e);
    }
}

/// Serialize a record's fields (plus its seq/step) as the `args` object.
fn push_args(out: &mut String, r: &EventRecord) {
    out.push_str(&format!("{{\"seq\":{},\"step\":{}", r.seq, r.step));
    for (k, v) in &r.fields {
        out.push(',');
        push_json_str(out, k);
        out.push(':');
        push_json_value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(fields: Vec<(&'static str, Value)>) -> EventRecord {
        EventRecord {
            seq: 42,
            step: 7,
            kind: RecordKind::Event,
            name: "lb.transition",
            dur_s: None,
            fields,
        }
    }

    #[test]
    fn roundtrip_basic() {
        let r = rec(vec![
            ("from", Value::Str("search".into())),
            ("s", Value::U64(220)),
            ("neg", Value::I64(-3)),
            ("frac", Value::F64(0.125)),
            ("flag", Value::Bool(true)),
        ]);
        let line = r.to_json();
        let back = EventRecord::from_json(&line).unwrap();
        assert_eq!(back.to_json(), line);
        assert_eq!(back, r);
    }

    #[test]
    fn roundtrip_span_duration() {
        let mut r = rec(vec![("ops", Value::U64(4096))]);
        r.kind = RecordKind::Span;
        r.dur_s = Some(0.0123);
        let line = r.to_json();
        let back = EventRecord::from_json(&line).unwrap();
        assert_eq!(back.dur_s, Some(0.0123));
        assert_eq!(back.to_json(), line);
    }

    #[test]
    fn roundtrip_nonfinite_and_negative_zero() {
        let mut r = rec(vec![
            ("nan", Value::F64(f64::NAN)),
            ("inf", Value::F64(f64::INFINITY)),
            ("nz", Value::F64(-0.0)),
        ]);
        r.dur_s = Some(f64::NEG_INFINITY);
        r.kind = RecordKind::Span;
        let line = r.to_json();
        assert!(line.contains("\"nan\":null"));
        assert!(line.contains("\"nz\":-0"));
        let back = EventRecord::from_json(&line).unwrap();
        // Byte-for-byte round trip even though NaN != NaN.
        assert_eq!(back.to_json(), line);
        assert!(matches!(back.field("nz"), Some(Value::F64(z)) if z.is_sign_negative()));
        assert!(matches!(back.dur_s, Some(d) if d.is_nan()));
    }

    #[test]
    fn roundtrip_extreme_integers_and_floats() {
        let r = rec(vec![
            ("umax", Value::U64(u64::MAX)),
            ("imin", Value::I64(i64::MIN)),
            ("big", Value::F64(1e300)),
            ("tiny", Value::F64(5e-324)),
        ]);
        let line = r.to_json();
        let back = EventRecord::from_json(&line).unwrap();
        assert_eq!(back.to_json(), line);
        assert_eq!(back.field("umax"), Some(&Value::U64(u64::MAX)));
        assert_eq!(back.field("imin"), Some(&Value::I64(i64::MIN)));
    }

    #[test]
    fn roundtrip_string_escapes() {
        let mut r = rec(vec![
            (
                "cause",
                Value::Str("a\"b\\c\nd\te\u{1}f — ünïcode 🚀".into()),
            ),
            ("k\"e\\y", Value::U64(1)),
        ]);
        r.name = "odd \"name\"\\";
        let line = r.to_json();
        let back = EventRecord::from_json(&line).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), line);
        // Names and keys reach the Chrome export escaped too.
        assert!(Json::parse(&ChromeTraceExporter::export(&[back])).is_ok());
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "not json",
            "{\"seq\":1,\"step\":0,\"kind\":\"span\",\"name\":\"x\"} trailing",
            "{\"seq\":1,\"step\":0,\"kind\":\"what\",\"name\":\"x\"}",
            "{\"seq\":-1,\"step\":0,\"kind\":\"event\",\"name\":\"x\"}",
            "{\"seq\":1,\"step\":0,\"kind\":\"event\",\"name\":\"x\",\"v\":[1]}",
        ] {
            assert!(EventRecord::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn reader_streams_and_reports_line_numbers() {
        let good = rec(vec![]).to_json();
        let data = format!("{good}\n\n{good}\nBROKEN\n");
        let mut reader = TraceReader::from_reader(std::io::Cursor::new(data));
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().unwrap().is_ok());
        match reader.next().unwrap() {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("some.event");
        let b = intern("some.event");
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn chrome_export_has_tracks_and_valid_json() {
        let mut records = Vec::new();
        let mut seq = 0u64;
        for step in 0..3u64 {
            for (name, _) in PHASE_TRACKS {
                records.push(EventRecord {
                    seq,
                    step,
                    kind: RecordKind::Span,
                    name: intern(name),
                    dur_s: Some(0.001 * (step + 1) as f64),
                    fields: vec![("ops", Value::U64(100))],
                });
                seq += 1;
            }
            for device in 0..2u64 {
                records.push(EventRecord {
                    seq,
                    step,
                    kind: RecordKind::Event,
                    name: "gpu.util",
                    dur_s: None,
                    fields: vec![
                        ("device", Value::U64(device)),
                        ("elapsed_s", Value::F64(0.0005)),
                        ("util", Value::F64(0.9)),
                    ],
                });
                seq += 1;
            }
            records.push(EventRecord {
                seq,
                step,
                kind: RecordKind::Event,
                name: "step.record",
                dur_s: None,
                fields: vec![("s", Value::U64(128))],
            });
            seq += 1;
        }
        records.push(EventRecord {
            seq,
            step: 1,
            kind: RecordKind::Event,
            name: "lb.transition",
            dur_s: None,
            fields: vec![("from", Value::Str("search".into()))],
        });
        let json = ChromeTraceExporter::export(&records);
        assert!(Json::parse(&json).is_ok(), "export is not valid JSON");
        assert!(json.contains("\"traceEvents\""));
        for want in [
            "\"m2l\"",
            "\"gpu0\"",
            "\"gpu1\"",
            "\"load balancer\"",
            "\"ph\":\"X\"",
            "\"ph\":\"i\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
        ] {
            assert!(json.contains(want), "missing {want} in export");
        }
    }
}
