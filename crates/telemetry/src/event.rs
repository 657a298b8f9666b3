//! Structured records: the [`Value`] field type, [`EventRecord`] payloads,
//! and the hand-rolled JSON encoder shared by the trace and metric sinks.
//!
//! The workspace deliberately carries no serde dependency, so records encode
//! themselves; the only subtlety is that non-finite floats become `null`
//! (JSON has no NaN/Inf) and strings are escaped per RFC 8259.

use std::fmt::Write as _;

/// A dynamically typed field value attached to an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I64(i64::from(v))
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// What kind of record this is. Spans carry a duration; events are points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    Span,
    Event,
}

impl RecordKind {
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::Span => "span",
            RecordKind::Event => "event",
        }
    }
}

/// One trace record: a point event or a completed span.
///
/// `seq` is a monotone sequence number assigned by the recorder; `step` is
/// the logical simulation step active when the record was emitted (set via
/// `Recorder::set_step`), so offline analysis can align traces with
/// `StepRecord` histories without wall clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    pub seq: u64,
    pub step: u64,
    pub kind: RecordKind,
    pub name: &'static str,
    /// Span duration in seconds; `None` for point events.
    pub dur_s: Option<f64>,
    pub fields: Vec<(&'static str, Value)>,
}

impl EventRecord {
    /// Fetch a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| *k == name).map(|(_, v)| v)
    }

    /// Fetch a numeric field as `f64` (accepts `F64`, `U64`, and `I64` —
    /// JSON does not distinguish, so readers should not either).
    pub fn field_f64(&self, name: &str) -> Option<f64> {
        match self.field(name)? {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Fetch a non-negative integer field as `u64`.
    pub fn field_u64(&self, name: &str) -> Option<u64> {
        match self.field(name)? {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Fetch a string field.
    pub fn field_str(&self, name: &str) -> Option<&str> {
        match self.field(name)? {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Fetch a boolean field.
    pub fn field_bool(&self, name: &str) -> Option<bool> {
        match self.field(name)? {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Structural heap footprint of this record: the fields vector's
    /// capacity plus any owned string payloads. Excludes `size_of::<Self>()`
    /// itself — the container holding the record accounts for that.
    pub fn heap_bytes(&self) -> usize {
        let strings: usize = self
            .fields
            .iter()
            .map(|(_, v)| match v {
                Value::Str(s) => s.capacity(),
                _ => 0,
            })
            .sum();
        self.fields.capacity() * std::mem::size_of::<(&'static str, Value)>() + strings
    }

    /// Encode as a single JSON object (one JSONL line, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push('{');
        let _ = write!(
            out,
            "\"seq\":{},\"step\":{},\"kind\":\"{}\",\"name\":",
            self.seq,
            self.step,
            self.kind.as_str(),
        );
        push_json_str(&mut out, self.name);
        if let Some(d) = self.dur_s {
            out.push_str(",\"dur_s\":");
            push_json_f64(&mut out, d);
        }
        for (k, v) in &self.fields {
            // A payload field named like an envelope key would produce a
            // duplicate JSON key and break the reader; prefix it instead of
            // silently emitting an unreadable line.
            out.push(',');
            if matches!(*k, "seq" | "step" | "kind" | "name" | "dur_s") {
                push_json_str(&mut out, &format!("field_{k}"));
            } else {
                push_json_str(&mut out, k);
            }
            out.push(':');
            push_json_value(&mut out, v);
        }
        out.push('}');
        out
    }
}

/// Append `v` as JSON, mapping non-finite floats to `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

pub(crate) fn push_json_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => push_json_f64(out, *x),
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(s) => push_json_str(out, s),
    }
}

/// Append `s` as a JSON string literal with RFC 8259 escaping.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_shape() {
        let rec = EventRecord {
            seq: 7,
            step: 3,
            kind: RecordKind::Span,
            name: "phase.m2l",
            dur_s: Some(0.5),
            fields: vec![
                ("ops", Value::U64(42)),
                ("cause", Value::Str("s\"x".into())),
            ],
        };
        let j = rec.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"seq\":7"));
        assert!(j.contains("\"dur_s\":0.5"));
        assert!(j.contains("\"cause\":\"s\\\"x\""));
    }

    #[test]
    fn nonfinite_floats_become_null() {
        let rec = EventRecord {
            seq: 0,
            step: 0,
            kind: RecordKind::Event,
            name: "x",
            dur_s: Some(f64::NAN),
            fields: vec![("v", Value::F64(f64::INFINITY))],
        };
        let j = rec.to_json();
        assert!(j.contains("\"dur_s\":null"));
        assert!(j.contains("\"v\":null"));
    }

    #[test]
    fn field_lookup() {
        let rec = EventRecord {
            seq: 0,
            step: 0,
            kind: RecordKind::Event,
            name: "x",
            dur_s: None,
            fields: vec![("a", Value::Bool(true))],
        };
        assert_eq!(rec.field("a"), Some(&Value::Bool(true)));
        assert_eq!(rec.field("b"), None);
    }
}
