//! The [`Recorder`]: a cheaply clonable handle to a shared trace buffer
//! and optional write-through sink.
//!
//! A disabled recorder (`Recorder::disabled()`, also `Default`) holds no
//! allocation at all — every method is a branch on `Option::None` — so
//! instrumented code can keep a recorder field unconditionally and pay
//! nothing when observability is off.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{EventRecord, RecordKind, Value};

/// Default ring-buffer capacity (records); oldest records drop first.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Destination for completed records, written as one JSON line each.
pub trait Sink: Send {
    fn write_line(&mut self, line: &str);
    fn flush(&mut self) {}
}

/// Appends JSONL to a file through a buffered writer.
pub struct JsonlSink {
    w: BufWriter<File>,
}

impl JsonlSink {
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(JsonlSink {
            w: BufWriter::new(File::create(path)?),
        })
    }
}

impl Sink for JsonlSink {
    fn write_line(&mut self, line: &str) {
        let _ = self.w.write_all(line.as_bytes());
        let _ = self.w.write_all(b"\n");
    }
    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

impl Drop for JsonlSink {
    /// Belt-and-braces flush: `BufWriter` flushes on drop too, but only
    /// best-effort inside its own `Drop`; doing it here keeps the guarantee
    /// local and covers sinks extracted from their recorder.
    fn drop(&mut self) {
        let _ = self.w.flush();
    }
}

/// Collects JSONL lines in memory; keep a clone to read them back later.
#[derive(Clone, Default)]
pub struct VecSink {
    lines: Arc<Mutex<Vec<String>>>,
}

impl VecSink {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn lines(&self) -> Vec<String> {
        self.lines.lock().unwrap().clone()
    }
}

impl Sink for VecSink {
    fn write_line(&mut self, line: &str) {
        self.lines.lock().unwrap().push(line.to_owned());
    }
}

struct Inner {
    seq: AtomicU64,
    step: AtomicU64,
    capacity: usize,
    events: Mutex<VecDeque<EventRecord>>,
    sink: Mutex<Option<Box<dyn Sink>>>,
}

impl Drop for Inner {
    /// Flush-on-drop: when the last `Recorder` clone goes away, any lines
    /// still buffered in the sink reach their destination — a forgotten
    /// `rec.flush()` must not truncate the JSONL trace.
    fn drop(&mut self) {
        if let Ok(sink) = self.sink.get_mut() {
            if let Some(sink) = sink.as_mut() {
                sink.flush();
            }
        }
    }
}

/// Handle to the telemetry pipeline. Clones share one buffer and sink.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Recorder(disabled)"),
            Some(i) => f
                .debug_struct("Recorder")
                .field("capacity", &i.capacity)
                .field("seq", &i.seq.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl Recorder {
    /// The zero-cost no-op recorder.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled recorder keeping at most `capacity` records in memory.
    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                seq: AtomicU64::new(0),
                step: AtomicU64::new(0),
                capacity: capacity.max(1),
                events: Mutex::new(VecDeque::new()),
                sink: Mutex::new(None),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Install (or replace) the write-through sink.
    pub fn set_sink(&self, sink: impl Sink + 'static) {
        if let Some(i) = &self.inner {
            *i.sink.lock().unwrap() = Some(Box::new(sink));
        }
    }

    /// Set the logical step stamped onto subsequently emitted records.
    pub fn set_step(&self, step: u64) {
        if let Some(i) = &self.inner {
            i.step.store(step, Ordering::Relaxed);
        }
    }

    pub fn step(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.step.load(Ordering::Relaxed))
    }

    fn push(
        &self,
        kind: RecordKind,
        name: &'static str,
        dur_s: Option<f64>,
        fields: Vec<(&'static str, Value)>,
    ) {
        let Some(i) = &self.inner else { return };
        // Attribute the recorder's own allocations (JSON encode, ring
        // growth) to the "telemetry" scope so they never pollute whatever
        // scope the instrumented caller is in (see `memprof`).
        let _mem = crate::memprof::AllocScope::enter("telemetry");
        let rec = EventRecord {
            seq: i.seq.fetch_add(1, Ordering::Relaxed),
            step: i.step.load(Ordering::Relaxed),
            kind,
            name,
            dur_s,
            fields,
        };
        if let Some(sink) = i.sink.lock().unwrap().as_mut() {
            sink.write_line(&rec.to_json());
        }
        let mut ev = i.events.lock().unwrap();
        if ev.len() == i.capacity {
            ev.pop_front();
        }
        ev.push_back(rec);
    }

    /// Emit a point event.
    pub fn event(&self, name: &'static str, fields: Vec<(&'static str, Value)>) {
        if self.inner.is_some() {
            self.push(RecordKind::Event, name, None, fields);
        }
    }

    /// Emit a completed span with an externally measured duration.
    pub fn span(&self, name: &'static str, dur_s: f64, fields: Vec<(&'static str, Value)>) {
        if self.inner.is_some() {
            self.push(RecordKind::Span, name, Some(dur_s), fields);
        }
    }

    /// Start a wall-clock span; the record is emitted when the guard drops
    /// (or on [`SpanGuard::finish`]).
    pub fn start_span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            rec: self.clone(),
            name,
            start: self.inner.as_ref().map(|_| Instant::now()),
            fields: Vec::new(),
        }
    }

    /// Snapshot of the in-memory ring (oldest first).
    pub fn events(&self) -> Vec<EventRecord> {
        self.inner
            .as_ref()
            .map(|i| i.events.lock().unwrap().iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Records with the given name, oldest first.
    pub fn events_named(&self, name: &str) -> Vec<EventRecord> {
        self.events()
            .into_iter()
            .filter(|e| e.name == name)
            .collect()
    }

    /// Structural heap footprint of the ring buffer: the `VecDeque`'s
    /// reserved capacity at `EventRecord` granularity plus each buffered
    /// record's own heap (field vectors, string payloads). Zero for a
    /// disabled recorder.
    pub fn heap_bytes(&self) -> usize {
        let Some(i) = &self.inner else { return 0 };
        let ev = i.events.lock().unwrap();
        ev.capacity() * std::mem::size_of::<EventRecord>()
            + ev.iter().map(EventRecord::heap_bytes).sum::<usize>()
    }

    pub fn flush(&self) {
        if let Some(i) = &self.inner {
            if let Some(sink) = i.sink.lock().unwrap().as_mut() {
                sink.flush();
            }
        }
    }
}

/// RAII wall-clock span. Extra fields can be attached before it drops.
pub struct SpanGuard {
    rec: Recorder,
    name: &'static str,
    start: Option<Instant>,
    fields: Vec<(&'static str, Value)>,
}

impl SpanGuard {
    pub fn field(&mut self, key: &'static str, value: impl Into<Value>) -> &mut Self {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Close the span now instead of at scope end.
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let fields = std::mem::take(&mut self.fields);
            self.rec
                .span(self.name, start.elapsed().as_secs_f64(), fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.event("x", vec![]);
        r.span("y", 1.0, vec![]);
        r.set_step(9);
        assert_eq!(r.step(), 0);
        assert!(r.events().is_empty());
        let mut s = r.start_span("z");
        s.field("k", 1u64);
        drop(s);
        assert!(r.events().is_empty());
    }

    #[test]
    fn ring_drops_oldest() {
        let r = Recorder::with_capacity(3);
        for i in 0..5u64 {
            r.set_step(i);
            r.event("tick", vec![]);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].seq, 2);
        assert_eq!(ev[2].seq, 4);
        assert_eq!(ev[2].step, 4);
    }

    #[test]
    fn sink_sees_all_records_even_past_capacity() {
        let r = Recorder::with_capacity(2);
        let sink = VecSink::new();
        r.set_sink(sink.clone());
        for _ in 0..5 {
            r.event("e", vec![("k", Value::U64(1))]);
        }
        r.flush();
        let lines = sink.lines();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"name\":\"e\""));
        assert_eq!(r.events().len(), 2);
    }

    #[test]
    fn last_handle_drop_flushes_jsonl_sink() {
        let path = std::env::temp_dir().join(format!(
            "telemetry_flush_on_drop_{}.jsonl",
            std::process::id()
        ));
        {
            let r = Recorder::enabled();
            let r2 = r.clone();
            r.set_sink(JsonlSink::create(&path).unwrap());
            for i in 0..100u64 {
                r.event("tick", vec![("i", Value::U64(i))]);
            }
            // No explicit flush anywhere: dropping both handles must do it.
            drop(r);
            drop(r2);
        }
        let data = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(data.lines().count(), 100);
        assert!(data.lines().last().unwrap().contains("\"i\":99"));
    }

    #[test]
    fn span_guard_measures_and_carries_fields() {
        let r = Recorder::enabled();
        {
            let mut g = r.start_span("work");
            g.field("n", 42u64);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, RecordKind::Span);
        assert!(ev[0].dur_s.unwrap() >= 0.0);
        assert_eq!(ev[0].field("n"), Some(&Value::U64(42)));
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.set_step(7);
        r2.event("a", vec![]);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].step, 7);
    }

    #[test]
    fn threads_can_emit_concurrently() {
        let r = Recorder::with_capacity(10_000);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rc = r.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    rc.event("t", vec![]);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.events().len(), 2000);
        // seq numbers are unique.
        let mut seqs: Vec<u64> = r.events().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 2000);
    }
}
