//! # telemetry
//!
//! Observability layer for the AFMM workspace: one channel of structured
//! spans/events in a ring-buffered [`Recorder`] with a pluggable JSONL sink,
//! a cost-model [`AuditTrail`] pairing every `CostModel::predict` with the
//! observed step time, and scoped allocator accounting ([`memprof`]). Every
//! reader — the replay validator, the Chrome exporter, `afmm-trace` — reads
//! the event stream; there is no second, in-memory metrics channel.
//!
//! Design rules:
//!
//! * **Leaf crate, zero deps.** `octree` and `gpu-sim` depend on this crate,
//!   so it can depend on nothing but `std`.
//! * **No global state.** A [`Recorder`] is an explicit handle threaded
//!   through engine / balancer / tracker; clones share one buffer.
//! * **Zero-cost when off.** `Recorder::disabled()` holds no allocation and
//!   every call short-circuits on a `None` check, so instrumented hot paths
//!   cost one predictable branch.
//!
//! ```
//! use telemetry::{Recorder, Value};
//!
//! let rec = Recorder::enabled();
//! rec.set_step(4);
//! rec.span("phase.m2l", 0.012, vec![("ops", Value::U64(4096))]);
//! rec.event("lb.transition", vec![("to", Value::Str("incremental".into()))]);
//! assert_eq!(rec.events()[0].step, 4);
//! assert_eq!(rec.events_named("lb.transition").len(), 1);
//! ```

mod audit;
mod event;
pub mod json;
pub mod memprof;
mod recorder;
mod trace;

pub use audit::{AuditStats, AuditTrail, PredictionAudit, DEFAULT_WINDOW};
pub use event::{push_json_f64, push_json_str, EventRecord, RecordKind, Value};
#[cfg(feature = "memprof")]
pub use memprof::CountingAlloc;
pub use memprof::{AllocScope, GlobalStats, ScopeStats};
pub use recorder::{JsonlSink, Recorder, Sink, SpanGuard, VecSink, DEFAULT_CAPACITY};
pub use trace::{
    flat_f64, flat_str, flat_u64, intern, parse_flat_json, read_trace, ChromeTraceExporter,
    TraceError, TraceReader,
};
