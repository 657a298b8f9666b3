//! # telemetry
//!
//! Observability layer for the AFMM workspace: structured spans/events with
//! a ring-buffered [`Recorder`] and pluggable JSONL sink, a metrics registry
//! (counters / gauges / log-bucketed histograms with p50/p90/p99), and a
//! cost-model [`AuditTrail`] pairing every `CostModel::predict` with the
//! observed step time.
//!
//! Design rules:
//!
//! * **Leaf crate, zero deps.** `octree` and `gpu-sim` depend on this crate,
//!   so it can depend on nothing but `std`.
//! * **No global state.** A [`Recorder`] is an explicit handle threaded
//!   through engine / balancer / plan; clones share one buffer.
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
//! rec.counter_add("plan.rebuild", 1);
//! rec.hist_record("step.time", 0.034);
//! assert_eq!(rec.events()[0].step, 4);
//! assert_eq!(rec.metrics().counter("plan.rebuild"), Some(1));
//! ```

mod audit;
mod event;
pub mod json;
pub mod memprof;
mod metrics;
mod recorder;
mod trace;

pub use audit::{AuditStats, AuditTrail, PredictionAudit, DEFAULT_WINDOW};
pub use event::{push_json_f64, push_json_str, EventRecord, RecordKind, Value};
#[cfg(feature = "memprof")]
pub use memprof::CountingAlloc;
pub use memprof::{AllocScope, GlobalStats, ScopeStats};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use recorder::{JsonlSink, Recorder, Sink, SpanGuard, VecSink, DEFAULT_CAPACITY};
pub use trace::{
    flat_f64, flat_str, flat_u64, intern, parse_flat_json, read_trace, ChromeTraceExporter,
    TraceError, TraceReader,
};
