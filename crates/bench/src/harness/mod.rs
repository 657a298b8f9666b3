//! The perf-lab: a unified benchmark harness with statistical regression
//! gating and structural introspection snapshots.
//!
//! The paper's whole load-balancing loop rests on *measured* per-operation
//! costs; this module applies the same discipline to the repo's own
//! performance story. One scenario registry ([`scenarios`]) runs every
//! benchmark with warmup + repetitions, robust statistics ([`stats`]) turn
//! the samples into median/MAD/bootstrap-CI summaries, one canonical JSON
//! schema ([`report`]) makes every run comparable to every other, a
//! noise-aware comparator ([`compare`]) classifies deltas against a
//! checked-in baseline, and every result carries a structural snapshot
//! ([`snapshot`]) so a perf delta can be *attributed* instead of guessed
//! at. The `afmm-perf` binary is the driver.
//!
//! The pairwise gate is extended longitudinally by the perf [`ledger`]: an
//! append-only JSONL history of run summaries keyed by `(host, mode)`
//! series, with median/MAD history views, offline change-point trend
//! classification (step / drift / spike), and rolling-median baselines for
//! `compare --against-ledger`.

pub mod compare;
pub mod ledger;
pub mod report;
pub mod scenarios;
pub mod snapshot;
pub mod stats;

pub use compare::{compare, CompareConfig, CompareReport, Verdict};
pub use ledger::{
    host_key, render_history, render_trends, synthesize_baseline, trend_rows, Ledger, LedgerEntry,
    TrendRow, LEDGER_SCHEMA_VERSION,
};
pub use report::{BenchReport, Direction, Metric, MetricKind, Scenario, SCHEMA_VERSION};
pub use scenarios::{run_suite, SuiteConfig};
pub use snapshot::{gather, SnapshotParts};
pub use stats::{bootstrap_ci_median, mad, median, summarize, MetricStats};
