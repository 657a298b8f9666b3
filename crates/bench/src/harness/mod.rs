//! The perf-lab: a unified benchmark harness with statistical regression
//! gating and structural introspection snapshots.
//!
//! The paper's whole load-balancing loop rests on *measured* per-operation
//! costs; this module applies the same discipline to the repo's own
//! performance story. One scenario registry ([`scenarios`]) runs every
//! benchmark with warmup + repetitions, robust statistics ([`stats`]) turn
//! the samples into median/MAD/bootstrap-CI summaries, one canonical JSON
//! schema ([`report`]) makes every run comparable to every other, a
//! noise-aware comparator ([`compare`](mod@compare)) classifies deltas
//! against a checked-in baseline, and every result carries a structural snapshot
//! ([`snapshot`]) so a perf delta can be *attributed* instead of guessed
//! at. The `afmm-perf` binary is the driver.
//!
//! The gate is pairwise and keeps no history: one report against one
//! other, in practice a fresh run against `bench/baseline.json`.

pub mod compare;
pub mod report;
pub mod scenarios;
pub mod snapshot;
pub mod stats;

pub use compare::{compare, CompareConfig, CompareReport, Verdict};
pub use report::{BenchReport, Direction, Metric, MetricKind, Scenario, SCHEMA_VERSION};
pub use scenarios::{run_suite, SuiteConfig};
pub use snapshot::{gather, SnapshotParts};
pub use stats::{bootstrap_ci_median, mad, median, summarize, MetricStats};
