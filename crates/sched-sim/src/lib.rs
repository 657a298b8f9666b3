//! Deterministic simulator of an OpenMP-style task scheduler on a virtual
//! multi-core node.
//!
//! The paper runs its far-field (expansion) work as recursively spawned
//! OpenMP tasks over the adaptive octree and reports CPU scaling on a
//! 32-core machine. This machine has one core, so the reproduction models
//! CPU time instead of measuring it: the AFMM builds the *real* task DAG
//! (real per-task costs derived from real operation counts), and this crate
//! computes the makespan of that DAG on `k` virtual cores with an
//! event-driven greedy scheduler — the textbook model of a work-stealing
//! runtime — plus a [`MemoryModel`] capturing the two second-order effects
//! the paper observes (slight superlinearity from extra per-socket L3, and
//! saturation of memory bandwidth at high core counts).
//!
//! Everything is deterministic: same graph + same config ⇒ same makespan.

mod dag;
mod graph;
mod memory;
mod sim;

pub use dag::{bottom_levels, schedule, DagConfig, DagResult};
pub use graph::{critical_path, GraphError, Lane, Task, TaskGraph, TaskId};
pub use memory::MemoryModel;
pub use sim::{simulate, SimConfig, SimResult};
