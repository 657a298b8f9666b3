//! The adaptive fast multipole method of **Overman, Prins, Miller, Minion —
//! "Dynamic Load Balancing of the Adaptive Fast Multipole Method in
//! Heterogeneous Systems" (IEEE IPDPSW 2013)**, reproduced on a *virtual*
//! heterogeneous node.
//!
//! The crate wires the workspace's substrates together:
//!
//! * [`FmmEngine`] — the AFMM solver (exact physics; the sweeps' levels
//!   and the near field's leaves run on the host's cores through rayon's
//!   data-parallel API, with bits that do not depend on the worker count)
//!   over the adaptive octree of the `octree` crate and the cartesian
//!   expansions of `fmm-math`;
//! * [`exec`] — virtual-node timing: the far-field work becomes the paper's
//!   recursive task DAG scheduled on `sched-sim`'s cores, and the near-field
//!   work becomes all-pairs kernels on `gpu-sim`'s devices;
//! * [`CostModel`] — the observational per-operation cost coefficients and
//!   the `T = Σ M(op)·C(op)` time prediction (paper §IV.D);
//! * [`LoadBalancer`] — the Search / Incremental / Observation state
//!   machine, `Enforce_S`, and `FineGrainedOptimize` (paper §V–VII);
//! * [`GravitySim`] / [`StrategyTracker`] — time-stepping drivers for the
//!   paper's gravitational workload and for strategy comparisons.
//!
//! ```
//! use afmm::{FmmEngine, FmmParams};
//! use fmm_math::GravityKernel;
//!
//! // A tiny gravitational solve.
//! let pos = vec![
//!     geom::Vec3::new(0.0, 0.0, 0.0),
//!     geom::Vec3::new(1.0, 0.0, 0.0),
//!     geom::Vec3::new(0.0, 1.0, 0.0),
//! ];
//! let mass = vec![1.0; 3];
//! let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, 8);
//! let sol = engine.solve(&pos, &mass);
//! assert!(sol.field.iter().all(|a| a.is_finite()));
//! ```

mod balance;
pub mod chaos;
pub mod checkpoint;
mod config;
mod cost;
mod engine;
mod error;
pub mod exec;
mod filter;
mod plan;
pub mod replay;
mod simulate;
pub mod supervisor;

pub use balance::{
    fine_grained_optimize, lbtime, search_best_s_cpu_only, BalancerSnapshot, FgoOutcome, LbConfig,
    LbReport, LbState, LoadBalancer, Strategy,
};
pub use chaos::{ChaosEvent, ChaosPlan, TimedChaos};
pub use checkpoint::{EngineSnapshot, TrackerSnapshot, SCHEMA_VERSION};
pub use config::{CpuSpec, FmmParams, HeteroNode};
pub use cost::{CostModel, Prediction};
pub use engine::{FmmEngine, FmmSolution};
pub use error::Error;
pub use exec::{
    build_gpu_jobs, build_task_graph, record_phase_spans, time_step, time_step_policy, ExecPolicy,
    TimingReport,
};
pub use filter::{FilterSnapshot, TimingFilter};
pub use plan::ExecutionPlan;
pub use supervisor::{RecoveryAction, Supervisor, SupervisorConfig, SupervisorReport};
// Fault-injection vocabulary, re-exported so drivers need only `afmm`.
pub use gpu_sim::{DeviceStatus, FaultEvent, FaultSchedule, TimedFault};
pub use replay::{
    diff_traces, validate_trace, validate_trace_report, DiffEntry, TraceDiff, ValidateOptions,
    ValidationReport, Violation, DEFAULT_PHASE_TOLERANCE,
};
pub use simulate::{GravitySim, RunSummary, StepRecord, StrategyTracker};
