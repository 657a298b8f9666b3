//! # afmm-repro
//!
//! A full reproduction of **Overman, Prins, Miller & Minion, "Dynamic Load
//! Balancing of the Adaptive Fast Multipole Method in Heterogeneous
//! Systems" (IEEE IPDPSW 2013)** as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public surface:
//!
//! * [`afmm`] — the AFMM engine, observational cost model, and the
//!   Search/Incremental/Observation load balancer (the paper's
//!   contribution);
//! * [`fmm_math`] — cartesian multipole/local expansions and the gravity /
//!   regularized-Stokeslet kernels;
//! * [`octree`] — the adaptive decomposition with Collapse / PushDown /
//!   Enforce_S;
//! * [`gpu_sim`] / [`sched_sim`] — the virtual heterogeneous node (simulated
//!   CUDA-like devices and an OpenMP-task-style scheduler model);
//! * [`nbody`] — workload generators, integrators and diagnostics;
//! * [`telemetry`] — structured tracing spans/events and the
//!   prediction-vs-actual cost-model audit trail.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! paper↔module mapping, and `EXPERIMENTS.md` for paper-vs-measured results
//! of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use afmm_repro::prelude::*;
//!
//! // Gravitating Plummer sphere, solved by the adaptive FMM.
//! let bodies = nbody::plummer(2_000, 1.0, 1.0, 1);
//! let mut engine = FmmEngine::new(
//!     GravityKernel::default(),
//!     FmmParams::default(),
//!     &bodies.pos,
//!     48,
//! );
//! let sol = engine.solve(&bodies.pos, &bodies.mass);
//! assert_eq!(sol.field.len(), bodies.len());
//! ```

pub use afmm;
pub use fmm_math;
pub use geom;
pub use gpu_sim;
pub use nbody;
pub use octree;
pub use sched_sim;
pub use telemetry;

/// The workhorse types, importable in one line.
pub mod prelude {
    pub use afmm::{
        diff_traces, fine_grained_optimize, search_best_s_cpu_only, validate_trace, ChaosEvent,
        ChaosPlan, CostModel, FaultEvent, FaultSchedule, FmmEngine, FmmParams, GravitySim,
        HeteroNode, LbConfig, LbState, LoadBalancer, Prediction, RecoveryAction, Strategy,
        StrategyTracker, Supervisor, SupervisorConfig, SupervisorReport, TimedFault, TimingFilter,
        ValidateOptions,
    };
    pub use fmm_math::{ExpansionOps, GravityKernel, Kernel, StokesletKernel};
    pub use geom::{Aabb, Vec3};
    pub use gpu_sim::{GpuJob, GpuSystem};
    pub use nbody::{Bodies, ElasticRing, Leapfrog};
    pub use octree::{build_adaptive, build_uniform, BuildParams, Mac, Octree};
    pub use sched_sim::{MemoryModel, SimConfig, TaskGraph};
    pub use telemetry::{
        AuditTrail, ChromeTraceExporter, EventRecord, JsonlSink, PredictionAudit, Recorder,
        TraceReader, Value, VecSink,
    };
}
