//! The dynamic load balancer of the paper's §V–VII: a state machine driven
//! by each step's realized CPU/GPU times, steering the leaf capacity S
//! globally (Search / Incremental) and the tree locally (`Enforce_S`,
//! `FineGrainedOptimize`).
//!
//! Module layout:
//!
//! * this file — the public vocabulary ([`Strategy`], [`LbState`],
//!   [`LbConfig`], [`LbReport`]) and the [`LoadBalancer`] shell with its
//!   per-step dispatch;
//! * [`states`] — the per-state step logic and `FineGrainedOptimize`;
//! * [`lbtime`] — the modeled wall-time accounting of every maintenance
//!   operation (the paper's "LB time", Table II).

pub mod lbtime;
mod states;
#[cfg(test)]
mod tests;

pub use states::{fine_grained_optimize, search_best_s_cpu_only, FgoOutcome};

use crate::config::HeteroNode;
use crate::cost::CostModel;
use crate::engine::FmmEngine;
use fmm_math::Kernel;

/// The three load-balancing strategies compared in the paper's §IX.A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Strategy 1: optimal S chosen at the outset by binary search, then the
    /// tree structure is never modified (bodies are still re-binned).
    StaticS,
    /// Strategy 2: initial binary search; afterwards, when the compute time
    /// regresses more than 5% past the best seen, call `Enforce_S` and take
    /// the next step's time as the new best.
    EnforceOnly,
    /// Strategy 3: the full machine — Search / Incremental / Observation
    /// states with `Enforce_S` and `FineGrainedOptimize`.
    Full,
}

impl Strategy {
    pub fn name(self) -> &'static str {
        match self {
            Strategy::StaticS => "static_s",
            Strategy::EnforceOnly => "enforce_only",
            Strategy::Full => "full",
        }
    }
}

/// The load balancer's state (paper §V). Each state persists over multiple
/// time steps; `Frozen` is the terminal state of [`Strategy::StaticS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbState {
    Search,
    Incremental,
    Observation,
    Frozen,
    /// A device dropped out or came back: re-bisect S over a warm-started
    /// bracket around the last settled value (Strategy 3 only).
    Recovery,
}

impl LbState {
    pub fn name(self) -> &'static str {
        match self {
            LbState::Search => "search",
            LbState::Incremental => "incremental",
            LbState::Observation => "observation",
            LbState::Frozen => "frozen",
            LbState::Recovery => "recovery",
        }
    }
}

/// Tunables of the load balancer — the four some caller sets. Everything
/// else the machine runs on is a constant of this module.
#[derive(Clone, Copy, Debug)]
pub struct LbConfig {
    pub s_min: usize,
    pub s_max: usize,
    /// Leave Search / skip FGO when |t_cpu − t_gpu| is at most this (paper:
    /// 0.15 s).
    pub eps_switch_s: f64,
    /// Enable `FineGrainedOptimize` (off reproduces the paper's Fig 10
    /// baseline).
    pub use_fgo: bool,
}

impl Default for LbConfig {
    fn default() -> Self {
        LbConfig {
            s_min: 8,
            s_max: 4096,
            eps_switch_s: 0.15,
            use_fgo: true,
        }
    }
}

/// Observation acts when compute time exceeds the best seen by this
/// fraction (paper: 5%) — at once, on the first such step, as the paper
/// does. Lone measurement spikes are the [`crate::TimingFilter`]'s to
/// suppress, before the balancer sees them.
const REGRESSION_FRAC: f64 = 0.05;
/// Multiplicative S step of the Incremental state.
const INCR_FACTOR: f64 = 1.15;
/// Incremental keeps walking while compute stays within this fraction of
/// the walk's best — one 1.15× step often lands on a local bump
/// (block-quantization effects) that a strict per-step comparison would
/// mistake for the optimum.
const INCR_TOL: f64 = 0.05;
/// FGO batch size as a fraction of the active leaf count.
const FGO_BATCH_FRAC: f64 = 0.03;
/// Upper bound on FGO batches per invocation.
const FGO_MAX_ROUNDS: usize = 12;

/// What the balancer did after a step, and what it cost (modeled wall time,
/// charged as the paper's "LB time").
#[derive(Clone, Copy, Debug, Default)]
pub struct LbReport {
    pub lb_time: f64,
    pub rebuilt: bool,
    pub enforced: bool,
    /// Tree edits were made, through an execution plan that was live when
    /// they began — as it is on every driver's path (see
    /// [`LoadBalancer::post_step`]).
    pub patched: bool,
    pub fgo_rounds: usize,
}

/// Plain-data image of a [`LoadBalancer`] for checkpointing: every field of
/// the state machine, so a restored balancer makes bit-identical decisions
/// from the next step onward.
#[derive(Clone, Debug)]
pub struct BalancerSnapshot {
    pub cfg: LbConfig,
    pub strategy: Strategy,
    pub state: LbState,
    pub s: usize,
    pub lo: usize,
    pub hi: usize,
    pub best_compute: f64,
    pub incr_best: Option<(usize, f64)>,
    pub incr_dir_up: Option<bool>,
    pub incr_flipped: bool,
    pub last_online: Option<usize>,
    pub reset_best_next: bool,
}

/// The dynamic load balancer of §V–VII. Construction and per-step dispatch
/// live here; the state-step bodies are in the private `states` module.
#[derive(Clone, Debug)]
pub struct LoadBalancer {
    pub cfg: LbConfig,
    strategy: Strategy,
    state: LbState,
    s: usize,
    lo: usize,
    hi: usize,
    best_compute: f64,
    /// Best (S, measured compute) of the current Incremental walk.
    incr_best: Option<(usize, f64)>,
    /// Walk direction (`true` = grow S); seeded from dominance on entry.
    incr_dir_up: Option<bool>,
    /// The one allowed direction reversal has been spent.
    incr_flipped: bool,
    /// Online device count seen last step (None until a GPU node is seen).
    last_online: Option<usize>,
    /// Strategy 2: the next step's compute time becomes the new best.
    reset_best_next: bool,
    /// Flight recorder for state transitions and maintenance outcomes.
    rec: telemetry::Recorder,
}

pub(super) fn geometric_mid(lo: usize, hi: usize) -> usize {
    ((lo.max(1) as f64 * hi.max(1) as f64).sqrt().round() as usize).clamp(lo, hi)
}

impl LoadBalancer {
    pub fn new(strategy: Strategy, cfg: LbConfig) -> Self {
        assert!(cfg.s_min >= 1 && cfg.s_min < cfg.s_max);
        let s = geometric_mid(cfg.s_min, cfg.s_max);
        LoadBalancer {
            cfg,
            strategy,
            state: LbState::Search,
            s,
            lo: cfg.s_min,
            hi: cfg.s_max,
            best_compute: f64::INFINITY,
            incr_best: None,
            incr_dir_up: None,
            incr_flipped: false,
            last_online: None,
            reset_best_next: false,
            rec: telemetry::Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder: every state transition, `Enforce_S`
    /// outcome, FGO batch decision and Recovery entry is emitted as a
    /// structured `lb.*` event through it.
    pub fn set_recorder(&mut self, rec: telemetry::Recorder) {
        self.rec = rec;
    }

    /// The balancer's telemetry handle.
    pub fn recorder(&self) -> &telemetry::Recorder {
        &self.rec
    }

    /// Move to `to`, emitting an `lb.transition` flight-recorder event with
    /// the cause and the S in force at the moment of the switch.
    pub(super) fn transition(&mut self, to: LbState, cause: &'static str) {
        if self.state != to {
            self.rec.event(
                "lb.transition",
                vec![
                    ("from", telemetry::Value::Str(self.state.name().into())),
                    ("to", telemetry::Value::Str(to.name().into())),
                    ("cause", telemetry::Value::Str(cause.into())),
                    ("s", telemetry::Value::U64(self.s as u64)),
                ],
            );
        }
        self.state = to;
    }

    /// Capture the complete state-machine state for checkpointing.
    pub fn snapshot(&self) -> BalancerSnapshot {
        BalancerSnapshot {
            cfg: self.cfg,
            strategy: self.strategy,
            state: self.state,
            s: self.s,
            lo: self.lo,
            hi: self.hi,
            best_compute: self.best_compute,
            incr_best: self.incr_best,
            incr_dir_up: self.incr_dir_up,
            incr_flipped: self.incr_flipped,
            last_online: self.last_online,
            reset_best_next: self.reset_best_next,
        }
    }

    /// Reconstruct a balancer from a snapshot verbatim (recorder starts
    /// disabled; reattach one with [`LoadBalancer::set_recorder`]).
    pub fn from_snapshot(snap: BalancerSnapshot) -> Self {
        LoadBalancer {
            cfg: snap.cfg,
            strategy: snap.strategy,
            state: snap.state,
            s: snap.s,
            lo: snap.lo,
            hi: snap.hi,
            best_compute: snap.best_compute,
            incr_best: snap.incr_best,
            incr_dir_up: snap.incr_dir_up,
            incr_flipped: snap.incr_flipped,
            last_online: snap.last_online,
            reset_best_next: snap.reset_best_next,
            rec: telemetry::Recorder::disabled(),
        }
    }

    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    pub fn state(&self) -> LbState {
        self.state
    }

    /// The S value the balancer currently targets.
    pub fn s(&self) -> usize {
        self.s
    }

    pub fn best_compute(&self) -> f64 {
        self.best_compute
    }

    /// Feed one completed step's realized times and let the balancer prepare
    /// the tree for the next step (possibly rebuilding at a new S, enforcing
    /// the current S, or fine-grain optimizing). `pos` must be the *updated*
    /// positions — the paper performs tree optimizations after the position
    /// update.
    ///
    /// The caller has timed the step it reports ([`FmmEngine::time_step`] or
    /// a solve), so the engine's plan is live: every tree edit made from
    /// here patches it, and is charged [`lbtime::plan_patch`]. `model` has
    /// observed that step ([`CostModel::observe`]): Search and Recovery
    /// price their candidate S values with it and finish within this call.
    pub fn post_step<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        t_cpu: f64,
        t_gpu: f64,
    ) -> LbReport {
        debug_assert!(
            engine.has_live_plan(),
            "post_step wants the step timed first"
        );
        let compute = t_cpu.max(t_gpu);
        let mut rep = LbReport::default();
        if self.reset_best_next {
            self.best_compute = compute;
            self.reset_best_next = false;
        }
        // Resilience: a device dropping out (or coming back) invalidates the
        // settled balance point outright — the measurement that just arrived
        // describes a machine that no longer exists. Only the full strategy
        // reacts; StaticS/EnforceOnly are the paper's less adaptive
        // baselines and keep their decomposition.
        if let Some(gpus) = node.gpus.as_ref() {
            let now = gpus.num_online();
            let before = self.last_online.replace(now);
            if matches!(before, Some(b) if b != now)
                && self.strategy == Strategy::Full
                && self.state != LbState::Frozen
            {
                self.enter_recovery(engine, node, pos, now, &mut rep);
                return rep;
            }
        }
        match self.state {
            LbState::Frozen => {}
            LbState::Search | LbState::Recovery => {
                self.search_step(engine, model, node, pos, t_cpu, t_gpu, &mut rep)
            }
            LbState::Incremental => {
                self.incremental_step(engine, model, node, pos, t_cpu, t_gpu, &mut rep)
            }
            LbState::Observation => self.observation_step(engine, model, node, compute, &mut rep),
        }
        rep
    }
}
