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

/// The load balancer's state (paper §V). Search finishes within the first
/// step; Incremental and Observation persist over many; `Frozen` is the
/// terminal state of [`Strategy::StaticS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LbState {
    Search,
    Incremental,
    Observation,
    Frozen,
}

impl LbState {
    pub fn name(self) -> &'static str {
        match self {
            LbState::Search => "search",
            LbState::Incremental => "incremental",
            LbState::Observation => "observation",
            LbState::Frozen => "frozen",
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
/// How far either way of the S just measured a warm search brackets, and a
/// priced run of the Incremental walk reaches: `[s/8, 8s]`.
const WINDOW: usize = 8;
/// Multiplicative S step between the candidates Incremental prices.
const INCR_FACTOR: f64 = 1.15;
/// Incremental prices on past a candidate only while the price falls by
/// more than this fraction from one candidate to the next, and steps only
/// to a candidate priced this far below the S just measured: a flat
/// stretch of price is not worth a measured step.
const PRICE_GAIN: f64 = 0.01;
/// Most roots one crossing refinement prices (see `states::crossing_root`),
/// each a price of its own: at 1M, 7–45 ms of host time and ≈ 45 ms of
/// `lbtime::predict`.
const REFINE_PRICES: usize = 3;
/// The guard on the price: a measured step that comes in over the walk's
/// best by more than this fraction settles the walk back at its best. The
/// model has no floor for an SM makespan of only a few leaves, so a price
/// can promise what the kernel does not deliver.
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

/// The Incremental walk in progress, created on its first step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Walk {
    /// Best (S, measured compute) of the walk.
    pub best: (usize, f64),
}

/// Plain-data image of a [`LoadBalancer`] for checkpointing: everything one
/// step hands to the next, so a restored balancer makes bit-identical
/// decisions from the next step onward.
#[derive(Clone, Debug)]
pub struct BalancerSnapshot {
    pub cfg: LbConfig,
    pub strategy: Strategy,
    pub state: LbState,
    pub s: usize,
    pub best_compute: f64,
    pub walk: Option<Walk>,
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
    best_compute: f64,
    /// The Incremental walk in progress (`None` outside Incremental).
    walk: Option<Walk>,
    /// Online device count seen last step (None before the first step).
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
            best_compute: f64::INFINITY,
            walk: None,
            last_online: None,
            reset_best_next: false,
            rec: telemetry::Recorder::disabled(),
        }
    }

    /// Attach a telemetry recorder: every state transition, `Enforce_S`
    /// outcome, FGO batch decision and device-count change is emitted as a
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
            best_compute: self.best_compute,
            walk: self.walk,
            last_online: self.last_online,
            reset_best_next: self.reset_best_next,
        }
    }

    /// Reconstruct a balancer from a snapshot verbatim (recorder starts
    /// disabled; reattach one with [`LoadBalancer::set_recorder`]), refusing
    /// state the live balancer can never hold: bounds [`LoadBalancer::new`]
    /// would reject, an S or a walk's S outside them, a switching threshold
    /// that is not finite, a NaN best compute (+∞ is the best before the
    /// first observation), or a walk compute that is NaN or negative.
    pub fn from_snapshot(snap: BalancerSnapshot) -> Result<Self, String> {
        let LbConfig { s_min, s_max, .. } = snap.cfg;
        if s_min < 1 || s_min >= s_max {
            return Err(format!("balancer bounds S {s_min}..{s_max} are empty"));
        }
        let bounded = |s: usize| (s_min..=s_max).contains(&s);
        if !bounded(snap.s) {
            return Err(format!(
                "balancer S {} is outside {s_min}..={s_max}",
                snap.s
            ));
        }
        if !snap.cfg.eps_switch_s.is_finite() {
            return Err(format!(
                "balancer switching threshold {} is not finite",
                snap.cfg.eps_switch_s
            ));
        }
        if snap.best_compute.is_nan() {
            return Err("balancer best compute is NaN".into());
        }
        if let Some(Walk { best: (s, compute) }) = snap.walk {
            if !bounded(s) {
                return Err(format!("walk S {s} is outside {s_min}..={s_max}"));
            }
            if compute.is_nan() || compute < 0.0 {
                return Err(format!("walk compute {compute} is not a time"));
            }
        }
        Ok(LoadBalancer {
            cfg: snap.cfg,
            strategy: snap.strategy,
            state: snap.state,
            s: snap.s,
            best_compute: snap.best_compute,
            walk: snap.walk,
            last_online: snap.last_online,
            reset_best_next: snap.reset_best_next,
            rec: telemetry::Recorder::disabled(),
        })
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
    /// observed that step ([`CostModel::observe`]): Search prices its
    /// candidate S values with it and finishes within this call, as does the
    /// warm search that answers a change in the online device count, and
    /// Incremental prices the neighbours of the S just measured before it
    /// takes a step.
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
        // Resilience: a device dropping out (or coming back, or the whole GPU
        // system being dropped) invalidates the settled balance point
        // outright — the step just measured ran on a new machine, so S is
        // searched afresh from its times, warm (see `search_step`). Only the
        // full strategy reacts; StaticS/EnforceOnly are the paper's less
        // adaptive baselines and keep their decomposition.
        let now = node.num_online_gpus();
        let before = self.last_online.replace(now);
        let changed = matches!(before, Some(b) if b != now)
            && self.strategy == Strategy::Full
            && self.state != LbState::Frozen;
        if changed {
            self.rec.event(
                "lb.recovery",
                vec![
                    ("online", telemetry::Value::U64(now as u64)),
                    ("s", telemetry::Value::U64(self.s as u64)),
                ],
            );
        }
        match self.state {
            LbState::Frozen => {}
            _ if changed => {
                self.search_step(engine, model, node, pos, t_cpu, t_gpu, true, &mut rep)
            }
            LbState::Search => {
                self.search_step(engine, model, node, pos, t_cpu, t_gpu, false, &mut rep)
            }
            LbState::Incremental => {
                self.incremental_step(engine, model, node, pos, t_cpu, t_gpu, &mut rep)
            }
            LbState::Observation => self.observation_step(engine, model, node, compute, &mut rep),
        }
        rep
    }
}
