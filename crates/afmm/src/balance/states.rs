//! Per-state step logic of the [`LoadBalancer`] plus the paper's
//! `FineGrainedOptimize` (§VI.B) and the CPU-only S sweep.
//!
//! Tree edits made here go through the engine ([`FmmEngine::enforce_s`],
//! [`FmmEngine::apply_collapse`], ...), which patches its plan
//! ([`octree::IncrementalLists`]) across them; each is charged
//! [`lbtime::plan_patch`], and only a wholesale rebuild pays for a
//! re-traversal.

use super::{
    geometric_mid, lbtime, LbConfig, LbReport, LbState, LoadBalancer, Strategy, FGO_BATCH_FRAC,
    FGO_MAX_ROUNDS, INCR_FACTOR, INCR_TOL, REGRESSION_FRAC,
};
use crate::config::HeteroNode;
use crate::cost::{CostModel, Prediction};
use crate::engine::FmmEngine;
use fmm_math::Kernel;
use octree::{NodeId, Octree, PlanRefresh};

impl LoadBalancer {
    /// React to a changed online-device count: with survivors, re-bisect S
    /// over a warm bracket around the settled value (the
    /// [`LbState::Recovery`] state, which runs the Search bisection); with
    /// none, fall back to the CPU-only plan — sweep S as the paper does for
    /// CPU-only runs and keep stepping on the cores alone.
    pub(super) fn enter_recovery<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        now_online: usize,
        rep: &mut LbReport,
    ) {
        self.incr_best = None;
        self.incr_dir_up = None;
        self.incr_flipped = false;
        self.best_compute = f64::INFINITY;
        self.reset_best_next = true;
        self.recorder().event(
            "lb.recovery",
            vec![
                ("online", telemetry::Value::U64(now_online as u64)),
                ("s", telemetry::Value::U64(self.s() as u64)),
            ],
        );
        if now_online == 0 {
            // Graceful CPU-only fallback. The sweep rebuilds the tree once
            // per probe; charge each rebuild as LB time.
            let (s, _t) = search_best_s_cpu_only(engine, node, pos, &self.cfg);
            self.s = s;
            let mut probes = 0usize;
            let mut sp = self.cfg.s_min;
            while sp <= self.cfg.s_max {
                probes += 1;
                sp = ((sp as f64 * 1.6).ceil() as usize).max(sp + 1);
            }
            rep.lb_time += probes as f64 * lbtime::rebuild(node, pos.len());
            rep.rebuilt = true;
            self.transition(LbState::Observation, "all_gpus_offline");
            return;
        }
        // Survivors remain: warm-start the bisection on a bracket spanning
        // both sides of the settled S (the crossover may move either way
        // depending on which resource the lost/gained device relieves).
        self.lo = (self.s / 8).max(self.cfg.s_min);
        self.hi = self
            .s
            .saturating_mul(8)
            .min(self.cfg.s_max)
            .max(self.lo + 1);
        self.transition(LbState::Recovery, "device_count_changed");
    }

    fn leave_search(&mut self, compute: f64) {
        self.best_compute = compute;
        let to = match self.strategy {
            Strategy::StaticS => LbState::Frozen,
            Strategy::EnforceOnly => LbState::Observation,
            // Recovery exits the same way a cold search does: the bisection
            // only localizes the crossover, and the compute-guided walk is
            // what finds the surviving hardware's actual optimum.
            Strategy::Full => LbState::Incremental,
        };
        self.transition(to, "search_settled");
        self.incr_best = None;
        self.incr_dir_up = None;
        self.incr_flipped = false;
    }

    pub(super) fn search_step<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        t_cpu: f64,
        t_gpu: f64,
        rep: &mut LbReport,
    ) {
        let compute = t_cpu.max(t_gpu);
        let diff = (t_cpu - t_gpu).abs();
        let bracket_done = self.hi <= self.lo + self.lo / 4;
        // A node with no (online) GPUs has nothing to balance *between*: any
        // S trades CPU work against CPU work, so the state machine defers to
        // an external S sweep (see `search_best_s_cpu_only`) and freezes.
        if node.num_online_gpus() == 0 || diff <= self.cfg.eps_switch_s || bracket_done {
            self.leave_search(compute);
            return;
        }
        if t_cpu > t_gpu {
            // CPU dominates: shift work toward the GPU with a larger S.
            self.lo = self.s;
        } else {
            self.hi = self.s;
        }
        let mid = geometric_mid(self.lo, self.hi);
        if mid == self.s {
            self.leave_search(compute);
            return;
        }
        self.s = mid;
        // Search probes jump S far enough that structure changes wholesale;
        // the honest cost is a full rebuild.
        engine.rebuild(pos, self.s);
        rep.lb_time += lbtime::rebuild(node, pos.len());
        rep.rebuilt = true;
    }

    /// The Incremental walk, steered by the *measured compute time* rather
    /// than by which side dominates. Dominance only seeds the initial
    /// direction; after that each 1.15× probe keeps walking while compute
    /// stays within `INCR_TOL` of the walk's best (riding over local
    /// bumps from block quantization). When a direction is exhausted —
    /// compute climbs out of the tolerance band or S pins at a bound —
    /// the walk reverses once from its best S so both sides of the start
    /// are explored, then settles at the walk's best.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn incremental_step<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        t_cpu: f64,
        t_gpu: f64,
        rep: &mut LbReport,
    ) {
        let compute = t_cpu.max(t_gpu);
        if self.incr_dir_up.is_none() {
            // CPU dominant: shift near-field work to the GPUs with larger S.
            self.incr_dir_up = Some(t_cpu >= t_gpu);
        }
        let mut exhausted = false;
        match self.incr_best {
            None => self.incr_best = Some((self.s, compute)),
            Some((_, c_best)) if compute < c_best => {
                self.incr_best = Some((self.s, compute));
            }
            Some((_, c_best)) if compute > c_best * (1.0 + INCR_TOL) => {
                // Walked off the basin in this direction.
                exhausted = true;
            }
            // Within the tolerance band of the best: keep walking through
            // the local bump.
            Some(_) => {}
        }
        let step_from = |s: usize, up: bool| {
            if up {
                ((s as f64 * INCR_FACTOR).ceil() as usize).min(self.cfg.s_max)
            } else {
                ((s as f64 / INCR_FACTOR).floor() as usize).max(self.cfg.s_min)
            }
        };
        let mut next = step_from(self.s, self.incr_dir_up == Some(true));
        if next == self.s {
            // Pinned at a bound: this direction is exhausted too.
            exhausted = true;
        }
        if exhausted {
            if self.incr_flipped {
                // Both directions explored: settle at the walk's best.
                self.finish_incremental(engine, model, node, pos, rep);
                return;
            }
            // Reverse once, restarting the probes from the walk's best S.
            self.incr_flipped = true;
            self.incr_dir_up = self.incr_dir_up.map(|d| !d);
            let base = self.incr_best.map_or(self.s, |(s, _)| s);
            next = step_from(base, self.incr_dir_up == Some(true));
            if next == base || next == self.s {
                self.finish_incremental(engine, model, node, pos, rep);
                return;
            }
        }
        self.s = next;
        // An Incremental probe only perturbs the S-neighborhood: re-bin the
        // moved bodies and Enforce_S the new capacity via plan patches —
        // paying rebin + enforce + patch cost, not a full rebuild +
        // re-traversal.
        engine.rebin(pos);
        rep.lb_time += lbtime::rebin(node, pos.len());
        if engine.refresh_plan() == PlanRefresh::Rebuilt {
            // Motion flipped cells between empty and non-empty; the plan
            // had to re-traverse after all.
            rep.lb_time += lbtime::predict(node, list_entries(engine));
        }
        engine.set_s(next);
        self.enforce(engine, node, rep);
    }

    /// One Enforce_S pass through the plan, recorded and charged: the walk,
    /// its edits, and the plan patches they made.
    fn enforce<K: Kernel>(&self, engine: &mut FmmEngine<K>, node: &HeteroNode, rep: &mut LbReport) {
        let nodes_before = engine.tree().visible_nodes().len();
        let (outcome, patched) = engine.enforce_s();
        self.recorder().event(
            "lb.enforce",
            vec![
                ("collapses", telemetry::Value::U64(outcome.collapses as u64)),
                ("pushdowns", telemetry::Value::U64(outcome.pushdowns as u64)),
                ("patched", telemetry::Value::Bool(patched)),
                ("s", telemetry::Value::U64(self.s as u64)),
            ],
        );
        let edits = outcome.collapses + outcome.pushdowns;
        rep.lb_time += lbtime::enforce(node, nodes_before, edits);
        rep.lb_time += lbtime::plan_patch(node, edits);
        rep.patched = patched;
        rep.enforced = true;
    }

    /// Exit Incremental → Observation: restore the walk's best S if the
    /// walk drifted past it, then — if CPU and GPU times still differ
    /// materially — bridge the residual gap locally with FGO. The walk's
    /// best measured compute becomes Observation's regression baseline, so
    /// the baseline is in the same (possibly disturbed) units as the
    /// measurements Observation will compare against it.
    fn finish_incremental<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        rep: &mut LbReport,
    ) {
        if let Some((s_best, c_best)) = self.incr_best {
            if self.s != s_best {
                // Settling is worth a clean tree: rebuild at the walk's best
                // S rather than patching backwards through the probes.
                self.s = s_best;
                engine.rebuild(pos, self.s);
                engine.refresh_lists();
                rep.lb_time += lbtime::rebuild(node, pos.len());
                rep.rebuilt = true;
            }
            self.best_compute = c_best;
        }
        if self.cfg.use_fgo && self.strategy == Strategy::Full {
            // Gate and verify FGO on the undisturbed virtual timing so the
            // before/after comparison is apples-to-apples even when the
            // balancer's fed measurements carry noise or external load.
            let flops = engine.kernel.op_flops(engine.expansion_ops());
            let before = engine.time_step(&flops, node).ok();
            rep.lb_time += lbtime::predict(node, list_entries(engine));
            if let Some(before) = before {
                if (before.t_cpu - before.t_gpu).abs() > self.cfg.eps_switch_s {
                    let out = fine_grained_optimize(engine, model, node);
                    rep.lb_time += out.lb_time;
                    rep.fgo_rounds = out.rounds;
                    if out.rounds > 0 {
                        // The model's predicted win can be spurious away
                        // from the uniform-gap boundary; roll the edits
                        // back if they don't realize.
                        let realized = engine.time_step(&flops, node).ok().map(|t| t.compute());
                        rep.lb_time += lbtime::predict(node, list_entries(engine));
                        if matches!(realized, Some(r) if r > before.compute()) {
                            self.recorder().event(
                                "lb.fgo_rollback",
                                vec![
                                    ("before", telemetry::Value::F64(before.compute())),
                                    (
                                        "realized",
                                        telemetry::Value::F64(realized.unwrap_or(f64::NAN)),
                                    ),
                                    ("rounds", telemetry::Value::U64(out.rounds as u64)),
                                ],
                            );
                            engine.rebuild(pos, self.s);
                            engine.refresh_lists();
                            rep.lb_time += lbtime::rebuild(node, pos.len());
                            rep.rebuilt = true;
                        }
                    }
                }
            }
        }
        self.incr_best = None;
        self.incr_dir_up = None;
        self.incr_flipped = false;
        self.transition(LbState::Observation, "incremental_settled");
    }

    pub(super) fn observation_step<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        compute: f64,
        rep: &mut LbReport,
    ) {
        let limit = self.best_compute * (1.0 + REGRESSION_FRAC);
        if compute <= limit {
            self.best_compute = self.best_compute.min(compute);
            return;
        }
        // The provenance event the replay validator pairs with the enforce
        // that follows: every Observation-state Enforce_S must be preceded
        // by an `lb.regression` in the same step.
        self.recorder().event(
            "lb.regression",
            vec![
                ("compute", telemetry::Value::F64(compute)),
                ("limit", telemetry::Value::F64(limit)),
                ("best", telemetry::Value::F64(self.best_compute)),
            ],
        );
        // Regression: first line of defense is Enforce_S — through the
        // plan, so the interaction lists survive the repair.
        self.enforce(engine, node, rep);
        match self.strategy {
            Strategy::StaticS => unreachable!("StaticS freezes after Search"),
            Strategy::EnforceOnly => {
                self.reset_best_next = true;
            }
            Strategy::Full => {
                let counts = engine.refresh_lists();
                let mut pred = model.predict(&counts, node);
                if pred.compute() > limit && self.cfg.use_fgo {
                    let out = fine_grained_optimize(engine, model, node);
                    rep.lb_time += out.lb_time;
                    rep.fgo_rounds = out.rounds;
                    pred = out.prediction;
                }
                if pred.compute() > limit {
                    // Local repair failed: re-run the global adjustment.
                    self.transition(LbState::Incremental, "repair_failed");
                    self.incr_best = None;
                    self.incr_dir_up = None;
                    self.incr_flipped = false;
                }
            }
        }
    }
}

/// M2L + P2P interaction-list entries of the engine's current lists (the
/// size driver of a prediction pass).
fn list_entries<K: Kernel>(engine: &FmmEngine<K>) -> usize {
    engine.lists().num_m2l() + engine.lists().num_p2p_pairs()
}

/// Result of one [`fine_grained_optimize`] invocation.
#[derive(Clone, Copy, Debug)]
pub struct FgoOutcome {
    pub lb_time: f64,
    pub rounds: usize,
    /// Predicted times of the tree as left behind.
    pub prediction: Prediction,
}

/// Visible internal non-root nodes whose visible children are all leaves
/// ("twigs"), cheapest first — collapsing one of these trades its children's
/// M2L/L2L work for a bounded P2P increase, and is exactly invertible by
/// PushDown.
fn collapse_candidates(tree: &Octree, k: usize) -> Vec<NodeId> {
    let mut cand: Vec<NodeId> = tree
        .visible_nodes()
        .into_iter()
        .filter(|&id| {
            id != Octree::ROOT
                && !tree.node(id).is_leaf()
                && tree.node(id).count() > 0
                && tree.visible_children(id).all(|c| tree.node(c).is_leaf())
        })
        .collect();
    cand.sort_by_key(|&id| (tree.node(id).count(), id));
    cand.truncate(k);
    cand
}

/// Active leaves heavy enough to be worth splitting, heaviest first.
fn pushdown_candidates(tree: &Octree, k: usize) -> Vec<NodeId> {
    let mut cand: Vec<NodeId> = tree
        .active_leaves()
        .into_iter()
        .filter(|&id| tree.node(id).count() >= 8)
        .collect();
    cand.sort_by_key(|&id| (std::cmp::Reverse(tree.node(id).count()), id));
    cand.truncate(k);
    cand
}

/// The paper's **FineGrainedOptimize** (§VI.B): make batched local Collapse
/// (CPU too slow) or PushDown (GPU too slow) modifications, re-predicting
/// the step time after each batch via the cost model, and keep going while
/// the predicted compute time falls. The last (non-improving) batch is
/// reverted.
///
/// Edits go through the engine, which patches its plan across them: each
/// batch is charged modify + patch cost, and the recount after it is a plan
/// lookup rather than a fresh traversal.
pub fn fine_grained_optimize<K: Kernel>(
    engine: &mut FmmEngine<K>,
    model: &CostModel,
    node: &HeteroNode,
) -> FgoOutcome {
    let rec = engine.recorder().clone();
    let mut lb_time = 0.0;
    let mut counts = engine.refresh_lists();
    lb_time += lbtime::predict(node, list_entries(engine));
    let mut best = model.predict(&counts, node);
    let mut rounds = 0usize;

    while rounds < FGO_MAX_ROUNDS {
        let tree = engine.tree();
        // P2P pairs only convert to M2L when *both* cells of a pair are
        // refined, so pushdown batches must be large enough to split
        // spatially neighbouring cells together (heaviest leaves cluster);
        // a batch of one almost never improves and would stall the loop.
        let batch_size =
            ((tree.active_leaves().len() as f64 * FGO_BATCH_FRAC).ceil() as usize).max(8);
        let collapsing = best.cpu_dominant();
        let batch = if collapsing {
            collapse_candidates(tree, batch_size)
        } else {
            pushdown_candidates(tree, batch_size)
        };
        if batch.is_empty() {
            break;
        }
        let applied = apply_batch(engine, &batch, collapsing);
        if applied.is_empty() {
            break;
        }
        lb_time += lbtime::modify(node, applied.len());
        counts = engine.refresh_lists();
        lb_time += lbtime::plan_patch(node, applied.len());
        let pred = model.predict(&counts, node);
        rounds += 1;
        rec.event(
            "lb.fgo_batch",
            vec![
                ("round", telemetry::Value::U64(rounds as u64)),
                ("collapsing", telemetry::Value::Bool(collapsing)),
                ("applied", telemetry::Value::U64(applied.len() as u64)),
                ("pred_before", telemetry::Value::F64(best.compute())),
                ("pred_after", telemetry::Value::F64(pred.compute())),
                (
                    "accepted",
                    telemetry::Value::Bool(pred.compute() < best.compute()),
                ),
            ],
        );
        if pred.compute() < best.compute() {
            best = pred;
        } else {
            // Revert the non-improving batch and stop.
            let reverted = apply_batch(engine, &applied, !collapsing);
            lb_time += lbtime::modify(node, reverted.len());
            engine.refresh_lists();
            lb_time += lbtime::plan_patch(node, reverted.len());
            break;
        }
    }
    FgoOutcome {
        lb_time,
        rounds,
        prediction: best,
    }
}

/// Apply Collapse (`collapsing`) or PushDown to every node in `batch`
/// through the engine; returns the ids where the operation actually applied.
fn apply_batch<K: Kernel>(
    engine: &mut FmmEngine<K>,
    batch: &[NodeId],
    collapsing: bool,
) -> Vec<NodeId> {
    batch
        .iter()
        .copied()
        .filter(|&id| {
            if collapsing {
                engine.apply_collapse(id)
            } else {
                engine.apply_push_down(id)
            }
        })
        .collect()
}

/// Sweep S on a geometric grid and return the value minimizing the virtual
/// compute time — how the paper picks S for CPU-only runs ("the S that
/// minimized the time for this single core case") and how every strategy's
/// initial S is validated in the benches.
pub fn search_best_s_cpu_only<K: Kernel>(
    engine: &mut FmmEngine<K>,
    node: &HeteroNode,
    pos: &[geom::Vec3],
    cfg: &LbConfig,
) -> (usize, f64) {
    let flops = engine.kernel.op_flops(engine.expansion_ops());
    let mut best = (cfg.s_min, f64::INFINITY);
    let mut s = cfg.s_min;
    while s <= cfg.s_max {
        engine.rebuild(pos, s);
        // With zero online GPUs the near field folds into the CPU DAG, so
        // this timing never takes a fallible GPU path.
        let t = engine
            .time_step(&flops, node)
            .expect("CPU-side timing cannot fail")
            .compute();
        if t < best.1 {
            best = (s, t);
        }
        s = ((s as f64 * 1.6).ceil() as usize).max(s + 1);
    }
    engine.rebuild(pos, best.0);
    engine.refresh_lists();
    best
}
