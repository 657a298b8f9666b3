//! Per-state step logic of the [`LoadBalancer`] plus the paper's
//! `FineGrainedOptimize` (§VI.B) and the CPU-only S sweep.
//!
//! Tree edits made here go through the engine ([`FmmEngine::enforce_s`],
//! [`FmmEngine::apply_collapse`], ...), which patches its plan
//! ([`octree::IncrementalLists`]) across them; each is charged
//! [`lbtime::plan_patch`], and only a wholesale rebuild pays for a
//! re-traversal.

use super::{
    geometric_mid, lbtime, LbConfig, LbReport, LbState, LoadBalancer, Strategy, Walk,
    FGO_BATCH_FRAC, FGO_MAX_ROUNDS, INCR_FACTOR, INCR_TOL, PRICE_GAIN, REFINE_PRICES,
    REGRESSION_FRAC, WINDOW,
};
use crate::config::HeteroNode;
use crate::cost::{CostModel, Prediction};
use crate::engine::FmmEngine;
use fmm_math::Kernel;
use octree::{NodeId, Octree, PlanRefresh, PriceScratch};

impl LoadBalancer {
    /// Hand over from a search, with the compute it leaves with as the best
    /// seen. A warm search exits the same way a cold one does: it only
    /// localizes the crossover, and the compute-guided walk is what finds
    /// the machine's actual optimum.
    fn leave_search(&mut self, compute: f64, warm: bool) {
        let cause = if warm {
            "device_count_changed"
        } else {
            "search_settled"
        };
        self.best_compute = compute;
        let to = match self.strategy {
            Strategy::StaticS => LbState::Frozen,
            Strategy::EnforceOnly => LbState::Observation,
            Strategy::Full => LbState::Incremental,
        };
        self.transition(to, cause);
        self.walk = None;
    }

    /// Search S within one step: cold over `[s_min, s_max]`, or `warm` — in
    /// the step that sees the online device count change — over `[s/8, 8s]`
    /// around the settled S, as the crossover may move either way depending
    /// on which resource the lost or gained device relieves. The step just
    /// measured narrows the bracket; from there
    /// each candidate is priced from the tree's sorted codes
    /// ([`Octree::price`]) with the observed cost model, charged
    /// [`lbtime::predict`], and narrows it in turn. The first candidate is
    /// the bracket's geometric midpoint. Once both ends carry
    /// g = ln(t_cpu / t_gpu), the next is the regula-falsi root of g in ln S
    /// ([`regula_falsi`]), or the midpoint when that root is not strictly
    /// inside. The bracket ends when the gap is at most `eps_switch_s`, the
    /// bracket is within 1.25×, or the candidate repeats; the crossing
    /// refinement ([`LoadBalancer::refine_crossing`]) may then price a few
    /// roots closer to the crossing, and a tree at another S is rebuilt
    /// once, at the cheapest candidate priced, charged
    /// [`lbtime::rebuild`]. Each candidate is recorded as an `lb.price`
    /// event, and the compute Search leaves with — measured, or the
    /// cheapest candidate's prediction — is the best seen.
    ///
    /// The bracket chases the crossover of t_cpu and t_gpu, which need not
    /// be the optimum: the Incremental walk that follows prices on from
    /// there. In a fitted cube the prices are of the current cube's trees,
    /// and so approximate: the walk's measured steps correct them.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn search_step<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        t_cpu: f64,
        t_gpu: f64,
        warm: bool,
        rep: &mut LbReport,
    ) {
        // A node with no (online) GPUs has nothing to balance *between*: any
        // S trades CPU work against CPU work. A run that just lost its last
        // GPU falls back to the CPU-only plan — it sweeps S as the paper does
        // for CPU-only runs, charging each probe's rebuild, and the next
        // step's compute is Observation's baseline; otherwise the state
        // machine defers to an external S sweep.
        if node.num_online_gpus() == 0 {
            if !warm {
                self.leave_search(t_cpu.max(t_gpu), false);
                return;
            }
            let (s, _t, probes) = search_best_s_cpu_only(engine, node, pos, &self.cfg);
            self.s = s;
            rep.lb_time += probes as f64 * lbtime::rebuild(node, pos.len());
            rep.rebuilt = true;
            self.reset_best_next = true;
            self.walk = None;
            self.transition(LbState::Observation, "all_gpus_offline");
            return;
        }
        let (mut lo, mut hi) = (self.cfg.s_min, self.cfg.s_max);
        if warm {
            lo = (self.s / WINDOW).max(self.cfg.s_min);
            hi = self
                .s
                .saturating_mul(WINDOW)
                .min(self.cfg.s_max)
                .max(lo + 1);
        }
        debug_assert!(model.is_observed(), "Search prices with an observed model");
        let mut scratch = PriceScratch::default();
        let (mut t_cpu, mut t_gpu) = (t_cpu, t_gpu);
        // g at each end of the bracket once known, and which end moved last.
        let (mut g_lo, mut g_hi) = (None, None);
        let mut moved_lo = None;
        // Every S priced in this step, the tree just measured first.
        let here = model.predict(&engine.counts(), node);
        let mut priced = vec![(engine.tree().s_value(), here)];
        loop {
            if (t_cpu - t_gpu).abs() <= self.cfg.eps_switch_s || hi <= lo + lo / 4 {
                break;
            }
            let g = (t_cpu / t_gpu).ln();
            // CPU dominant: shift work toward the GPU with a larger S.
            let lo_moves = t_cpu > t_gpu;
            let (end, g_end, g_kept) = match lo_moves {
                true => (&mut lo, &mut g_lo, &mut g_hi),
                false => (&mut hi, &mut g_hi, &mut g_lo),
            };
            *end = self.s;
            *g_end = Some(g);
            // Illinois: an end kept twice running has its g halved, so the
            // next root moves off it.
            if moved_lo == Some(lo_moves) {
                *g_kept = g_kept.map(|g| g / 2.0);
            }
            moved_lo = Some(lo_moves);
            let next = match (g_lo, g_hi) {
                (Some(g_lo), Some(g_hi)) => regula_falsi(lo, hi, g_lo, g_hi),
                _ => None,
            };
            let next = next.unwrap_or_else(|| geometric_mid(lo, hi));
            if next == self.s {
                break;
            }
            self.s = next;
            let pred = self.price(engine, model, node, next, &mut scratch, rep);
            priced.push((next, pred));
            (t_cpu, t_gpu) = (pred.t_cpu, pred.t_gpu);
        }
        self.refine_crossing(engine, model, node, &mut priced, &mut scratch, rep);
        // The tree just measured is a point of the refinement, not a
        // candidate: Search moves to the cheapest S it priced.
        let compute = match cheapest(&priced[1..]) {
            Some((s, pred)) => {
                let c = pred.compute();
                self.s = s;
                if s != engine.tree().s_value() {
                    engine.rebuild(pos, s);
                    // Leave the plan live, as the step's timing left it.
                    engine.refresh_plan();
                    rep.lb_time += lbtime::rebuild(node, pos.len());
                    rep.rebuilt = true;
                }
                c
            }
            None => t_cpu.max(t_gpu),
        };
        self.leave_search(compute, warm);
    }

    /// Price the tree at leaf capacity `s` from the current tree's sorted
    /// codes ([`Octree::price`]) with the observed model, charge it
    /// [`lbtime::predict`], and record it as an `lb.price` event.
    fn price<K: Kernel>(
        &self,
        engine: &FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        s: usize,
        scratch: &mut PriceScratch,
        rep: &mut LbReport,
    ) -> Prediction {
        let (counts, entries) = engine.tree().price(s, engine.params().mac, scratch);
        rep.lb_time += lbtime::predict(node, entries);
        let pred = model.predict(&counts, node);
        self.recorder().event(
            "lb.price",
            vec![
                ("s", telemetry::Value::U64(s as u64)),
                ("entries", telemetry::Value::U64(entries as u64)),
                ("pred_cpu", telemetry::Value::F64(pred.t_cpu)),
                ("pred_gpu", telemetry::Value::F64(pred.t_gpu)),
            ],
        );
        pred
    }

    /// Refine toward the priced crossing of t_cpu and t_gpu. `priced` holds
    /// every S priced in this `post_step`, the tree just measured included,
    /// and gains each root priced here. While [`crossing_root`] names a root
    /// between the cheapest point and its nearest neighbour across
    /// g = ln(t_cpu / t_gpu) = 0, it prices that root ([`LoadBalancer::price`]),
    /// at most `REFINE_PRICES` times. Returns the cheapest root priced.
    pub(super) fn refine_crossing<K: Kernel>(
        &self,
        engine: &FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        priced: &mut Vec<(usize, Prediction)>,
        scratch: &mut PriceScratch,
        rep: &mut LbReport,
    ) -> Option<(usize, Prediction)> {
        let before = priced.len();
        for _ in 0..REFINE_PRICES {
            let Some(root) = crossing_root(priced) else {
                break;
            };
            let pred = self.price(engine, model, node, root, scratch, rep);
            priced.push((root, pred));
        }
        cheapest(&priced[before..])
    }

    /// The Incremental walk, steered by the price and checked by the
    /// measured compute time. From the S just measured it prices the ×1.15
    /// neighbours ([`LoadBalancer::priced_best`]) and takes one measured
    /// step to the cheapest S the price reaches downhill; where no
    /// neighbour pays, it settles at the walk's best. A measured step that
    /// comes in over the walk's best by more than `INCR_TOL` settles the
    /// walk back at its best.
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
        let mut walk = self.walk.take().unwrap_or(Walk {
            best: (self.s, compute),
        });
        if compute < walk.best.1 {
            walk.best = (self.s, compute);
        } else if compute > walk.best.1 * (1.0 + INCR_TOL) {
            self.finish_incremental(engine, model, node, pos, walk, rep);
            return;
        }
        let Some(next) = self.priced_best(engine, model, node, walk.best.0, rep) else {
            self.finish_incremental(engine, model, node, pos, walk, rep);
            return;
        };
        self.walk = Some(walk);
        self.s = next;
        // A step of the walk re-bins the moved bodies and Enforce_S's the
        // new capacity via plan patches — paying rebin + enforce + patch
        // cost, not a full rebuild + re-traversal.
        engine.rebin(pos);
        rep.lb_time += lbtime::rebin(node, pos.len());
        match engine.refresh_plan() {
            // Motion emptied or filled cells: the plan was patched through
            // each, as through an edit.
            PlanRefresh::Patched { flips, .. } => rep.lb_time += lbtime::plan_patch(node, flips),
            // The plan was stale or absent and had to re-traverse.
            PlanRefresh::Rebuilt => rep.lb_time += lbtime::predict(node, list_entries(engine)),
            PlanRefresh::Clean => {}
        }
        engine.set_s(next);
        self.enforce(engine, node, rep);
    }

    /// The S the price says to step to from the S just measured, if any.
    /// In each direction it prices the ×1.15 neighbour, and the next one on
    /// while the price falls by more than `PRICE_GAIN` from candidate to
    /// candidate, within `[s/8, 8s]`. A candidate priced exactly as the last
    /// is the same tree (`Enforce_S` changes nothing over a range of S) and
    /// is crossed, not counted as a stop. The cheapest candidate reached
    /// wins; by construction it is priced `PRICE_GAIN` below the tree just
    /// measured, whose prediction costs nothing (the model observed its
    /// counts). The crossing refinement then prices between the grid points
    /// ([`LoadBalancer::refine_crossing`]), and its cheapest root wins where
    /// it beats both. Away from the walk's best (at `best_s`) only the
    /// direction away from it is priced, so steps that do not improve on the
    /// best never lead back to it, and the walk ends.
    fn priced_best<K: Kernel>(
        &self,
        engine: &FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        best_s: usize,
        rep: &mut LbReport,
    ) -> Option<usize> {
        let mut scratch = PriceScratch::default();
        let here = model.predict(&engine.counts(), node);
        let mut priced = vec![(self.s, here)];
        let lo = (self.s / WINDOW).max(self.cfg.s_min);
        let hi = self.s.saturating_mul(WINDOW).min(self.cfg.s_max);
        let mut target: Option<(usize, f64)> = None;
        for up in [true, false] {
            if self.s != best_s && up != (self.s > best_s) {
                continue;
            }
            let (mut s, mut last) = (self.s, here);
            loop {
                let next = if up {
                    ((s as f64 * INCR_FACTOR).ceil() as usize).min(hi)
                } else {
                    ((s as f64 / INCR_FACTOR).floor() as usize).max(lo)
                };
                if next == s {
                    break;
                }
                s = next;
                let price = self.price(engine, model, node, s, &mut scratch, rep);
                priced.push((s, price));
                if price == last {
                    continue;
                }
                if price.compute() >= last.compute() * (1.0 - PRICE_GAIN) {
                    break;
                }
                last = price;
                if target.is_none_or(|(_, t)| price.compute() < t) {
                    target = Some((s, price.compute()));
                }
            }
        }
        let bar = target.map_or(here.compute() * (1.0 - PRICE_GAIN), |(_, t)| t);
        match self.refine_crossing(engine, model, node, &mut priced, &mut scratch, rep) {
            Some((s, root)) if root.compute() < bar => Some(s),
            _ => target.map(|(s, _)| s),
        }
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
    /// walk drifted past it, then — if the predicted CPU and GPU times of
    /// the settled tree still differ by more than `eps_switch_s` — bridge
    /// the residual gap locally with FGO. The walk's best measured compute
    /// becomes Observation's regression baseline, so the baseline is in the
    /// same (possibly disturbed) units as the measurements Observation will
    /// compare against it.
    fn finish_incremental<K: Kernel>(
        &mut self,
        engine: &mut FmmEngine<K>,
        model: &CostModel,
        node: &HeteroNode,
        pos: &[geom::Vec3],
        walk: Walk,
        rep: &mut LbReport,
    ) {
        self.walk = None;
        let (s_best, c_best) = walk.best;
        if self.s != s_best {
            // Settling is worth a clean tree: rebuild at the walk's best S
            // rather than patching backwards through the probes.
            self.s = s_best;
            engine.rebuild(pos, self.s);
            engine.refresh_lists();
            rep.lb_time += lbtime::rebuild(node, pos.len());
            rep.rebuilt = true;
        }
        self.best_compute = c_best;
        if self.cfg.use_fgo && self.strategy == Strategy::Full {
            // Gate on the settled tree's price, which costs nothing: the
            // plan holds its counts (reconciled here with a rebin made since
            // the step was timed, as the next step's timing would). The
            // model judges FGO's batches too, and reverts the one that
            // does not pay.
            let settled = model.predict(&engine.refresh_lists(), node);
            if (settled.t_cpu - settled.t_gpu).abs() > self.cfg.eps_switch_s {
                let out = fine_grained_optimize(engine, model, node);
                rep.lb_time += out.lb_time;
                rep.fgo_rounds = out.rounds;
            }
        }
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
                    self.walk = None;
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

/// The first of the cheapest points in `priced`.
fn cheapest(priced: &[(usize, Prediction)]) -> Option<(usize, Prediction)> {
    priced
        .iter()
        .copied()
        .min_by(|a, b| a.1.compute().total_cmp(&b.1.compute()))
}

/// The next S the crossing refinement prices, if any: the regula-falsi root
/// ([`regula_falsi`]) between the cheapest point of `priced` and its nearest
/// neighbour (in ln S) on the other side of g = ln(t_cpu / t_gpu) = 0. There
/// is none when no point lies across, when the crossing of t_cpu and t_gpu,
/// each interpolated linearly between the two points, is not priced more
/// than `PRICE_GAIN` below the cheapest point (a free estimate), or when the
/// root is not strictly inside or was priced already.
pub(super) fn crossing_root(priced: &[(usize, Prediction)]) -> Option<usize> {
    let gap = |p: &Prediction| p.t_cpu - p.t_gpu;
    let (s, p) = cheapest(priced)?;
    let dist = |t: usize| (t as f64 / s as f64).ln().abs();
    let &(t, q) = priced
        .iter()
        .filter(|(_, q)| gap(&p) * gap(q) < 0.0)
        .min_by(|a, b| dist(a.0).total_cmp(&dist(b.0)))?;
    let w = gap(&p) / (gap(&p) - gap(&q));
    let at_crossing = p.t_cpu + w * (q.t_cpu - p.t_cpu);
    if at_crossing >= p.compute() * (1.0 - PRICE_GAIN) {
        return None;
    }
    let g = |p: &Prediction| (p.t_cpu / p.t_gpu).ln();
    let root = match s < t {
        true => regula_falsi(s, t, g(&p), g(&q)),
        false => regula_falsi(t, s, g(&q), g(&p)),
    }?;
    (!priced.iter().any(|&(s, _)| s == root)).then_some(root)
}

/// The root in `(lo, hi)` of the line through `(ln lo, g_lo)` and
/// `(ln hi, g_hi)`, rounded to a leaf capacity, when it falls strictly
/// inside: regula falsi in ln S, where t_cpu/t_gpu moves by powers.
fn regula_falsi(lo: usize, hi: usize, g_lo: f64, g_hi: f64) -> Option<usize> {
    let (x_lo, x_hi) = ((lo as f64).ln(), (hi as f64).ln());
    let x = x_lo + g_lo * (x_hi - x_lo) / (g_lo - g_hi);
    let s = x.exp().round();
    (s > lo as f64 && s < hi as f64).then_some(s as usize)
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

/// Sweep S on a geometric grid and return `(S, compute, probes)`: the value
/// minimizing the virtual compute time, that time, and how many S values
/// the sweep rebuilt the tree for — how the paper picks S for CPU-only runs
/// ("the S that minimized the time for this single core case"), and what
/// the balancer falls back to when its last GPU goes offline.
pub fn search_best_s_cpu_only<K: Kernel>(
    engine: &mut FmmEngine<K>,
    node: &HeteroNode,
    pos: &[geom::Vec3],
    cfg: &LbConfig,
) -> (usize, f64, usize) {
    let flops = engine.kernel.op_flops(engine.expansion_ops());
    let mut best = (cfg.s_min, f64::INFINITY);
    let mut probes = 0usize;
    let mut s = cfg.s_min;
    while s <= cfg.s_max {
        probes += 1;
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
    (best.0, best.1, probes)
}
