//! Incrementally-patchable interaction lists: the octree half of the
//! persistent execution plan.
//!
//! [`crate::dual_traversal`] recomputes every M2L/P2P list from scratch, but
//! the paper's Collapse/PushDown are *local* edits: for an edit at node `e`,
//! the only emitted pairs that change are those with at least one endpoint in
//! the visible subtree of `e` (before or after the edit). Every other state
//! the traversal visits makes the same split/accept decision, because those
//! decisions depend only on geometry, populations and leafness of nodes
//! outside the edited subtree — all unchanged.
//!
//! [`IncrementalLists`] exploits this: it keeps the lists of a full traversal
//! together with *inverse* lists (`rev_m2l[b]` = every target whose M2L list
//! contains `b`), so all list entries referencing an edited node are found in
//! O(degree). A patch then
//!
//! 1. removes every entry with an endpoint in the pre-edit visible subtree,
//! 2. applies the tree edit,
//! 3. re-runs the dual traversal *restricted* to states related to the edit
//!    (ancestor-or-subtree on either side; unrelated×unrelated states are
//!    pruned), emitting only pairs with an endpoint in the post-edit subtree,
//! 4. recomputes the per-node [`OpCounts`] contributions of the dirty set —
//!    the edited subtree plus every target whose list was touched.
//!
//! Per-node contributions are cached so totals update by subtraction and
//! re-addition of only the dirty nodes.

use crate::node::{NodeId, Octree};
use crate::stats::{node_op_counts, OpCounts};
use crate::traversal::{
    empty_lists, fork_width, reserve_exactly, trim, InteractionLists, Mac, Traversal,
};
use rayon::prelude::*;

/// How [`IncrementalLists::refresh_counts`] serviced a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanRefresh {
    /// No population changed; nothing to do.
    Clean,
    /// Populations moved without a visible flip: every visible node's
    /// contribution was recounted in place (`recounted` of them).
    Patched { recounted: usize },
    /// A visible cell flipped between empty and non-empty (or the arena
    /// grew), which changes the traversal itself — the plan re-traversed.
    Rebuilt,
}

/// Plain-data image of an [`IncrementalLists`] for checkpointing. The list
/// *order* is part of the state: downstream float summation follows list
/// iteration order, so a restored plan must replay entries verbatim — never
/// re-derive them from a fresh traversal — for bit-identical continuation.
#[derive(Clone, Debug)]
pub struct ListsSnapshot {
    pub theta: f64,
    pub m2l: Vec<Vec<NodeId>>,
    pub p2p: Vec<Vec<NodeId>>,
    pub rev_m2l: Vec<Vec<NodeId>>,
    pub rev_p2p: Vec<Vec<NodeId>>,
    pub node_counts: Vec<OpCounts>,
    pub totals: OpCounts,
    pub body_count: Vec<u32>,
    pub stamp: Vec<u32>,
    pub epoch: u32,
}

/// Relatedness of a traversal-state endpoint to the edited node: outside its
/// story entirely, a (strict or non-strict) ancestor, or inside the post-edit
/// visible subtree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rel {
    Out,
    Anc,
    Sub,
}

/// Interaction lists + per-node op counts that are patched through
/// [`Octree::collapse`] / [`Octree::push_down`] edits instead of recomputed.
#[derive(Clone, Debug)]
pub struct IncrementalLists {
    mac: Mac,
    lists: InteractionLists,
    /// `rev_m2l[b]` = every target `a` with `b ∈ lists.m2l[a]` (a multiset:
    /// ascending after a rebuild, in patch order after edits). The O(degree)
    /// handle on "who references this node?".
    rev_m2l: Vec<Vec<NodeId>>,
    /// Likewise for P2P source lists.
    rev_p2p: Vec<Vec<NodeId>>,
    /// Cached contribution of each node to `totals` (zero when invisible).
    node_counts: Vec<OpCounts>,
    totals: OpCounts,
    /// Population snapshot at the last build/patch/refresh — the
    /// emptiness-flip detector for [`IncrementalLists::refresh_counts`].
    body_count: Vec<u32>,
    /// Epoch-stamped scratch marks (ancestor path, dirty dedup, visibility)
    /// so per-patch set membership needs no O(n) clear.
    stamp: Vec<u32>,
    epoch: u32,
    /// Warm DFS stack for [`IncrementalLists::refresh_counts`]'s visibility
    /// walk; pure scratch, excluded from snapshots and audits.
    walk: Vec<NodeId>,
    /// Warm buffers of [`IncrementalLists::rebuild`]'s traversal and
    /// inverse lists; pure scratch.
    traversal: Traversal,
    inverse: InverseScratch,
}

fn remove_one(v: &mut Vec<NodeId>, x: NodeId) {
    if let Some(pos) = v.iter().position(|&e| e == x) {
        v.swap_remove(pos);
    }
}

/// The post-/pre-edit visible subtree rooted at `id`, including `id`.
fn visible_subtree(tree: &Octree, id: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(n) = stack.pop() {
        out.push(n);
        for c in tree.visible_children(n) {
            stack.push(c);
        }
    }
    out
}

/// Empty `v` and refill it with `n` copies of `value`, in place.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
    trim(v);
}

/// Warm buffers of [`IncrementalLists::fill_inverse_lists`]; pure scratch.
#[derive(Clone, Debug, Default)]
struct InverseScratch {
    /// One row per id range, each `[M2L | P2P]`, `2n` counts long:
    /// `rows[w][b]` counts the entries naming source `b` in range `w`'s
    /// targets.
    rows: Vec<u32>,
    /// `spread[a][kind]`: the lowest and highest source target `a`'s M2L
    /// (`kind` 0) or P2P (1) list names.
    spread: Vec<[(NodeId, NodeId); 2]>,
}

impl InverseScratch {
    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u32>()
            + self.spread.capacity() * std::mem::size_of::<[(NodeId, NodeId); 2]>()
    }
}

/// Recount every node's contribution into `counts` (length the arena's),
/// `visible` deciding which count — the rest are zero — through `workers`,
/// one range of nodes each. Returns their total.
fn count_nodes(
    tree: &Octree,
    lists: &InteractionLists,
    counts: &mut [OpCounts],
    workers: usize,
    visible: impl Fn(NodeId) -> bool + Sync,
) -> OpCounts {
    let chunk = counts.len().div_ceil(workers).max(1);
    counts
        .par_chunks_mut(chunk)
        .enumerate()
        .for_each(|(w, counts)| {
            for (id, c) in (w * chunk..).zip(counts) {
                let id = id as NodeId;
                *c = match visible(id) {
                    true => node_op_counts(tree, lists, id),
                    false => OpCounts::default(),
                };
            }
        });
    let mut totals = OpCounts::default();
    for &c in counts.iter() {
        totals += c;
    }
    totals
}

impl IncrementalLists {
    /// Full build: one dual traversal plus inverse lists and per-node counts.
    pub fn build(tree: &Octree, mac: Mac) -> Self {
        let mut plan = IncrementalLists {
            mac,
            lists: InteractionLists::default(),
            rev_m2l: Vec::new(),
            rev_p2p: Vec::new(),
            node_counts: Vec::new(),
            totals: OpCounts::default(),
            body_count: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            walk: Vec::new(),
            traversal: Traversal::default(),
            inverse: InverseScratch::default(),
        };
        plan.rebuild(tree);
        plan
    }

    /// Throw the incremental state away and re-derive everything from a
    /// fresh traversal of `tree`, into the storage the plan already holds.
    ///
    /// From `MIN_FORK_NODES` (1 024) arena nodes up each stage
    /// runs through workers — the traversal one task per child of the root,
    /// the inverse lists one range of targets and then one of sources per
    /// worker, the per-node counts one range of nodes per worker — and every
    /// list comes out the
    /// same, entry for entry and in order, at any width. Once warm, a
    /// rebuild of an unchanged tree allocates nothing on one worker and only
    /// the forks' bookkeeping on more.
    pub fn rebuild(&mut self, tree: &Octree) {
        let n = tree.num_nodes();
        let workers = fork_width(tree);
        self.traversal
            .fill(tree, self.mac, &mut self.lists, workers);
        self.fill_inverse_lists(workers);

        refill(&mut self.node_counts, n, OpCounts::default());
        self.totals = count_nodes(tree, &self.lists, &mut self.node_counts, workers, |id| {
            tree.is_visible(id)
        });
        self.body_count.clear();
        self.body_count
            .extend((0..n).map(|i| tree.node(i as NodeId).count() as u32));
        trim(&mut self.body_count);
        refill(&mut self.stamp, n, 0);
        self.epoch = 0;
    }

    /// Refill `rev_m2l`/`rev_p2p` from the forward lists, each at exactly
    /// its length, every `rev_*[b]` in ascending target order. Node ids are
    /// cut into one range per worker. A first fork gives each worker a
    /// range of targets: it counts the entries naming each source into a
    /// row of its own, and notes the lowest and highest source each list
    /// names. A second gives each worker a range of sources: it sums their
    /// rows and reserves, then scans, in ascending id, only the lists whose
    /// sources reach its range. An entry is read once to count and once
    /// more for every range its list spans — lists name nearby cells, so
    /// mostly one.
    fn fill_inverse_lists(&mut self, workers: usize) {
        let n = self.lists.m2l.len();
        for rev in [&mut self.rev_m2l, &mut self.rev_p2p] {
            empty_lists(rev, n);
        }
        let span = n.div_ceil(workers).max(1);
        let InverseScratch { rows, spread } = &mut self.inverse;
        refill(rows, 2 * n * n.div_ceil(span), 0);
        refill(spread, n, [(NodeId::MAX, 0); 2]);
        let lists = &self.lists;
        let kinds = || [&lists.m2l, &lists.p2p].into_iter().enumerate();
        rows.par_chunks_mut((2 * n).max(1))
            .zip(spread.par_chunks_mut(span))
            .enumerate()
            .for_each(|(w, (row, spread))| {
                for (a, spread) in (w * span..).zip(spread) {
                    for (kind, fwd) in kinds() {
                        let (low, high) = &mut spread[kind];
                        for &b in &fwd[a] {
                            row[kind * n + b as usize] += 1;
                            (*low, *high) = ((*low).min(b), (*high).max(b));
                        }
                    }
                }
            });
        let (rows, spread) = (&**rows, &**spread);
        self.rev_m2l
            .par_chunks_mut(span)
            .zip(self.rev_p2p.par_chunks_mut(span))
            .enumerate()
            .for_each(|(r, (rev_m2l, rev_p2p))| {
                let first = r * span;
                for ((kind, fwd), rev) in kinds().zip([rev_m2l, rev_p2p]) {
                    for (b, list) in (first..).zip(rev.iter_mut()) {
                        let count = rows[kind * n + b..].iter().step_by(2 * n).sum::<u32>();
                        reserve_exactly(list, count as usize);
                    }
                    let mine = first..first + rev.len();
                    for (a, sources) in fwd.iter().enumerate() {
                        let (low, high) = spread[a][kind];
                        if high < first as NodeId || low as usize >= mine.end {
                            continue;
                        }
                        for &b in sources.iter().filter(|&&b| mine.contains(&(b as usize))) {
                            rev[b as usize - first].push(a as NodeId);
                        }
                    }
                }
            });
    }

    pub fn mac(&self) -> Mac {
        self.mac
    }

    /// Structural heap footprint of the plan: forward and inverse lists at
    /// capacity granularity, the per-node caches, and the warm refresh and
    /// rebuild scratch. Counterpart of [`Octree::heap_bytes`] for the list
    /// half of the execution plan.
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes()
            + crate::traversal::nested_vec_bytes(&self.rev_m2l)
            + crate::traversal::nested_vec_bytes(&self.rev_p2p)
            + self.node_counts.capacity() * std::mem::size_of::<OpCounts>()
            + self.body_count.capacity() * std::mem::size_of::<u32>()
            + self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.walk.capacity() * std::mem::size_of::<NodeId>()
            + self.traversal.heap_bytes()
            + self.inverse.heap_bytes()
    }

    pub fn lists(&self) -> &InteractionLists {
        &self.lists
    }

    /// Totals over all cached per-node contributions — element-wise equal to
    /// [`crate::count_ops`] on the current tree and lists.
    pub fn counts(&self) -> OpCounts {
        self.totals
    }

    /// Monotone patch/refresh epoch; the supervisor reads it to verify the
    /// plan's clock never runs backwards across steps.
    #[inline]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Capture the complete plan state — lists in their exact stored order,
    /// inverse lists, cached per-node counts, stamps and epoch — for
    /// checkpointing.
    pub fn snapshot(&self) -> ListsSnapshot {
        ListsSnapshot {
            theta: self.mac.theta,
            m2l: self.lists.m2l.clone(),
            p2p: self.lists.p2p.clone(),
            rev_m2l: self.rev_m2l.clone(),
            rev_p2p: self.rev_p2p.clone(),
            node_counts: self.node_counts.clone(),
            totals: self.totals,
            body_count: self.body_count.clone(),
            stamp: self.stamp.clone(),
            epoch: self.epoch,
        }
    }

    /// Reconstruct a plan from a snapshot verbatim. Validation is the
    /// caller's job (run [`IncrementalLists::audit`] against the restored
    /// tree); this constructor only checks array-shape agreement and that
    /// θ is one [`Mac::new`] accepts.
    pub fn from_snapshot(snap: ListsSnapshot) -> Result<IncrementalLists, String> {
        if !(snap.theta > 0.0 && snap.theta <= 1.0) {
            return Err(format!("plan MAC theta {} out of (0, 1]", snap.theta));
        }
        let n = snap.m2l.len();
        if snap.p2p.len() != n
            || snap.rev_m2l.len() != n
            || snap.rev_p2p.len() != n
            || snap.node_counts.len() != n
            || snap.body_count.len() != n
            || snap.stamp.len() != n
        {
            return Err("plan snapshot arrays disagree on node count".into());
        }
        Ok(IncrementalLists {
            mac: Mac::new(snap.theta),
            lists: InteractionLists {
                m2l: snap.m2l,
                p2p: snap.p2p,
            },
            rev_m2l: snap.rev_m2l,
            rev_p2p: snap.rev_p2p,
            node_counts: snap.node_counts,
            totals: snap.totals,
            body_count: snap.body_count,
            stamp: snap.stamp,
            epoch: snap.epoch,
            // Scratch is not state: a restored plan re-warms on first refresh.
            walk: Vec::new(),
            traversal: Traversal::default(),
            inverse: InverseScratch::default(),
        })
    }

    /// Verify the plan's internal invariants against `tree`. Valid on a
    /// *quiescent* plan — one whose last operation was a build, patch or
    /// [`IncrementalLists::refresh_counts`] — which is how the supervisor
    /// calls it (after a completed step, before trusting cached state).
    ///
    /// Checks, in order: array shapes; stamp/epoch monotonicity (no scratch
    /// mark may postdate the epoch clock); inverse-list symmetry as exact
    /// multiset equality in both directions; per-node [`OpCounts`] agreement
    /// with a recount of every visible node (and zero contributions from
    /// hidden ones); totals equal to the sum of cached contributions; and the
    /// population snapshot matching the tree.
    pub fn audit(&self, tree: &Octree) -> Result<(), String> {
        let n = tree.num_nodes();
        if self.lists.m2l.len() != n
            || self.lists.p2p.len() != n
            || self.rev_m2l.len() != n
            || self.rev_p2p.len() != n
            || self.node_counts.len() != n
            || self.body_count.len() != n
            || self.stamp.len() != n
        {
            return Err(format!(
                "plan arrays sized for {} nodes but tree has {n}",
                self.lists.m2l.len()
            ));
        }
        for (i, &s) in self.stamp.iter().enumerate() {
            if s > self.epoch {
                return Err(format!(
                    "stamp[{i}] = {s} postdates plan epoch {}",
                    self.epoch
                ));
            }
        }
        // Inverse-list symmetry: rebuild the reverse mapping from the forward
        // lists and require multiset equality per node.
        let mut want_rev_m2l: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut want_rev_p2p: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for a in 0..n {
            for &b in &self.lists.m2l[a] {
                if b as usize >= n {
                    return Err(format!("m2l[{a}] references node {b} out of range"));
                }
                want_rev_m2l[b as usize].push(a as NodeId);
            }
            for &b in &self.lists.p2p[a] {
                if b as usize >= n {
                    return Err(format!("p2p[{a}] references node {b} out of range"));
                }
                want_rev_p2p[b as usize].push(a as NodeId);
            }
        }
        for b in 0..n {
            let mut want = want_rev_m2l[b].clone();
            let mut got = self.rev_m2l[b].clone();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                return Err(format!("rev_m2l[{b}] is not the mirror of the M2L lists"));
            }
            let mut want = want_rev_p2p[b].clone();
            let mut got = self.rev_p2p[b].clone();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                return Err(format!("rev_p2p[{b}] is not the mirror of the P2P lists"));
            }
        }
        // OpCounts consistency: cached contributions must recount, and the
        // totals must be their sum.
        let mut sum = OpCounts::default();
        let mut visible = vec![false; n];
        for id in tree.visible_nodes() {
            visible[id as usize] = true;
            let want = node_op_counts(tree, &self.lists, id);
            if self.node_counts[id as usize] != want {
                return Err(format!(
                    "node_counts[{id}] = {:?} but recount gives {want:?}",
                    self.node_counts[id as usize]
                ));
            }
        }
        for (i, c) in self.node_counts.iter().enumerate() {
            if !visible[i] && *c != OpCounts::default() {
                return Err(format!("hidden node {i} carries nonzero counts"));
            }
            sum += *c;
        }
        if sum != self.totals {
            return Err(format!(
                "totals {:?} differ from per-node sum {sum:?}",
                self.totals
            ));
        }
        for i in 0..n {
            let now = tree.node(i as NodeId).count() as u32;
            if self.body_count[i] != now {
                return Err(format!(
                    "body_count[{i}] = {} but tree holds {now}",
                    self.body_count[i]
                ));
            }
        }
        Ok(())
    }

    /// Chaos-harness corruption hook: silently drop the tail entry of the
    /// first non-empty M2L (or, failing that, P2P) list *without* updating
    /// the inverse lists or counts — exactly the kind of rot
    /// [`IncrementalLists::audit`] must catch. Returns false when there was
    /// nothing to truncate.
    pub fn corrupt_truncate_list(&mut self) -> bool {
        if let Some(l) = self.lists.m2l.iter_mut().find(|l| !l.is_empty()) {
            l.pop();
            return true;
        }
        if let Some(l) = self.lists.p2p.iter_mut().find(|l| !l.is_empty()) {
            l.pop();
            return true;
        }
        false
    }

    /// Chaos-harness corruption hook: wind the epoch clock backwards while
    /// leaving newer scratch stamps in place — a stale-epoch cache whose
    /// dedup marks no longer mean what they claim. Returns false when the
    /// plan has never been stamped (nothing to go stale).
    pub fn corrupt_stale_epoch(&mut self) -> bool {
        if self.stamp.iter().all(|&s| s == 0) {
            return false;
        }
        self.epoch = 0;
        true
    }

    /// Patch the plan through `tree.collapse(id)`. Returns false (tree and
    /// plan untouched) when the collapse is a no-op.
    pub fn apply_collapse(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let _mem = telemetry::AllocScope::enter("plan.patch");
        if tree.node(id).is_leaf() {
            return false;
        }
        let affected_old = visible_subtree(tree, id);
        let done = tree.collapse(id);
        debug_assert!(done);
        self.patch(tree, id, &affected_old);
        true
    }

    /// Patch the plan through `tree.push_down(id)`. Returns false (tree and
    /// plan untouched) when the push-down is refused.
    pub fn apply_push_down(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let _mem = telemetry::AllocScope::enter("plan.patch");
        if !tree.push_down(id) {
            return false;
        }
        self.patch(tree, id, &[id]);
        true
    }

    /// Reconcile per-node counts after body motion ([`Octree::rebin`]): the
    /// structure is unchanged, but leaf populations — and with them P2P pair
    /// counts and P2M/L2P body counts — moved. If any *visible* node flipped
    /// between empty and non-empty the traversal shape itself changed (empty
    /// cells are skipped), so the plan falls back to one full re-traversal.
    /// The flip check is serial; when populations moved without a flip,
    /// every visible node's contribution is recounted through workers, one
    /// range of nodes each, as a rebuild counts. The Clean/Patched paths
    /// perform **zero heap allocations** on one worker once the plan's
    /// scratch is warm — the steady-state invariant gated by the
    /// `memory_profile` scenario via the `plan.refresh` allocation scope —
    /// and only the recount's fork bookkeeping on more. Only the Rebuilt
    /// fallback (an emptiness flip or arena growth) and the first,
    /// buffer-warming call may touch the allocator otherwise.
    pub fn refresh_counts(&mut self, tree: &Octree) -> PlanRefresh {
        let _mem = telemetry::AllocScope::enter("plan.refresh");
        let n = tree.num_nodes();
        if self.body_count.len() != n {
            self.rebuild(tree);
            return PlanRefresh::Rebuilt;
        }
        // Mark the visible set: flips on hidden nodes (stale ranges under a
        // collapsed subtree) are invisible to the traversal and harmless.
        // The DFS runs on the warm `walk` stack instead of materialising
        // `tree.visible_nodes()`; stamping order is irrelevant.
        self.epoch += 1;
        let visible = self.epoch;
        let mut walk = std::mem::take(&mut self.walk);
        walk.clear();
        // Each node enters the stack exactly once, so `n` bounds its depth.
        if walk.capacity() < n {
            walk.reserve(n - walk.len());
        }
        walk.push(Octree::ROOT);
        let mut seen = 0;
        while let Some(id) = walk.pop() {
            self.stamp[id as usize] = visible;
            seen += 1;
            let node = tree.node(id);
            if !node.is_leaf() {
                for o in 0..8 {
                    walk.push(node.first_child + o);
                }
            }
        }
        self.walk = walk;
        let mut moved = false;
        for i in 0..n {
            let now = tree.node(i as NodeId).count() as u32;
            let before = self.body_count[i];
            if now == before {
                continue;
            }
            let shown = self.stamp[i] == visible;
            if shown && (now == 0) != (before == 0) {
                self.rebuild(tree);
                return PlanRefresh::Rebuilt;
            }
            self.body_count[i] = now;
            moved |= shown;
        }
        if !moved {
            return PlanRefresh::Clean;
        }
        let stamp = &self.stamp;
        self.totals = count_nodes(
            tree,
            &self.lists,
            &mut self.node_counts,
            fork_width(tree),
            |id| stamp[id as usize] == visible,
        );
        PlanRefresh::Patched { recounted: seen }
    }

    /// Recompute the cached contributions of `dirty` (dedup via stamps) and
    /// fold them into the totals.
    fn recount(&mut self, tree: &Octree, dirty: &[NodeId]) {
        self.epoch += 1;
        let epoch = self.epoch;
        for &d in dirty {
            let di = d as usize;
            if self.stamp[di] == epoch {
                continue;
            }
            self.stamp[di] = epoch;
            self.totals -= self.node_counts[di];
            let c = if tree.is_visible(d) {
                node_op_counts(tree, &self.lists, d)
            } else {
                OpCounts::default()
            };
            self.node_counts[di] = c;
            self.totals += c;
            self.body_count[di] = tree.node(d).count() as u32;
        }
    }

    /// The shared patch path: `edit` has just been collapsed or pushed down;
    /// `affected_old` is its pre-edit visible subtree.
    fn patch(&mut self, tree: &Octree, edit: NodeId, affected_old: &[NodeId]) {
        let n = tree.num_nodes();
        if self.lists.m2l.len() < n {
            // A push-down drew eight fresh nodes from the arena.
            self.lists.m2l.resize_with(n, Vec::new);
            self.lists.p2p.resize_with(n, Vec::new);
            self.rev_m2l.resize_with(n, Vec::new);
            self.rev_p2p.resize_with(n, Vec::new);
            self.node_counts.resize(n, OpCounts::default());
            self.body_count.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        let mut dirty: Vec<NodeId> = Vec::new();

        // 1. Drop every list entry with an endpoint in the old subtree. The
        //    inverse lists make the source side O(degree); removals tolerate
        //    already-cleared targets (both endpoints in the subtree).
        for &a in affected_old {
            let ai = a as usize;
            let m2l_a = std::mem::take(&mut self.lists.m2l[ai]);
            for &b in &m2l_a {
                remove_one(&mut self.rev_m2l[b as usize], a);
            }
            let p2p_a = std::mem::take(&mut self.lists.p2p[ai]);
            for &b in &p2p_a {
                remove_one(&mut self.rev_p2p[b as usize], a);
            }
            let rm = std::mem::take(&mut self.rev_m2l[ai]);
            for &t in &rm {
                remove_one(&mut self.lists.m2l[t as usize], a);
                dirty.push(t);
            }
            let rp = std::mem::take(&mut self.rev_p2p[ai]);
            for &t in &rp {
                remove_one(&mut self.lists.p2p[t as usize], a);
                dirty.push(t);
            }
            dirty.push(a);
        }

        // 2. Restricted dual traversal: same decisions as a fresh traversal
        //    of the post-edit tree, but states unrelated to the edit on both
        //    sides are pruned, and only pairs with an endpoint in the new
        //    subtree are emitted (everything else is already in the lists).
        self.epoch += 1;
        let anc = self.epoch;
        {
            let mut u = edit;
            loop {
                self.stamp[u as usize] = anc;
                if u == Octree::ROOT {
                    break;
                }
                u = tree.node(u).parent;
            }
        }
        if tree.node(Octree::ROOT).count() > 0 {
            let root_rel = if edit == Octree::ROOT {
                Rel::Sub
            } else {
                Rel::Anc
            };
            let mut stack: Vec<(NodeId, NodeId, Rel, Rel)> =
                vec![(Octree::ROOT, Octree::ROOT, root_rel, root_rel)];
            while let Some((a, b, ra, rb)) = stack.pop() {
                let na = tree.node(a);
                let nb = tree.node(b);
                if na.count() == 0 || nb.count() == 0 {
                    continue;
                }
                if a != b && self.mac.accepts(tree, a, b) {
                    if ra == Rel::Sub || rb == Rel::Sub {
                        self.lists.m2l[a as usize].push(b);
                        self.rev_m2l[b as usize].push(a);
                        dirty.push(a);
                    }
                    continue;
                }
                let a_leaf = na.is_leaf();
                let b_leaf = nb.is_leaf();
                if a_leaf && b_leaf {
                    if ra == Rel::Sub || rb == Rel::Sub {
                        self.lists.p2p[a as usize].push(b);
                        self.rev_p2p[b as usize].push(a);
                        dirty.push(a);
                    }
                    continue;
                }
                let stamp = &self.stamp;
                let child_rel = |parent: Rel, child: NodeId| match parent {
                    Rel::Sub => Rel::Sub,
                    Rel::Out => Rel::Out,
                    Rel::Anc => {
                        if child == edit {
                            Rel::Sub
                        } else if stamp[child as usize] == anc {
                            Rel::Anc
                        } else {
                            Rel::Out
                        }
                    }
                };
                let split_a = !a_leaf && (b_leaf || na.half_width >= nb.half_width);
                if split_a {
                    for c in tree.visible_children(a) {
                        let rc = child_rel(ra, c);
                        if rc == Rel::Out && rb == Rel::Out {
                            continue;
                        }
                        stack.push((c, b, rc, rb));
                    }
                } else {
                    for c in tree.visible_children(b) {
                        let rc = child_rel(rb, c);
                        if ra == Rel::Out && rc == Rel::Out {
                            continue;
                        }
                        stack.push((a, c, ra, rc));
                    }
                }
            }
        }

        // 3. Everything in the new subtree gets a fresh contribution (newly
        //    visible nodes need one, the edited node changed role); hidden
        //    old-subtree nodes drop to zero via the visibility check.
        dirty.extend(visible_subtree(tree, edit));
        self.recount(tree, &dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_adaptive, BuildParams};
    use crate::stats::count_ops;
    use crate::traversal::dual_traversal;
    use geom::Vec3;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Vec3::new(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                )
            })
            .collect()
    }

    fn normalized(lists: &InteractionLists) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
        let sort = |v: &[Vec<NodeId>]| {
            v.iter()
                .map(|l| {
                    let mut l = l.clone();
                    l.sort_unstable();
                    l
                })
                .collect::<Vec<_>>()
        };
        (sort(&lists.m2l), sort(&lists.p2p))
    }

    /// Patched plan ≡ fresh traversal + fresh counts, order-insensitively.
    fn assert_matches_fresh(tree: &Octree, plan: &IncrementalLists) {
        let fresh = dual_traversal(tree, plan.mac());
        assert_eq!(
            normalized(plan.lists()),
            normalized(&fresh),
            "lists diverged"
        );
        assert_eq!(plan.counts(), count_ops(tree, &fresh), "counts diverged");
        // Inverse lists must mirror the forward lists exactly.
        let mut rev_m2l = vec![Vec::new(); tree.num_nodes()];
        let mut rev_p2p = vec![Vec::new(); tree.num_nodes()];
        for a in 0..tree.num_nodes() {
            for &b in &plan.lists().m2l[a] {
                rev_m2l[b as usize].push(a as NodeId);
            }
            for &b in &plan.lists().p2p[a] {
                rev_p2p[b as usize].push(a as NodeId);
            }
        }
        for b in 0..tree.num_nodes() {
            let mut want = rev_m2l[b].clone();
            let mut got = plan.rev_m2l[b].clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "rev_m2l[{b}] diverged");
            let mut want = rev_p2p[b].clone();
            let mut got = plan.rev_p2p[b].clone();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "rev_p2p[{b}] diverged");
        }
    }

    #[test]
    fn build_matches_dual_traversal() {
        let pos = random_points(900, 71);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let plan = IncrementalLists::build(&tree, Mac::default());
        assert_matches_fresh(&tree, &plan);
    }

    #[test]
    fn collapse_patch_matches_fresh() {
        let pos = random_points(1200, 72);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(12));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        let internals: Vec<NodeId> = tree
            .visible_nodes()
            .into_iter()
            .filter(|&id| !tree.node(id).is_leaf() && id != Octree::ROOT)
            .take(6)
            .collect();
        for id in internals {
            assert!(plan.apply_collapse(&mut tree, id));
            assert_matches_fresh(&tree, &plan);
        }
    }

    #[test]
    fn pushdown_patch_matches_fresh() {
        let pos = random_points(1200, 73);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(48));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        let leaves: Vec<NodeId> = tree
            .active_leaves()
            .into_iter()
            .filter(|&id| tree.node(id).count() > 8)
            .take(6)
            .collect();
        assert!(!leaves.is_empty());
        for id in leaves {
            assert!(plan.apply_push_down(&mut tree, id));
            assert_matches_fresh(&tree, &plan);
        }
    }

    #[test]
    fn collapse_then_reclaiming_pushdown_roundtrips() {
        let pos = random_points(800, 74);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(16));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        let id = tree
            .visible_nodes()
            .into_iter()
            .find(|&id| !tree.node(id).is_leaf() && id != Octree::ROOT)
            .unwrap();
        assert!(plan.apply_collapse(&mut tree, id));
        assert_matches_fresh(&tree, &plan);
        assert!(plan.apply_push_down(&mut tree, id));
        assert_matches_fresh(&tree, &plan);
    }

    #[test]
    fn collapse_of_root_patches_whole_tree() {
        let pos = random_points(400, 75);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(8));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        assert!(plan.apply_collapse(&mut tree, Octree::ROOT));
        assert_matches_fresh(&tree, &plan);
        assert_eq!(plan.lists().num_m2l(), 0);
    }

    #[test]
    fn noop_edits_leave_plan_untouched() {
        let pos = random_points(300, 76);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(8));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        let leaf = tree.active_leaves()[0];
        assert!(
            !plan.apply_collapse(&mut tree, leaf),
            "collapse of a leaf is a no-op"
        );
        let internal = tree
            .visible_nodes()
            .into_iter()
            .find(|&id| !tree.node(id).is_leaf())
            .unwrap();
        assert!(
            !plan.apply_push_down(&mut tree, internal),
            "push_down of an internal no-ops"
        );
        assert_matches_fresh(&tree, &plan);
    }

    #[test]
    fn random_edit_sequence_stays_consistent() {
        let pos = random_points(1500, 77);
        let tree = build_adaptive(&pos, BuildParams::with_s(20));
        for theta in [0.35, 0.8] {
            let mut t = tree.clone();
            let mut plan = IncrementalLists::build(&t, Mac::new(theta));
            let mut rng = StdRng::seed_from_u64(7700 + (theta * 100.0) as u64);
            for _ in 0..25 {
                if rng.random_range(0..2) == 0 {
                    let cands: Vec<NodeId> = t
                        .visible_nodes()
                        .into_iter()
                        .filter(|&id| !t.node(id).is_leaf())
                        .collect();
                    if cands.is_empty() {
                        continue;
                    }
                    let id = cands[rng.random_range(0..cands.len())];
                    plan.apply_collapse(&mut t, id);
                } else {
                    let cands = t.active_leaves();
                    if cands.is_empty() {
                        continue;
                    }
                    let id = cands[rng.random_range(0..cands.len())];
                    plan.apply_push_down(&mut t, id);
                }
            }
            assert_matches_fresh(&t, &plan);
        }
    }

    #[test]
    fn refresh_counts_tracks_motion_without_flips() {
        let pos = random_points(1000, 78);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(24));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        // Jitter small enough that no cell empties or fills.
        let moved: Vec<Vec3> = pos.iter().map(|p| *p * 0.999).collect();
        tree.rebin(&moved);
        let outcome = plan.refresh_counts(&tree);
        assert_ne!(outcome, PlanRefresh::Rebuilt);
        assert_matches_fresh(&tree, &plan);
    }

    #[test]
    fn refresh_counts_rebuilds_on_emptiness_flip() {
        let pos = random_points(600, 79);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(8));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        // Crush everything into one corner: many cells empty out.
        let moved: Vec<Vec3> = pos
            .iter()
            .map(|p| Vec3::new(-0.9, -0.9, -0.9) + *p * 0.01)
            .collect();
        tree.rebin(&moved);
        let outcome = plan.refresh_counts(&tree);
        assert_eq!(outcome, PlanRefresh::Rebuilt);
        assert_matches_fresh(&tree, &plan);
    }

    #[test]
    fn refresh_counts_is_clean_without_motion() {
        let pos = random_points(500, 80);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        assert_eq!(plan.refresh_counts(&tree), PlanRefresh::Clean);
    }
}
