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
//! [`IncrementalLists`] exploits this by running the build's own traversal
//! with a pruning rule: each side of a state is tagged out of the edit's
//! story, an ancestor of the edit, or inside its subtree, a child inheriting
//! its parent's tag (only a child of an ancestor is classified afresh,
//! against the edit's ancestor path), and a state is visited only if its
//! tags can still lead to a changed pair. A patch
//!
//! 1. **unlinks**, on the pre-edit tree: empties the lists of the old
//!    visible subtree, then runs the traversal pruned to states whose
//!    *source* is related to the edit and whose target is not in the
//!    subtree, to find every other target whose list names a node of it;
//! 2. applies the tree edit;
//! 3. **links**, on the post-edit tree: runs the traversal pruned to states
//!    with a related side, keeping only pairs with an endpoint in the
//!    post-edit subtree;
//! 4. recomputes the per-node [`OpCounts`] contributions of the dirty set —
//!    the edited subtree plus every target whose list was touched.
//!
//! A plan is a function of its tree: after any sequence of patches and
//! refreshes its lists, counts and populations equal a fresh build's, entry
//! for entry and in order — which is also why step 1 can read "who names the
//! subtree" off the tree instead of keeping inverse lists. A fresh traversal
//! lists each target's sources in strictly descending
//! [`Node::begin`](crate::Node::begin), and everything one patch removes
//! from or adds to a target's list lies inside the edited node's body range
//! — one contiguous run of that list. So the first time a patch touches a
//! target's list it binary-searches that run by `begin` (a copy of every
//! node's, four bytes each, kept by the plan) and marks it stale (it is
//! exactly what the patch removes); the link's new entries for that list
//! (already in descending `begin`) overwrite the stale run in order, and the
//! list is settled once: stale entries left over are drained, new ones
//! beyond the run were pushed onto the end and are rotated into place.
//!
//! Per-node contributions are cached so totals update by subtraction and
//! re-addition of only the dirty nodes.

use crate::node::{NodeId, Octree, NONE};
use crate::stats::{node_op_counts, OpCounts};
use crate::traversal::{
    fork_width, traverse, trim, Entry, InteractionLists, Mac, Prune, Traversal,
};
use geom::MAX_MORTON_LEVEL;
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

/// How a side of a patch's traversal state relates to the edited node:
/// outside its story entirely, a strict ancestor whose child toward the edit
/// is at the given level, or inside the visible subtree of the tree being
/// traversed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rel {
    Out,
    Anc(u16),
    Sub,
}

/// A patch's pruning rule for [`traverse`]: the edit's ancestor path. With
/// `SOURCES_ONLY` (the unlink's rule) it keeps a state only while its source
/// is related and its target is not in the subtree; without (the link's),
/// while either side is related.
struct Near<const SOURCES_ONLY: bool> {
    edit: NodeId,
    /// `path[l]`: the edit's ancestor at level `l`, the edit itself at its
    /// own level.
    path: [NodeId; MAX_MORTON_LEVEL as usize + 1],
}

impl<const SOURCES_ONLY: bool> Prune for Near<SOURCES_ONLY> {
    type Tag = Rel;

    #[inline(always)]
    fn tag(&self, parent: Rel, child: NodeId) -> Rel {
        match parent {
            Rel::Anc(l) if self.path[l as usize] == child => match child == self.edit {
                true => Rel::Sub,
                false => Rel::Anc(l + 1),
            },
            Rel::Anc(_) => Rel::Out,
            rel => rel,
        }
    }

    #[inline(always)]
    fn keep(&self, ta: Rel, tb: Rel) -> bool {
        match SOURCES_ONLY {
            false => ta != Rel::Out || tb != Rel::Out,
            true => tb != Rel::Out && ta != Rel::Sub,
        }
    }
}

/// Interaction lists + per-node op counts that are patched through
/// [`Octree::collapse`] / [`Octree::push_down`] edits instead of recomputed.
#[derive(Clone, Debug)]
pub struct IncrementalLists {
    mac: Mac,
    lists: InteractionLists,
    /// Cached contribution of each node to `totals` (zero when invisible).
    node_counts: Vec<OpCounts>,
    totals: OpCounts,
    /// Population snapshot at the last build/patch/refresh — the
    /// emptiness-flip detector for [`IncrementalLists::refresh_counts`].
    body_count: Vec<u32>,
    /// Every node's [`Node::begin`](crate::Node::begin), copied from the
    /// tree by builds, refreshes and patches: the key the patch
    /// binary-searches lists by, four bytes a node instead of a whole node.
    begin: Vec<u32>,
    /// Epoch-stamped scratch marks (dirty dedup, visibility)
    /// so per-patch set membership needs no O(n) clear.
    stamp: Vec<u32>,
    epoch: u32,
    /// Warm queue of [`IncrementalLists::refresh_counts`]'s visibility walk;
    /// pure scratch, excluded from equality and audits.
    walk: Vec<NodeId>,
    /// `cursor[a][kind]`: where the patch in progress puts the next new
    /// entry of target `a`'s M2L (`kind` 0) or P2P (1) list; [`Cursor::IDLE`]
    /// between patches. Pure scratch.
    cursor: Vec<[Cursor; 2]>,
    /// Warm buffers of [`IncrementalLists::rebuild`]'s traversal; pure
    /// scratch.
    traversal: Traversal,
}

/// Where a patch puts a target's next new entry in one of its lists.
#[derive(Clone, Copy, Debug)]
struct Cursor {
    /// The position, or [`Cursor::UNPLACED`] until the patch first touches
    /// the list.
    at: u32,
    /// Entries the patch has removed but not yet taken out of the list:
    /// the run from `at` on. New entries overwrite them first.
    stale: u32,
    /// New entries that found no stale one left, pushed onto the list's end
    /// to be rotated to `at` when the list is settled.
    pushed: u32,
}

impl Cursor {
    const UNPLACED: u32 = u32::MAX;
    const IDLE: Cursor = Cursor {
        at: Cursor::UNPLACED,
        stale: 0,
        pushed: 0,
    };
    /// The cursor of a list the patch emptied whole: new entries go from
    /// its start.
    const EMPTIED: Cursor = Cursor {
        at: 0,
        ..Cursor::IDLE
    };

    /// Place an unplaced cursor on list `v` of a patch whose edited node
    /// holds the bodies `range`, `begin` being every node's. The list
    /// descends in `begin`, and its entries inside the edited subtree are
    /// the ones whose `begin` lies in `range` (a cell overlapping them, such
    /// as an ancestor, cannot share the list): the run the patch removes,
    /// all stale, found by one binary search and a walk over the run. A list
    /// with no such entry gets an empty run where the subtree's entries
    /// belong.
    fn place(&mut self, begin: &[u32], v: &[NodeId], range: &std::ops::Range<u32>) {
        if self.at == Cursor::UNPLACED {
            let at = v.partition_point(|&x| begin[x as usize] >= range.end);
            let run = v[at..]
                .iter()
                .take_while(|&&x| range.contains(&begin[x as usize]));
            (self.at, self.stale) = (at as u32, run.count() as u32);
        }
    }

    /// Put list `v` in order once the patch's traversal is done — drain
    /// the stale entries left, or move the pushed ones to the cursor — and
    /// go idle.
    fn settle(&mut self, v: &mut Vec<NodeId>) {
        let at = self.at as usize;
        if self.stale > 0 {
            v.drain(at..at + self.stale as usize);
        } else if self.pushed > 0 {
            v[at..].rotate_right(self.pushed as usize);
        }
        *self = Cursor::IDLE;
    }
}

/// Put source `b` into a forward list at the cursor: over the next stale
/// entry while any is left, else onto the end for [`Cursor::settle`].
fn put_at_cursor(v: &mut Vec<NodeId>, b: NodeId, cursor: &mut Cursor) {
    if cursor.stale > 0 {
        v[cursor.at as usize] = b;
        cursor.at += 1;
        cursor.stale -= 1;
    } else {
        v.push(b);
        cursor.pushed += 1;
    }
}

/// Append the visible subtree rooted at `id`, `id` first, to `out`, and
/// return where it starts.
fn push_visible_subtree(tree: &Octree, id: NodeId, out: &mut Vec<NodeId>) -> usize {
    let start = out.len();
    out.push(id);
    // Breadth first, with `out` as its own queue.
    let mut next = start;
    while let Some(&n) = out.get(next) {
        next += 1;
        out.extend(tree.visible_children(n));
    }
    start
}

/// The dual traversal of `tree` as it stands, pruned by [`Near`] to the
/// states related to the edit at `edit`, handing `emit` every pair (list,
/// target, source) it ends on with an endpoint in the visible subtree
/// of `edit`. Each state it visits makes the decision a fresh traversal
/// makes there, in the fresh traversal's order, so each target receives its
/// pairs in that order. Without `SOURCES_ONLY` these are the pairs a patch
/// links; with it, no kept target lies in the subtree, and they are the
/// entries a patch unlinks from lists it does not empty whole.
fn restricted<const SOURCES_ONLY: bool>(
    tree: &Octree,
    mac: Mac,
    edit: NodeId,
    mut emit: impl FnMut(Entry, NodeId, NodeId),
) {
    let mut path = [NONE; MAX_MORTON_LEVEL as usize + 1];
    let mut u = edit;
    while u != NONE {
        let node = tree.node(u);
        path[node.level as usize] = u;
        u = node.parent;
    }
    let near = Near::<SOURCES_ONLY> { edit, path };
    // The root, tagged as the child of an ancestor above it.
    let root = (Octree::ROOT, near.tag(Rel::Anc(0), Octree::ROOT));
    if near.keep(root.1, root.1) {
        let nodes = &tree.nodes;
        traverse(nodes, mac, &near, root, root, &mut |e, (a, ra), (b, rb)| {
            if ra == Rel::Sub || rb == Rel::Sub {
                emit(e, a, b);
            }
        });
    }
}

/// Empty `v` and refill it with `n` copies of `value`, in place.
fn refill<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
    trim(v);
}

/// Equal plans hold the same state — everything a build determines: the
/// MAC, the lists in their order, per-node counts, totals, populations,
/// stamps and epoch. Scratch is not state.
impl PartialEq for IncrementalLists {
    fn eq(&self, other: &Self) -> bool {
        self.mac.theta.to_bits() == other.mac.theta.to_bits()
            && self.lists.m2l == other.lists.m2l
            && self.lists.p2p == other.lists.p2p
            && self.node_counts == other.node_counts
            && self.totals == other.totals
            && self.body_count == other.body_count
            && self.begin == other.begin
            && self.stamp == other.stamp
            && self.epoch == other.epoch
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
    /// Full build: one dual traversal plus per-node counts.
    pub fn build(tree: &Octree, mac: Mac) -> Self {
        let mut plan = IncrementalLists {
            mac,
            lists: InteractionLists::default(),
            node_counts: Vec::new(),
            totals: OpCounts::default(),
            body_count: Vec::new(),
            begin: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            walk: Vec::new(),
            cursor: Vec::new(),
            traversal: Traversal::default(),
        };
        plan.rebuild(tree);
        plan
    }

    /// Throw the incremental state away and re-derive everything from a
    /// fresh traversal of `tree`, into the storage the plan already holds.
    ///
    /// From `MIN_FORK_NODES` (1 024) arena nodes up both stages run through
    /// workers — the traversal one task per child of the root, the per-node
    /// counts one range of nodes per worker — and every list comes out the
    /// same, entry for entry and in order, at any width. Once warm, a
    /// rebuild of an unchanged tree allocates nothing on one worker and only
    /// the forks' bookkeeping on more.
    pub fn rebuild(&mut self, tree: &Octree) {
        let n = tree.num_nodes();
        let workers = fork_width(tree);
        self.traversal
            .fill(tree, self.mac, &mut self.lists, workers);

        refill(&mut self.node_counts, n, OpCounts::default());
        self.totals = count_nodes(tree, &self.lists, &mut self.node_counts, workers, |id| {
            tree.is_visible(id)
        });
        self.body_count.clear();
        self.body_count
            .extend((0..n).map(|i| tree.node(i as NodeId).count() as u32));
        trim(&mut self.body_count);
        self.begin.clear();
        (self.begin).extend((0..n).map(|i| tree.node(i as NodeId).begin));
        trim(&mut self.begin);
        refill(&mut self.stamp, n, 0);
        refill(&mut self.cursor, n, [Cursor::IDLE; 2]);
        self.epoch = 0;
    }

    pub fn mac(&self) -> Mac {
        self.mac
    }

    /// Structural heap footprint of the plan: the lists at capacity
    /// granularity, the per-node caches, and the warm refresh, patch and
    /// rebuild scratch. Counterpart of [`Octree::heap_bytes`] for the list
    /// half of the execution plan.
    pub fn heap_bytes(&self) -> usize {
        self.lists.heap_bytes()
            + self.node_counts.capacity() * std::mem::size_of::<OpCounts>()
            + (self.body_count.capacity() + self.begin.capacity()) * std::mem::size_of::<u32>()
            + self.stamp.capacity() * std::mem::size_of::<u32>()
            + self.walk.capacity() * std::mem::size_of::<NodeId>()
            + self.cursor.capacity() * std::mem::size_of::<[Cursor; 2]>()
            + self.traversal.heap_bytes()
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

    /// Verify the plan against `tree`. Valid on a *quiescent* plan — one
    /// whose last operation was a build, patch or
    /// [`IncrementalLists::refresh_counts`] — which is how the supervisor
    /// calls it (after a completed step, before trusting cached state).
    ///
    /// Two checks: no scratch stamp postdates the epoch clock; and the plan
    /// is what [`IncrementalLists::build`] makes of `tree` — lists entry for
    /// entry and in order, per-node [`OpCounts`], totals, populations and
    /// `begin` keys, compared field by field. It costs about a plan build.
    pub fn audit(&self, tree: &Octree) -> Result<(), String> {
        let n = tree.num_nodes();
        let sized = self.stamp.len() == n && self.begin.len() == n;
        if !sized || self.node_counts.len() != n || self.body_count.len() != n {
            return Err(format!("plan arrays are not sized for {n} nodes"));
        }
        if let Some(i) = self.stamp.iter().position(|&s| s > self.epoch) {
            return Err(format!(
                "stamp[{i}] = {} postdates plan epoch {}",
                self.stamp[i], self.epoch
            ));
        }
        let fresh = IncrementalLists::build(tree, self.mac);
        for (what, got, want) in [
            ("M2L", &self.lists.m2l, &fresh.lists.m2l),
            ("P2P", &self.lists.p2p, &fresh.lists.p2p),
        ] {
            if got != want {
                return Err(format!("{what} lists differ from a fresh traversal"));
            }
        }
        if let Some(i) = (0..n).find(|&i| self.node_counts[i] != fresh.node_counts[i]) {
            return Err(format!(
                "node_counts[{i}] = {:?} but recount gives {:?}",
                self.node_counts[i], fresh.node_counts[i]
            ));
        }
        if self.totals != fresh.totals {
            return Err(format!(
                "totals {:?} differ from per-node sum {:?}",
                self.totals, fresh.totals
            ));
        }
        if let Some(i) = (0..n).find(|&i| self.body_count[i] != fresh.body_count[i]) {
            return Err(format!(
                "body_count[{i}] differs from the tree's population"
            ));
        }
        if let Some(i) = (0..n).find(|&i| self.begin[i] != fresh.begin[i]) {
            return Err(format!("begin[{i}] differs from the tree's"));
        }
        Ok(())
    }

    /// Chaos-harness corruption hook: silently drop the tail entry of the
    /// first non-empty M2L (or, failing that, P2P) list *without* updating
    /// the counts — exactly the kind of rot [`IncrementalLists::audit`] must
    /// catch. Returns false when there was nothing to truncate.
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
    /// plan untouched) when the collapse is a no-op. After an
    /// [`Octree::rebin`], call [`IncrementalLists::refresh_counts`] first:
    /// a patch recounts the targets it touches, which would hide a cell the
    /// rebin emptied or filled from the refresh that must re-traverse.
    pub fn apply_collapse(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let _mem = telemetry::AllocScope::enter("plan.patch");
        if tree.node(id).is_leaf() {
            return false;
        }
        self.patch(tree, id, Octree::collapse);
        true
    }

    /// Patch the plan through `tree.push_down(id)`. Returns false (tree and
    /// plan untouched) when the push-down is refused. As with
    /// [`IncrementalLists::apply_collapse`], refresh after a rebin first.
    pub fn apply_push_down(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let _mem = telemetry::AllocScope::enter("plan.patch");
        if tree.refuses_push_down(id) {
            return false;
        }
        self.patch(tree, id, Octree::push_down);
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
        // The walk's queue is warm: each node enters it at most once.
        self.epoch += 1;
        let visible = self.epoch;
        self.walk.clear();
        self.walk.reserve(n);
        push_visible_subtree(tree, Octree::ROOT, &mut self.walk);
        for &id in &self.walk {
            self.stamp[id as usize] = visible;
        }
        let seen = self.walk.len();
        let mut moved = false;
        for i in 0..n {
            self.begin[i] = tree.node(i as NodeId).begin;
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

    /// Settle the lists of `dirty` ([`Cursor::settle`]), recompute their
    /// cached contributions (dedup via stamps) and fold them into the
    /// totals.
    fn recount(&mut self, tree: &Octree, dirty: &[NodeId]) {
        self.epoch += 1;
        let epoch = self.epoch;
        for &d in dirty {
            let di = d as usize;
            if self.stamp[di] == epoch {
                continue;
            }
            self.stamp[di] = epoch;
            let [m2l, p2p] = &mut self.cursor[di];
            m2l.settle(&mut self.lists.m2l[di]);
            p2p.settle(&mut self.lists.p2p[di]);
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

    /// The shared patch path: unlink on the pre-edit tree, apply `edit_fn`
    /// (which must apply) to `edit`, link on the post-edit tree, then settle
    /// and recount every node touched.
    fn patch(&mut self, tree: &mut Octree, edit: NodeId, edit_fn: fn(&mut Octree, NodeId) -> bool) {
        let mut dirty = Vec::new();
        self.unlink(tree, edit, &mut dirty);
        let done = edit_fn(tree, edit);
        debug_assert!(done);
        let n = tree.num_nodes();
        if self.lists.m2l.len() < n {
            // A push-down drew eight fresh nodes from the arena.
            self.lists.m2l.resize_with(n, Vec::new);
            self.lists.p2p.resize_with(n, Vec::new);
            self.node_counts.resize(n, OpCounts::default());
            self.body_count.resize(n, 0);
            self.begin.resize(n, 0);
            self.stamp.resize(n, 0);
            self.cursor.resize(n, [Cursor::IDLE; 2]);
        }
        self.link(tree, edit, &mut dirty);
        self.recount(tree, &dirty);
    }

    /// Unlink, on the pre-edit `tree`: empty the lists of the visible
    /// subtree of `edit`, whose new entries then go from their start, and
    /// place the cursor of every other target whose list names a node of
    /// that subtree on the run of those entries — the targets the traversal
    /// pruned to the subtree's sources ends on. Each target touched goes to
    /// `dirty`.
    fn unlink(&mut self, tree: &Octree, edit: NodeId, dirty: &mut Vec<NodeId>) {
        let start = push_visible_subtree(tree, edit, dirty);
        for &a in &dirty[start..] {
            let a = a as usize;
            self.lists.m2l[a] = Vec::new();
            self.lists.p2p[a] = Vec::new();
            self.cursor[a] = [Cursor::EMPTIED; 2];
        }
        let range = tree.node(edit).begin..tree.node(edit).end;
        restricted::<true>(tree, self.mac, edit, |e, a, _| {
            let cursor = &mut self.cursor[a as usize][e as usize];
            let list = &self.lists.of(e)[a as usize];
            cursor.place(&self.begin, list, &range);
            // An empty run means a list out of step with the tree: a
            // patch after a rebin without the refresh in between.
            debug_assert!(cursor.stale > 0, "target {a} names no node of {edit}");
            dirty.push(a);
        });
    }

    /// Link, on the post-edit `tree`: the patch traversal's pairs with an
    /// endpoint in the visible subtree of `edit` go into their lists at the
    /// cursors, and the subtree's `begin` keys are refreshed. Every target
    /// touched, and the subtree, go to `dirty`.
    fn link(&mut self, tree: &Octree, edit: NodeId, dirty: &mut Vec<NodeId>) {
        let range = tree.node(edit).begin..tree.node(edit).end;
        restricted::<false>(tree, self.mac, edit, |e, a, b| {
            let cursor = &mut self.cursor[a as usize][e as usize];
            let list = &mut self.lists.of(e)[a as usize];
            cursor.place(&self.begin, list, &range);
            put_at_cursor(list, b, cursor);
            dirty.push(a);
        });
        // Everything in the new subtree gets a fresh contribution too (newly
        // visible nodes need one, the edited node changed role); hidden
        // old-subtree nodes drop to zero via the visibility check.
        let start = push_visible_subtree(tree, edit, dirty);
        for &c in &dirty[start..] {
            self.begin[c as usize] = tree.node(c).begin;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_adaptive, build_adaptive_in_cube, BuildParams};
    use crate::random_points;
    use crate::stats::count_ops;
    use crate::traversal::dual_traversal;
    use geom::Vec3;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Patched plan ≡ fresh traversal + fresh counts, entry for entry, and
    /// it passes its audit (which compares it with a fresh build).
    fn assert_matches_fresh(tree: &Octree, plan: &IncrementalLists) {
        let fresh = dual_traversal(tree, plan.mac());
        assert!(plan.lists().m2l == fresh.m2l, "M2L lists diverged");
        assert!(plan.lists().p2p == fresh.p2p, "P2P lists diverged");
        assert_eq!(plan.counts(), count_ops(tree, &fresh), "counts diverged");
        plan.audit(tree).unwrap();
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
    fn audit_refuses_every_kind_of_rot() {
        let pos = random_points(900, 81);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let plan = IncrementalLists::build(&tree, Mac::default());
        plan.audit(&tree).unwrap();
        type Rot = fn(&mut IncrementalLists);
        let rots: [(&str, Rot); 7] = [
            ("M2L lists", |p| {
                let list = p.lists.m2l.iter_mut().find(|l| l.len() > 1);
                list.expect("a list of two").swap(0, 1);
            }),
            ("P2P lists", |p| {
                let list = p.lists.p2p.iter_mut().find(|l| !l.is_empty());
                list.expect("a P2P list").pop();
            }),
            ("node_counts[1]", |p| p.node_counts[1].l2l_ops += 1),
            ("totals", |p| p.totals.m2l_ops += 1),
            ("body_count[1]", |p| p.body_count[1] += 1),
            ("begin[1]", |p| p.begin[1] += 1),
            ("stamp[1]", |p| p.stamp[1] = p.epoch + 1),
        ];
        for (want, rot) in rots {
            let mut bad = plan.clone();
            rot(&mut bad);
            let err = bad.audit(&tree).expect_err(want);
            assert!(err.starts_with(want), "{want}: {err}");
        }
    }

    /// Nineteen bodies in twenty in a tight clump inside the root's
    /// (+, +, +) octant, the rest spread over the whole cube.
    fn clump(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| match i % 20 {
                0 => Vec3::splat(0.0),
                _ => Vec3::splat(0.5),
            } + {
                let spread: f64 = if i % 20 == 0 { 1.0 } else { 0.05 };
                let mut coord = || rng.random_range(-spread..spread);
                Vec3::new(coord(), coord(), coord())
            })
            .collect()
    }

    /// Which nodes lie in the visible subtree of `edit`.
    fn visible_subtree(tree: &Octree, edit: NodeId) -> Vec<bool> {
        let mut inside = vec![false; tree.num_nodes()];
        for v in tree.visible_nodes() {
            let mut u = v;
            while u != edit && u != Octree::ROOT {
                u = tree.node(u).parent;
            }
            inside[v as usize] = u == edit;
        }
        inside
    }

    /// A patch's two walks around `edit_fn` at `edit`, on copies of `tree`
    /// and `plan`, against brute-force scans of fresh traversals.
    ///
    /// Unlink, before the edit: the old visible subtree's lists are emptied,
    /// every other target whose fresh list names a node of that subtree has
    /// its cursor on exactly those entries (one run), no other target is
    /// placed, and the touched targets are the dirty ones. Link, after it:
    /// each target receives, in order, exactly the fresh traversal's pairs
    /// with an endpoint in the new visible subtree.
    fn assert_patch_walks_are_exact(
        tree: &Octree,
        plan: &IncrementalLists,
        edit: NodeId,
        edit_fn: fn(&mut Octree, NodeId) -> bool,
    ) {
        let fresh = dual_traversal(tree, plan.mac());
        let old = visible_subtree(tree, edit);
        let mut plan = plan.clone();
        let mut dirty = Vec::new();
        plan.unlink(tree, edit, &mut dirty);
        for t in 0..tree.num_nodes() {
            for (kind, fwd) in [&fresh.m2l, &fresh.p2p].into_iter().enumerate() {
                let cursor = plan.cursor[t][kind];
                let list = &[&plan.lists.m2l, &plan.lists.p2p][kind][t];
                let named: Vec<u32> = (0..fwd[t].len() as u32)
                    .filter(|&i| old[fwd[t][i as usize] as usize])
                    .collect();
                if old[t] {
                    assert!(list.is_empty() && cursor.at == 0, "{edit}: {t} not emptied");
                } else if named.is_empty() {
                    assert_eq!(cursor.at, Cursor::UNPLACED, "{edit}: {t} placed");
                } else {
                    let run: Vec<u32> = (cursor.at..cursor.at + cursor.stale).collect();
                    assert_eq!(run, named, "{edit}: run of {t}, kind {kind}");
                }
            }
            let marked = plan.cursor[t].iter().any(|c| c.at != Cursor::UNPLACED);
            assert_eq!(dirty.contains(&(t as NodeId)), marked, "{edit}: {t} dirty");
        }

        let mut after = tree.clone();
        assert!(edit_fn(&mut after, edit));
        let fresh = dual_traversal(&after, plan.mac());
        let new = visible_subtree(&after, edit);
        let n = after.num_nodes();
        let mut got = [vec![Vec::<NodeId>::new(); n], vec![Vec::new(); n]];
        restricted::<false>(&after, plan.mac(), edit, |e, a, b| {
            got[e as usize][a as usize].push(b);
        });
        for (kind, fwd) in [&fresh.m2l, &fresh.p2p].into_iter().enumerate() {
            for t in 0..n {
                let want: Vec<NodeId> = (fwd[t].iter().copied())
                    .filter(|&b| new[t] || new[b as usize])
                    .collect();
                assert_eq!(got[kind][t], want, "{edit}: link of {t}, kind {kind}");
            }
        }
    }

    #[test]
    fn unlink_finds_exactly_the_targets_that_name_the_old_subtree() {
        let plummer = nbody::plummer(4000, 1.0, 1.0, 84).pos;
        let clumped = clump(4000, 85);
        let mut collapsed = build_adaptive(&plummer, BuildParams::with_s(12));
        let internal: Vec<NodeId> = (collapsed.visible_nodes().into_iter().rev())
            .filter(|&id| id != Octree::ROOT && !collapsed.node(id).is_leaf())
            .collect();
        for id in internal.into_iter().step_by(3) {
            assert!(collapsed.collapse(id));
        }
        let trees = [
            build_adaptive(&plummer, BuildParams::with_s(16)),
            build_adaptive_in_cube(&clumped, BuildParams::with_s(16), Vec3::ZERO, 1.0),
            collapsed,
        ];
        let collapse: fn(&mut Octree, NodeId) -> bool = Octree::collapse;
        let mut rng = StdRng::seed_from_u64(86);
        for (tree, theta) in trees.iter().zip([0.6, 0.35, 0.8]) {
            let plan = IncrementalLists::build(tree, Mac::new(theta));
            let visible = tree.visible_nodes();
            let collapses: Vec<NodeId> = (visible.iter().copied())
                .filter(|&id| !tree.node(id).is_leaf())
                .collect();
            let push_downs: Vec<NodeId> = (visible.iter().copied())
                .filter(|&id| !tree.refuses_push_down(id) && tree.node(id).count() > 0)
                .collect();
            assert!(collapses.len() >= 10 && push_downs.len() >= 10);
            assert_patch_walks_are_exact(tree, &plan, Octree::ROOT, collapse);
            for (cands, edit_fn) in [(&collapses, collapse), (&push_downs, Octree::push_down)] {
                for _ in 0..20 {
                    let edit = cands[rng.random_range(0..cands.len())];
                    assert_patch_walks_are_exact(tree, &plan, edit, edit_fn);
                }
            }
        }

        // An internal node a rebin emptied: its body range is empty, and a
        // neighbour's may start where it would.
        let mut tree = build_adaptive(&plummer, BuildParams::with_s(16));
        tree.rebin(&plummer.iter().map(|&p| p * 0.1).collect::<Vec<_>>());
        let emptied = (tree.visible_nodes().into_iter())
            .find(|&id| tree.node(id).count() == 0 && !tree.node(id).is_leaf())
            .expect("an internal node the rebin emptied");
        let plan = IncrementalLists::build(&tree, Mac::default());
        assert_patch_walks_are_exact(&tree, &plan, emptied, collapse);
    }

    #[test]
    fn refresh_counts_is_clean_without_motion() {
        let pos = random_points(500, 80);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let mut plan = IncrementalLists::build(&tree, Mac::default());
        assert_eq!(plan.refresh_counts(&tree), PlanRefresh::Clean);
    }
}
