//! The persistent execution plan: incrementally-patched interaction lists
//! and op counts ([`octree::IncrementalLists`]) plus the GPU near-field job
//! list derived from them.
//!
//! The plan is the single materialization of "what this tree will execute":
//! the CPU task DAG, the time-prediction multiplicities `M(op)` and the GPU
//! partition walk all read from it. Collapse/PushDown/rebin go *through* the
//! plan so the lists are patched in O(neighborhood) instead of re-traversed,
//! and the cached job list is regenerated lazily only when an edit actually
//! invalidated it.

use gpu_sim::P2pJob;
use octree::{IncrementalLists, InteractionLists, Mac, NodeId, Octree, OpCounts, PlanRefresh};

use crate::exec::build_gpu_jobs;

/// Interaction lists + op counts + GPU job list for one tree, kept alive and
/// patched across tree edits.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    inc: IncrementalLists,
    jobs: Vec<P2pJob>,
    jobs_dirty: bool,
}

impl ExecutionPlan {
    /// Full build from a fresh dual traversal of `tree`.
    pub fn build(tree: &Octree, mac: Mac) -> Self {
        ExecutionPlan {
            inc: IncrementalLists::build(tree, mac),
            jobs: Vec::new(),
            jobs_dirty: true,
        }
    }

    /// Discard all incremental state and re-derive from scratch.
    pub fn rebuild(&mut self, tree: &Octree) {
        self.inc.rebuild(tree);
        self.jobs_dirty = true;
    }

    pub fn mac(&self) -> Mac {
        self.inc.mac()
    }

    pub fn lists(&self) -> &InteractionLists {
        self.inc.lists()
    }

    pub fn counts(&self) -> OpCounts {
        self.inc.counts()
    }

    /// Collapse `id` in `tree`, patching lists, counts and job validity.
    /// False (nothing changed) when the collapse is a no-op.
    pub fn apply_collapse(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let did = self.inc.apply_collapse(tree, id);
        self.jobs_dirty |= did;
        did
    }

    /// Push down `id` in `tree`, patching lists, counts and job validity.
    /// False (nothing changed) when the push-down is refused.
    pub fn apply_push_down(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let did = self.inc.apply_push_down(tree, id);
        self.jobs_dirty |= did;
        did
    }

    /// Reconcile counts after body motion (rebin). Falls back to a full
    /// rebuild when a visible cell flipped between empty and non-empty.
    pub fn refresh_counts(&mut self, tree: &Octree) -> PlanRefresh {
        let outcome = self.inc.refresh_counts(tree);
        if outcome != PlanRefresh::Clean {
            self.jobs_dirty = true;
        }
        outcome
    }

    /// Regenerate the cached GPU job list if any edit invalidated it.
    pub fn ensure_jobs(&mut self, tree: &Octree) {
        if self.jobs_dirty {
            self.jobs = build_gpu_jobs(tree, self.inc.lists());
            self.jobs_dirty = false;
        }
    }

    /// The cached job list. Call [`ExecutionPlan::ensure_jobs`] first; a
    /// dirty cache here is a bug in the caller.
    pub fn jobs(&self) -> &[P2pJob] {
        debug_assert!(!self.jobs_dirty, "reading a stale GPU job cache");
        &self.jobs
    }

    /// Convenience: refresh-if-needed and borrow the job list.
    pub fn gpu_jobs(&mut self, tree: &Octree) -> &[P2pJob] {
        self.ensure_jobs(tree);
        &self.jobs
    }

    /// Monotone patch/refresh epoch of the underlying incremental lists.
    pub fn epoch(&self) -> u32 {
        self.inc.epoch()
    }

    /// Structural heap footprint: the incremental lists plus the cached GPU
    /// job list (spine and per-job source-count vectors, at capacity).
    pub fn heap_bytes(&self) -> usize {
        self.inc.heap_bytes()
            + self.jobs.capacity() * std::mem::size_of::<P2pJob>()
            + self
                .jobs
                .iter()
                .map(|j| j.source_counts.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
    }

    /// Capture the list state for checkpointing. The GPU job cache is *not*
    /// part of the snapshot: [`crate::build_gpu_jobs`] is a deterministic
    /// function of tree + lists, so a restored plan regenerates the exact
    /// same jobs lazily.
    pub fn snapshot(&self) -> octree::ListsSnapshot {
        self.inc.snapshot()
    }

    /// Reconstruct a plan from a snapshot verbatim, with the job cache
    /// marked dirty for lazy regeneration.
    pub fn from_snapshot(snap: octree::ListsSnapshot) -> Result<Self, String> {
        Ok(ExecutionPlan {
            inc: IncrementalLists::from_snapshot(snap)?,
            jobs: Vec::new(),
            jobs_dirty: true,
        })
    }

    /// Verify list invariants against `tree` (see
    /// [`IncrementalLists::audit`]).
    pub fn audit(&self, tree: &Octree) -> Result<(), String> {
        self.inc.audit(tree)
    }

    /// Chaos-harness corruption hook: see
    /// [`IncrementalLists::corrupt_truncate_list`].
    pub fn corrupt_truncate_list(&mut self) -> bool {
        self.inc.corrupt_truncate_list()
    }

    /// Chaos-harness corruption hook: see
    /// [`IncrementalLists::corrupt_stale_epoch`].
    pub fn corrupt_stale_epoch(&mut self) -> bool {
        self.inc.corrupt_stale_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::plummer;
    use octree::{build_adaptive, BuildParams};

    #[test]
    fn jobs_cache_tracks_edits() {
        let b = plummer(2000, 1.0, 1.0, 301);
        let mut tree = build_adaptive(&b.pos, BuildParams::with_s(32));
        let mut plan = ExecutionPlan::build(&tree, Mac::default());
        let jobs = plan.gpu_jobs(&tree).to_vec();
        assert_eq!(jobs, build_gpu_jobs(&tree, plan.lists()));
        let victim = tree
            .visible_nodes()
            .into_iter()
            .find(|&id| !tree.node(id).is_leaf() && id != Octree::ROOT)
            .unwrap();
        assert!(plan.apply_collapse(&mut tree, victim));
        let jobs = plan.gpu_jobs(&tree).to_vec();
        assert_eq!(jobs, build_gpu_jobs(&tree, plan.lists()));
        assert!(plan.apply_push_down(&mut tree, victim));
        let jobs = plan.gpu_jobs(&tree).to_vec();
        assert_eq!(jobs, build_gpu_jobs(&tree, plan.lists()));
    }

    #[test]
    fn refresh_marks_jobs_dirty_only_on_change() {
        let b = plummer(1500, 1.0, 1.0, 302);
        let mut tree = build_adaptive(&b.pos, BuildParams::with_s(48));
        let mut plan = ExecutionPlan::build(&tree, Mac::default());
        plan.ensure_jobs(&tree);
        assert_eq!(plan.refresh_counts(&tree), octree::PlanRefresh::Clean);
        assert!(!plan.jobs_dirty, "clean refresh must keep the job cache");
        let moved: Vec<_> = b.pos.iter().map(|p| *p * 0.9).collect();
        tree.rebin(&moved);
        let outcome = plan.refresh_counts(&tree);
        assert_ne!(outcome, octree::PlanRefresh::Clean);
        let jobs = plan.gpu_jobs(&tree).to_vec();
        assert_eq!(jobs, build_gpu_jobs(&tree, plan.lists()));
    }
}
