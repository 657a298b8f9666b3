//! The persistent execution plan: incrementally-patched interaction lists
//! and op counts ([`octree::IncrementalLists`]) plus the GPU near-field job
//! list derived from them.
//!
//! The plan is the single materialization of "what this tree will execute":
//! the CPU task DAG, the time-prediction multiplicities `M(op)` and the GPU
//! partition walk all read from it. Collapse/PushDown/rebin go *through* the
//! plan so the lists are patched in O(neighborhood) instead of re-traversed,
//! and the cached job list is brought up lazily: rebuilt when an edit or a
//! re-traversal changed the lists, its populations overwritten in place when
//! only bodies moved.

use gpu_sim::P2pJob;
use octree::{IncrementalLists, InteractionLists, Mac, NodeId, Octree, OpCounts, PlanRefresh};

use crate::exec::{gpu_job, gpu_job_leaves};

/// How far the cached GPU job list is behind the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Jobs {
    /// Up to date.
    Fresh,
    /// Same jobs and source lists, but populations moved.
    Counts,
    /// The job set itself may have changed: rebuild it.
    Stale,
}

/// Interaction lists + op counts + GPU job list for one tree, kept alive and
/// patched across tree edits.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    inc: IncrementalLists,
    jobs: Vec<P2pJob>,
    /// The target leaf of each job.
    job_leaves: Vec<NodeId>,
    jobs_state: Jobs,
}

impl ExecutionPlan {
    /// Full build from a fresh dual traversal of `tree`.
    pub fn build(tree: &Octree, mac: Mac) -> Self {
        ExecutionPlan {
            inc: IncrementalLists::build(tree, mac),
            jobs: Vec::new(),
            job_leaves: Vec::new(),
            jobs_state: Jobs::Stale,
        }
    }

    /// Discard all incremental state and re-derive from scratch.
    pub fn rebuild(&mut self, tree: &Octree) {
        self.inc.rebuild(tree);
        self.jobs_state = Jobs::Stale;
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
        if did {
            self.jobs_state = Jobs::Stale;
        }
        did
    }

    /// Push down `id` in `tree`, patching lists, counts and job validity.
    /// False (nothing changed) when the push-down is refused.
    pub fn apply_push_down(&mut self, tree: &mut Octree, id: NodeId) -> bool {
        let did = self.inc.apply_push_down(tree, id);
        if did {
            self.jobs_state = Jobs::Stale;
        }
        did
    }

    /// Reconcile counts after body motion (rebin). Falls back to a full
    /// rebuild when a visible cell flipped between empty and non-empty.
    /// Without a flip the lists, and so the job set and every job's source
    /// list, stay as they are: only the job populations go stale.
    pub fn refresh_counts(&mut self, tree: &Octree) -> PlanRefresh {
        let outcome = self.inc.refresh_counts(tree);
        self.jobs_state = match (outcome, self.jobs_state) {
            (PlanRefresh::Clean, state) | (PlanRefresh::Patched { .. }, state @ Jobs::Stale) => {
                state
            }
            (PlanRefresh::Patched { .. }, _) => Jobs::Counts,
            (PlanRefresh::Rebuilt, _) => Jobs::Stale,
        };
        outcome
    }

    /// Bring the cached GPU job list up to date: rebuilt after an edit or a
    /// re-traversal, its populations overwritten in place after motion.
    pub fn ensure_jobs(&mut self, tree: &Octree) {
        let lists = self.inc.lists();
        match self.jobs_state {
            Jobs::Fresh => {}
            Jobs::Counts => {
                for (job, &id) in self.jobs.iter_mut().zip(&self.job_leaves) {
                    job.targets = tree.node(id).count();
                    let sources = &lists.p2p[id as usize];
                    for (count, &b) in job.source_counts.iter_mut().zip(sources) {
                        *count = tree.node(b).count();
                    }
                }
            }
            Jobs::Stale => {
                self.job_leaves.clear();
                self.job_leaves.extend(gpu_job_leaves(tree, lists));
                self.jobs = self
                    .job_leaves
                    .iter()
                    .map(|&id| gpu_job(tree, lists, id))
                    .collect();
            }
        }
        self.jobs_state = Jobs::Fresh;
    }

    /// The cached job list. Call [`ExecutionPlan::ensure_jobs`] first; a
    /// stale cache here is a bug in the caller.
    pub fn jobs(&self) -> &[P2pJob] {
        debug_assert!(
            self.jobs_state == Jobs::Fresh,
            "reading a stale GPU job cache"
        );
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
    /// job list (spine, target leaves and per-job source-count vectors, at
    /// capacity).
    pub fn heap_bytes(&self) -> usize {
        self.inc.heap_bytes()
            + self.jobs.capacity() * std::mem::size_of::<P2pJob>()
            + self.job_leaves.capacity() * std::mem::size_of::<NodeId>()
            + self
                .jobs
                .iter()
                .map(|j| j.source_counts.capacity() * std::mem::size_of::<usize>())
                .sum::<usize>()
    }

    /// Verify the lists against a fresh build of `tree` (see
    /// [`IncrementalLists::audit`]). The GPU job cache is a deterministic
    /// function of tree and lists ([`crate::build_gpu_jobs`]), so it is not
    /// audited.
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
    use crate::exec::build_gpu_jobs;
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
        assert_eq!(
            plan.jobs_state,
            Jobs::Fresh,
            "clean refresh must keep the job cache"
        );
        let moved: Vec<_> = b.pos.iter().map(|p| *p * 0.9).collect();
        tree.rebin(&moved);
        let outcome = plan.refresh_counts(&tree);
        assert_ne!(outcome, octree::PlanRefresh::Clean);
        let jobs = plan.gpu_jobs(&tree).to_vec();
        assert_eq!(jobs, build_gpu_jobs(&tree, plan.lists()));
    }

    /// Random motion, refresh after refresh: each Patched refresh leaves the
    /// job set alone and overwrites its populations in place, and the jobs
    /// then equal a fresh `build_gpu_jobs` exactly; any Rebuilt refresh
    /// rebuilds them.
    #[test]
    fn jobs_refreshed_in_place_equal_a_fresh_build_after_random_motion() {
        use rand::prelude::*;
        let b = plummer(3000, 1.0, 1.0, 303);
        let mut pos = b.pos.clone();
        let mut tree = build_adaptive(&pos, BuildParams::with_s(24));
        let mut plan = ExecutionPlan::build(&tree, Mac::default());
        plan.ensure_jobs(&tree);
        let mut rng = rand::rngs::StdRng::seed_from_u64(304);
        let mut patched = 0;
        for step in 0..40 {
            for p in pos.iter_mut() {
                let mut kick = || rng.random_range(-2e-3..2e-3);
                *p += geom::Vec3::new(kick(), kick(), kick());
            }
            tree.rebin(&pos);
            let jobs_at = plan.jobs.as_ptr();
            let outcome = plan.refresh_counts(&tree);
            plan.ensure_jobs(&tree);
            if let PlanRefresh::Patched { .. } = outcome {
                patched += 1;
                assert_eq!(plan.jobs.as_ptr(), jobs_at, "step {step}: rebuilt");
            }
            assert_eq!(
                plan.jobs(),
                build_gpu_jobs(&tree, plan.lists()),
                "step {step}"
            );
        }
        assert!(patched >= 10, "only {patched} patched refreshes");
    }
}
