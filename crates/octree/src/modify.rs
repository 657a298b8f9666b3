use crate::node::{NodeId, Octree, NONE};

/// Outcome counters of an [`Octree::enforce_s`] pass, used by the load
/// balancer to account tree-maintenance cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnforceOutcome {
    pub collapses: usize,
    pub pushdowns: usize,
}

impl Octree {
    /// The paper's **Collapse** operation: hide the children of `id` so the
    /// FMM treats it as a leaf. The subtree is retained ("the children are
    /// just hidden... a flag is simply set") so a later [`Octree::push_down`]
    /// can reclaim it without allocation.
    ///
    /// Returns false (no-op) when `id` is already a leaf.
    pub fn collapse(&mut self, id: NodeId) -> bool {
        let n = &mut self.nodes[id as usize];
        if n.first_child == NONE || n.collapsed {
            return false;
        }
        n.collapsed = true;
        true
    }

    /// The paper's **PushDown** operation: subdivide leaf `id` into eight
    /// children. Hidden children are reclaimed (and re-partitioned, since
    /// their ranges may be stale after body motion); otherwise eight nodes
    /// are drawn from the arena buffer.
    ///
    /// Returns false when `id` is not a leaf or sits at the maximum level.
    /// Panics unless the leaves are sorted ([`Octree::sort_leaves`]): the
    /// children's ranges are found by binary search on the codes.
    pub fn push_down(&mut self, id: NodeId) -> bool {
        self.assert_leaves_sorted("push_down");
        if self.refuses_push_down(id) {
            return false;
        }
        let n = self.nodes[id as usize];
        if n.first_child != NONE {
            // Reclaim hidden children.
            self.nodes[id as usize].collapsed = false;
            self.repartition_children(id);
            // The reclaimed children must present as leaves: any deeper
            // structure they carry stays hidden until pushed down again.
            for o in 0..8 {
                let c = (n.first_child + o) as usize;
                if self.nodes[c].first_child != NONE {
                    self.nodes[c].collapsed = true;
                }
            }
        } else {
            self.alloc_children_of(id);
        }
        true
    }

    /// Whether [`Octree::push_down`] refuses `id`: it is not a leaf, or it
    /// sits at the maximum level.
    pub(crate) fn refuses_push_down(&self, id: NodeId) -> bool {
        let n = &self.nodes[id as usize];
        !n.is_leaf() || n.level >= self.max_level()
    }

    /// The paper's **Enforce_S**: walk the visible tree enforcing the
    /// current S — collapse parents holding fewer than S bodies, push down
    /// leaves holding more than S (recursively, since a pushed-down child
    /// can still be over-full). Tree-only: nothing derived from the tree is
    /// kept in step.
    pub fn enforce_s(&mut self) -> EnforceOutcome {
        self.enforce_s_with(
            &mut (),
            |_, tree, id| tree.collapse(id),
            |_, tree, id| tree.push_down(id),
        )
    }

    /// The Enforce_S walk, applying its edits through `collapse` and
    /// `push_down` on `plan` — whatever must stay in step with the tree, such
    /// as an [`IncrementalLists`](crate::IncrementalLists) with its
    /// `apply_collapse` / `apply_push_down`. Each must perform the tree edit
    /// of the same name and report whether it applied.
    pub fn enforce_s_with<P>(
        &mut self,
        plan: &mut P,
        collapse: impl Fn(&mut P, &mut Octree, NodeId) -> bool,
        push_down: impl Fn(&mut P, &mut Octree, NodeId) -> bool,
    ) -> EnforceOutcome {
        let s = self.s_value;
        let mut out = EnforceOutcome::default();
        let mut stack = vec![Self::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.nodes[id as usize];
            if !n.is_leaf() {
                if n.count() < s {
                    collapse(plan, self, id);
                    out.collapses += 1;
                } else {
                    for o in 0..8 {
                        stack.push(n.first_child + o);
                    }
                }
            } else if n.count() > s && push_down(plan, self, id) {
                out.pushdowns += 1;
                let first = self.nodes[id as usize].first_child;
                for o in 0..8 {
                    stack.push(first + o);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{build_adaptive, BuildParams};
    use crate::node::Octree;
    use crate::random_points;
    use geom::Vec3;

    fn leaf_count_total(t: &Octree) -> usize {
        t.visible_leaves().iter().map(|&l| t.node(l).count()).sum()
    }

    #[test]
    fn collapse_is_a_flag_and_preserves_coverage() {
        let pos = random_points(1000, 11);
        let mut t = build_adaptive(&pos, BuildParams::with_s(16));
        let internal = t
            .visible_nodes()
            .into_iter()
            .find(|&id| !t.node(id).is_leaf() && id != Octree::ROOT)
            .unwrap();
        let nodes_before = t.num_nodes();
        assert!(t.collapse(internal));
        assert_eq!(t.num_nodes(), nodes_before, "collapse must not free nodes");
        assert!(t.node(internal).is_leaf());
        assert_eq!(leaf_count_total(&t), pos.len());
        t.check_invariants().unwrap();
        // Collapsing a leaf is a no-op.
        assert!(!t.collapse(internal));
    }

    #[test]
    fn pushdown_inverts_collapse_without_allocation() {
        let pos = random_points(1000, 12);
        let mut t = build_adaptive(&pos, BuildParams::with_s(16));
        let internal = t
            .visible_nodes()
            .into_iter()
            .find(|&id| !t.node(id).is_leaf() && id != Octree::ROOT)
            .unwrap();
        let visible_before: Vec<_> = t.visible_nodes();
        t.collapse(internal);
        let nodes_before = t.num_nodes();
        assert!(t.push_down(internal));
        assert_eq!(t.num_nodes(), nodes_before, "reclaim must not allocate");
        t.check_invariants().unwrap();
        // Structure is restored if the hidden children were themselves
        // leaves; at minimum the previously visible set is a superset.
        let visible_after: Vec<_> = t.visible_nodes();
        for id in &visible_before {
            assert!(
                visible_after.contains(id) || {
                    // deeper nodes may have been re-hidden
                    t.node(*id).level > t.node(internal).level + 1
                }
            );
        }
    }

    #[test]
    fn pushdown_fresh_leaf_allocates_eight() {
        let pos = random_points(64, 13);
        let mut t = build_adaptive(&pos, BuildParams::with_s(64));
        // Root is the only leaf.
        assert_eq!(t.visible_leaves(), vec![Octree::ROOT]);
        let before = t.num_nodes();
        assert!(t.push_down(Octree::ROOT));
        assert_eq!(t.num_nodes(), before + 8);
        t.check_invariants().unwrap();
        assert_eq!(leaf_count_total(&t), 64);
    }

    #[test]
    fn enforce_s_restores_invariant_after_motion() {
        let mut pos = random_points(3000, 14);
        let mut t = build_adaptive(&pos, BuildParams::with_s(32));
        // Crush everything into one corner: leaves there overflow.
        for p in &mut pos {
            *p = Vec3::new(
                -0.9 + (p.x + 1.0) * 0.02,
                -0.9 + (p.y + 1.0) * 0.02,
                -0.9 + (p.z + 1.0) * 0.02,
            );
        }
        t.rebin(&pos);
        let over_before = t
            .visible_leaves()
            .iter()
            .filter(|&&l| t.node(l).count() > 32)
            .count();
        assert!(over_before > 0, "motion should overflow some leaves");
        let out = t.enforce_s();
        assert!(out.pushdowns > 0);
        assert!(out.collapses > 0, "emptied regions should collapse");
        t.check_invariants().unwrap();
        for id in t.visible_leaves() {
            assert!(
                t.node(id).count() <= 32,
                "leaf still over capacity after enforce_s"
            );
        }
        assert_eq!(leaf_count_total(&t), pos.len());
    }

    #[test]
    fn enforce_s_after_s_change() {
        let pos = random_points(2000, 15);
        let mut t = build_adaptive(&pos, BuildParams::with_s(16));
        // Raise S: many parents now hold < S bodies and should collapse.
        t.set_s_value(128);
        let out = t.enforce_s();
        assert!(out.collapses > 0);
        for id in t.visible_leaves() {
            assert!(t.node(id).count() <= 128);
        }
        // Lower S: leaves overflow and should push down.
        t.set_s_value(8);
        let out2 = t.enforce_s();
        assert!(out2.pushdowns > 0);
        for id in t.visible_leaves() {
            assert!(t.node(id).count() <= 8);
        }
        t.check_invariants().unwrap();
    }

    #[test]
    fn enforce_s_idempotent() {
        let pos = random_points(1500, 16);
        let mut t = build_adaptive(&pos, BuildParams::with_s(24));
        t.enforce_s();
        let second = t.enforce_s();
        assert_eq!(
            second.collapses + second.pushdowns,
            0,
            "second pass must be a no-op"
        );
    }

    /// One walk, two edit pairs: through a plan it decides exactly what the
    /// tree-only reference decides, and the plan it patched stays exact.
    #[test]
    fn tree_only_and_plan_patching_enforce_s_agree() {
        use crate::{count_ops, dual_traversal, IncrementalLists, Mac};
        let mut pos = nbody::plummer(4000, 1.0, 1.0, 17).pos;
        let built = build_adaptive(&pos, BuildParams::with_s(48));
        // Contract the cloud: inner leaves overflow, outer parents thin out.
        for p in &mut pos {
            *p *= 0.6;
        }
        let (mut alone, mut planned) = (built.clone(), built);
        alone.rebin(&pos);
        planned.rebin(&pos);
        let mut plan = IncrementalLists::build(&planned, Mac::new(0.5));

        let reference = alone.enforce_s();
        let through_plan = planned.enforce_s_with(
            &mut plan,
            IncrementalLists::apply_collapse,
            IncrementalLists::apply_push_down,
        );
        assert!(reference.collapses > 0 && reference.pushdowns > 0);
        assert_eq!(through_plan, reference);
        assert_eq!(planned.visible_nodes(), alone.visible_nodes());
        assert_eq!(planned.order(), alone.order());
        for id in alone.visible_nodes() {
            assert_eq!(planned.node(id).range(), alone.node(id).range());
        }
        let fresh = dual_traversal(&planned, Mac::new(0.5));
        assert_eq!(plan.counts(), count_ops(&planned, &fresh));
        plan.audit(&planned).unwrap();
    }

    #[test]
    fn pushdown_refuses_at_max_level() {
        let pos = vec![Vec3::splat(0.1); 50];
        let mut t = build_adaptive(
            &pos,
            BuildParams {
                s: 4,
                max_level: 2,
                pad: 1e-6,
            },
        );
        let deep = t
            .visible_leaves()
            .into_iter()
            .find(|&l| t.node(l).level == 2 && t.node(l).count() > 0)
            .unwrap();
        assert!(!t.push_down(deep));
    }
}
