use crate::node::{NodeId, Octree};
use crate::traversal::InteractionLists;

/// Application counts `M(op)` of the six FMM operations for a tree plus its
/// interaction lists — the quantities the paper's time-prediction model
/// multiplies by the observed per-op coefficients.
///
/// Body-proportional operations (P2M, L2P) are counted in *bodies*, and P2P
/// in *body-body interactions*, so that predictions scale correctly when a
/// tree modification changes leaf populations (this matches the paper's
/// `Interactions(t) = p_t · Σ_u p_u` accounting for the GPU share).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OpCounts {
    /// Bodies expanded into leaf multipoles.
    pub p2m_bodies: u64,
    /// Child-to-parent multipole translations.
    pub m2m_ops: u64,
    /// Multipole-to-local cell pair translations.
    pub m2l_ops: u64,
    /// Parent-to-child local translations.
    pub l2l_ops: u64,
    /// Bodies evaluated from leaf locals.
    pub l2p_bodies: u64,
    /// Direct body-body interactions (the GPU's work).
    pub p2p_interactions: u64,
    /// The GPU's work in the unit its kernel is charged: per P2P list entry
    /// (target a, source b), ⌈n_a/B⌉ blocks of B threads each streaming
    /// n_b bodies plus ⌈n_b/B⌉ tile loads
    /// ([`gpu_sim::GpuJob::p2p_block_steps`]). Unlike `p2p_interactions` it
    /// counts the idle threads of partial blocks.
    pub gpu_block_steps: u64,
    /// Non-empty visible nodes — each spawns one upsweep and one downsweep
    /// task, so this drives the task-overhead share of the CPU cost.
    pub active_nodes: u64,
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        self.p2m_bodies += o.p2m_bodies;
        self.m2m_ops += o.m2m_ops;
        self.m2l_ops += o.m2l_ops;
        self.l2l_ops += o.l2l_ops;
        self.l2p_bodies += o.l2p_bodies;
        self.p2p_interactions += o.p2p_interactions;
        self.gpu_block_steps += o.gpu_block_steps;
        self.active_nodes += o.active_nodes;
    }
}

impl std::ops::SubAssign for OpCounts {
    fn sub_assign(&mut self, o: OpCounts) {
        self.p2m_bodies -= o.p2m_bodies;
        self.m2m_ops -= o.m2m_ops;
        self.m2l_ops -= o.m2l_ops;
        self.l2l_ops -= o.l2l_ops;
        self.l2p_bodies -= o.l2p_bodies;
        self.p2p_interactions -= o.p2p_interactions;
        self.gpu_block_steps -= o.gpu_block_steps;
        self.active_nodes -= o.active_nodes;
    }
}

/// Aggregate structural statistics of the visible tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeStats {
    pub visible_nodes: usize,
    pub visible_leaves: usize,
    pub nonempty_leaves: usize,
    pub depth: usize,
    pub min_leaf_level: usize,
    pub max_leaf: usize,
    pub mean_leaf: f64,
}

impl TreeStats {
    pub fn gather(tree: &Octree) -> Self {
        let nodes = tree.visible_nodes();
        let leaves: Vec<_> = nodes
            .iter()
            .copied()
            .filter(|&id| tree.node(id).is_leaf())
            .collect();
        let nonempty: Vec<_> = leaves
            .iter()
            .copied()
            .filter(|&id| tree.node(id).count() > 0)
            .collect();
        let depth = nodes
            .iter()
            .map(|&id| tree.node(id).level as usize)
            .max()
            .unwrap_or(0);
        let min_leaf_level = nonempty
            .iter()
            .map(|&id| tree.node(id).level as usize)
            .min()
            .unwrap_or(0);
        let max_leaf = nonempty
            .iter()
            .map(|&id| tree.node(id).count())
            .max()
            .unwrap_or(0);
        let total: usize = nonempty.iter().map(|&id| tree.node(id).count()).sum();
        TreeStats {
            visible_nodes: nodes.len(),
            visible_leaves: leaves.len(),
            nonempty_leaves: nonempty.len(),
            depth,
            min_leaf_level,
            max_leaf,
            mean_leaf: if nonempty.is_empty() {
                0.0
            } else {
                total as f64 / nonempty.len() as f64
            },
        }
    }
}

/// Contribution of one *visible* node to [`count_ops`]' totals (zero for an
/// empty node). Exposed on its own so an incrementally-patched plan can
/// recompute exactly the contributions its dirty set invalidated.
pub fn node_op_counts(tree: &Octree, lists: &InteractionLists, id: NodeId) -> OpCounts {
    let mut c = OpCounts::default();
    let n = tree.node(id);
    if n.count() == 0 {
        return c;
    }
    c.active_nodes = 1;
    if n.is_leaf() {
        c.p2m_bodies = n.count() as u64;
        c.l2p_bodies = n.count() as u64;
        (c.p2p_interactions, c.gpu_block_steps) = lists.leaf_p2p(tree, id);
    } else {
        // One M2M per non-empty child, one L2L per non-empty child.
        for ch in tree.visible_children(id) {
            if tree.node(ch).count() > 0 {
                c.m2m_ops += 1;
                c.l2l_ops += 1;
            }
        }
    }
    c.m2l_ops = lists.m2l[id as usize].len() as u64;
    c
}

/// Count every FMM operation the given tree + lists will perform.
pub fn count_ops(tree: &Octree, lists: &InteractionLists) -> OpCounts {
    let mut c = OpCounts::default();
    for id in tree.visible_nodes() {
        c += node_op_counts(tree, lists, id);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_adaptive, BuildParams};
    use crate::random_points;
    use crate::traversal::{dual_traversal, Mac};

    #[test]
    fn body_counts_conserved() {
        let pos = random_points(1200, 31);
        let tree = build_adaptive(&pos, BuildParams::with_s(24));
        let lists = dual_traversal(&tree, Mac::default());
        let c = count_ops(&tree, &lists);
        assert_eq!(c.p2m_bodies, 1200);
        assert_eq!(c.l2p_bodies, 1200);
        assert_eq!(c.m2m_ops, c.l2l_ops);
    }

    #[test]
    fn p2p_interactions_match_brute_count() {
        let pos = random_points(100, 32);
        let tree = build_adaptive(&pos, BuildParams::with_s(8));
        let lists = dual_traversal(&tree, Mac::default());
        let c = count_ops(&tree, &lists);
        // Re-count directly from the lists.
        let mut brute = 0u64;
        for a in tree.active_leaves() {
            let na = tree.node(a).count() as u64;
            for &b in &lists.p2p[a as usize] {
                let nb = tree.node(b).count() as u64;
                brute += if a == b { na * (na - 1) } else { na * nb };
            }
        }
        assert_eq!(c.p2p_interactions, brute);
        assert!(c.p2p_interactions > 0);
    }

    #[test]
    fn bigger_s_means_more_p2p_less_m2l() {
        let pos = random_points(4000, 33);
        let coarse = build_adaptive(&pos, BuildParams::with_s(256));
        let fine = build_adaptive(&pos, BuildParams::with_s(16));
        let lc = dual_traversal(&coarse, Mac::default());
        let lf = dual_traversal(&fine, Mac::default());
        let cc = count_ops(&coarse, &lc);
        let cf = count_ops(&fine, &lf);
        // This monotone tradeoff is the paper's central load-balance lever
        // (its Fig 3).
        assert!(cc.p2p_interactions > cf.p2p_interactions);
        assert!(cc.m2l_ops < cf.m2l_ops);
    }

    #[test]
    fn tree_stats_reasonable() {
        let pos = random_points(3000, 35);
        let tree = build_adaptive(&pos, BuildParams::with_s(32));
        let st = TreeStats::gather(&tree);
        assert!(st.visible_leaves > 8);
        assert!(st.nonempty_leaves <= st.visible_leaves);
        assert!(st.max_leaf <= 32);
        assert!(st.mean_leaf > 0.0);
        assert!(st.depth >= 2);
        assert!(st.min_leaf_level <= st.depth);
    }
}
