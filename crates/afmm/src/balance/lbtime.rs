//! Modeled wall times of the tree-maintenance / load-balancing operations,
//! charged to the paper's "LB time" accounting (Table II). The constants are
//! flop-equivalents per unit of structural work; maintenance is
//! memory-bound, so it runs at a derated fraction of the cores' rate.

use crate::config::HeteroNode;

/// Fraction of peak flop rate achieved by pointer-chasing tree work.
const MAINTENANCE_EFFICIENCY: f64 = 0.5;
/// Work per body per tree level for a full rebuild (Morton keys +
/// parallel sort + node allocation).
const REBUILD_PER_BODY_LEVEL: f64 = 40.0;
/// Work per body for the per-step re-bin pass. With contiguous subtree
/// ranges this is a streaming membership check + local fix-up (bodies
/// rarely change leaves within one small time step), not a full
/// re-sort — matching the paper's near-zero strategy-1 LB overhead
/// (0.02% of compute over 2000 steps).
const REBIN_PER_BODY: f64 = 8.0;
/// Work per visible node for an Enforce_S sweep.
const ENFORCE_PER_NODE: f64 = 60.0;
/// Work per Collapse/PushDown application (flag writes, range
/// repartition).
const MODIFY_PER_OP: f64 = 3.0e3;
/// Work per interaction-list entry for a prediction pass (dual
/// traversal + op recount).
const PREDICT_PER_ENTRY: f64 = 90.0;
/// Work per edit for patching a live execution plan through a
/// collapse/push-down: the restricted traversal around the edited node,
/// once on the tree before the edit to find what it removes and once after
/// to insert what it adds. Independent of tree size — that is
/// the entire point of the plan layer.
const PLAN_PATCH_PER_EDIT: f64 = 2.0e3;

fn rate(node: &HeteroNode) -> f64 {
    let c = &node.cpu;
    c.cores as f64 * c.rate_flops * c.memory.rate_factor(c.cores) * MAINTENANCE_EFFICIENCY
}

fn levels(n_bodies: usize) -> f64 {
    (n_bodies.max(2) as f64).log2()
}

/// Wall time of a full tree rebuild over `n_bodies`.
pub fn rebuild(node: &HeteroNode, n_bodies: usize) -> f64 {
    REBUILD_PER_BODY_LEVEL * n_bodies as f64 * levels(n_bodies) / rate(node)
}

/// Wall time of re-binning `n_bodies` into the unchanged structure.
pub fn rebin(node: &HeteroNode, n_bodies: usize) -> f64 {
    REBIN_PER_BODY * n_bodies as f64 / rate(node)
}

/// Wall time of one Enforce_S sweep that visited `nodes` and applied
/// `changes` collapse/pushdown operations.
pub fn enforce(node: &HeteroNode, nodes: usize, changes: usize) -> f64 {
    (ENFORCE_PER_NODE * nodes as f64 + MODIFY_PER_OP * changes as f64) / rate(node)
}

/// Wall time of applying `changes` collapse/pushdown operations.
pub fn modify(node: &HeteroNode, changes: usize) -> f64 {
    MODIFY_PER_OP * changes as f64 / rate(node)
}

/// Wall time of one time-prediction pass over a tree whose interaction
/// lists hold `entries` M2L + P2P entries.
pub fn predict(node: &HeteroNode, entries: usize) -> f64 {
    PREDICT_PER_ENTRY * entries as f64 / rate(node)
}

/// Wall time of patching a live execution plan through `edits`
/// collapse/push-down operations (instead of re-deriving lists and counts
/// from scratch — compare [`predict`] for the full pass this replaces).
pub fn plan_patch(node: &HeteroNode, edits: usize) -> f64 {
    PLAN_PATCH_PER_EDIT * edits as f64 / rate(node)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lbtime_scales_sanely() {
        let node = HeteroNode::system_a(10, 2);
        let r1 = rebuild(&node, 10_000);
        let r2 = rebuild(&node, 100_000);
        assert!(r2 > 5.0 * r1, "rebuild super-linear in n: {r1} vs {r2}");
        assert!(rebin(&node, 10_000) < r1, "rebin cheaper than rebuild");
        let serial = HeteroNode::serial();
        assert!(
            rebuild(&serial, 10_000) > r1,
            "fewer cores, slower maintenance"
        );
        assert!(enforce(&node, 1000, 10) > 0.0);
        assert!(predict(&node, 50_000) > 0.0);
        assert_eq!(modify(&node, 0), 0.0);
    }

    #[test]
    fn plan_patch_is_cheap_and_size_independent() {
        let node = HeteroNode::system_a(10, 2);
        assert_eq!(plan_patch(&node, 0), 0.0);
        let one = plan_patch(&node, 1);
        assert!(one > 0.0);
        // A handful of patched edits must undercut the full re-traversal
        // of even a modest list set — the economics the balancer relies on.
        assert!(plan_patch(&node, 10) < predict(&node, 10_000));
        // And undercut a rebuild at any realistic N.
        assert!(plan_patch(&node, 10) < rebuild(&node, 10_000));
    }
}
