use crate::rebin::RebinScratch;
use geom::{Vec3, MAX_MORTON_LEVEL};

/// Index of a node in the tree arena.
pub type NodeId = u32;

/// Sentinel for "no node".
pub const NONE: NodeId = u32::MAX;

/// One octree cell.
///
/// Children are always allocated as **eight consecutive arena slots**
/// starting at `first_child`, in Morton octant order, so child `o` of node
/// `n` is `n.first_child + o`. A node with allocated children can still act
/// as a leaf when `collapsed` is set — the paper's Collapse operation hides
/// the subtree from the FMM without freeing it, so a later PushDown can
/// reclaim it.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    pub center: Vec3,
    pub half_width: f64,
    pub level: u16,
    pub parent: NodeId,
    pub first_child: NodeId,
    /// Start of this subtree's body range in [`Octree::order`].
    pub begin: u32,
    /// One-past-end of the body range.
    pub end: u32,
    /// True when allocated children are hidden from the FMM (Collapse).
    pub collapsed: bool,
}

impl Node {
    /// Number of bodies in this subtree.
    #[inline]
    pub fn count(&self) -> usize {
        (self.end - self.begin) as usize
    }

    /// Body range in tree order.
    #[inline]
    pub fn range(&self) -> std::ops::Range<usize> {
        self.begin as usize..self.end as usize
    }

    /// Does the FMM treat this node as a leaf?
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.first_child == NONE || self.collapsed
    }

    /// Radius of the circumscribed sphere (used by the MAC).
    #[inline]
    pub fn radius(&self) -> f64 {
        self.half_width * 3.0_f64.sqrt()
    }
}

/// Plain-data image of an [`Octree`] for checkpointing: every field needed
/// to reconstruct the tree bit-for-bit, with public fields so a serializer
/// outside this crate can encode it without reflection.
#[derive(Clone, Debug)]
pub struct TreeSnapshot {
    pub nodes: Vec<Node>,
    pub order: Vec<u32>,
    pub codes: Vec<u64>,
    pub s_value: usize,
    pub root_center: Vec3,
    pub root_half_width: f64,
    pub max_level: u16,
}

/// The adaptive octree: a node arena plus the body permutation that gives
/// every subtree a contiguous range.
#[derive(Clone, Debug)]
pub struct Octree {
    pub(crate) nodes: Vec<Node>,
    /// `order[i]` = original body id at tree-order position `i`.
    pub(crate) order: Vec<u32>,
    /// Morton code of the body at tree-order position `i`, non-decreasing
    /// (bodies with equal codes ascend by id): child ranges are found by
    /// binary search on it.
    pub(crate) codes: Vec<u64>,
    /// Leaf-capacity parameter S the tree was last built/enforced with.
    pub(crate) s_value: usize,
    /// Root cube fixed at build time; re-binning clamps to it.
    pub(crate) root_center: Vec3,
    pub(crate) root_half_width: f64,
    /// Deepest level subdivision may reach (≤ 21, the Morton limit).
    pub(crate) max_level: u16,
    /// Warm rebin buffers; excluded from snapshots.
    pub(crate) scratch: RebinScratch,
}

impl Octree {
    pub const ROOT: NodeId = 0;

    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id as usize]
    }

    /// Total allocated nodes, including hidden ones.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    #[inline]
    pub fn num_bodies(&self) -> usize {
        self.order.len()
    }

    /// The S the tree currently enforces.
    #[inline]
    pub fn s_value(&self) -> usize {
        self.s_value
    }

    pub fn set_s_value(&mut self, s: usize) {
        assert!(s >= 1);
        self.s_value = s;
    }

    #[inline]
    pub fn root_center(&self) -> Vec3 {
        self.root_center
    }

    #[inline]
    pub fn root_half_width(&self) -> f64 {
        self.root_half_width
    }

    /// Tree-order body permutation: position `i` holds original body id.
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Child `octant` of `id`, or `None` when the node has no allocated
    /// children. Hidden (collapsed-away) children are still returned; use
    /// [`Octree::visible_children`] for FMM traversals.
    #[inline]
    pub fn child(&self, id: NodeId, octant: usize) -> Option<NodeId> {
        let fc = self.nodes[id as usize].first_child;
        if fc == NONE {
            None
        } else {
            Some(fc + octant as NodeId)
        }
    }

    /// The eight children of `id` as seen by the FMM (empty iterator for
    /// leaves and collapsed nodes).
    pub fn visible_children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let n = &self.nodes[id as usize];
        let fc = if n.is_leaf() { NONE } else { n.first_child };
        (0..8u32).filter_map(move |o| if fc == NONE { None } else { Some(fc + o) })
    }

    /// Is `id` visible to the FMM: reachable without entering a collapsed
    /// subtree? O(depth).
    pub fn is_visible(&self, id: NodeId) -> bool {
        let mut p = self.node(id).parent;
        while p != NONE {
            let n = self.node(p);
            if n.collapsed {
                return false;
            }
            p = n.parent;
        }
        true
    }

    /// All node ids visible to the FMM (reachable without entering collapsed
    /// subtrees), in DFS pre-order.
    pub fn visible_nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack = vec![Self::ROOT];
        while let Some(id) = stack.pop() {
            out.push(id);
            let n = self.node(id);
            if !n.is_leaf() {
                for o in (0..8).rev() {
                    stack.push(n.first_child + o);
                }
            }
        }
        out
    }

    /// Visible leaves (FMM leaves), DFS pre-order.
    pub fn visible_leaves(&self) -> Vec<NodeId> {
        self.visible_nodes()
            .into_iter()
            .filter(|&id| self.node(id).is_leaf())
            .collect()
    }

    /// Visible non-empty leaves.
    pub fn active_leaves(&self) -> Vec<NodeId> {
        self.visible_leaves()
            .into_iter()
            .filter(|&id| self.node(id).count() > 0)
            .collect()
    }

    /// Maximum level among visible nodes (root = 0).
    pub fn depth(&self) -> usize {
        self.visible_nodes()
            .into_iter()
            .map(|id| self.node(id).level as usize)
            .max()
            .unwrap_or(0)
    }

    /// Group visible node ids by level, index = level. Used by
    /// level-synchronous executors.
    pub fn levels(&self) -> Vec<Vec<NodeId>> {
        let mut lv: Vec<Vec<NodeId>> = Vec::new();
        for id in self.visible_nodes() {
            let l = self.node(id).level as usize;
            if lv.len() <= l {
                lv.resize_with(l + 1, Vec::new);
            }
            lv[l].push(id);
        }
        lv
    }

    /// Center of the child cell `octant` of node `id`.
    pub(crate) fn child_center(&self, id: NodeId, octant: usize) -> Vec3 {
        let n = &self.nodes[id as usize];
        let q = n.half_width * 0.5;
        Vec3::new(
            n.center.x + if octant & 1 != 0 { q } else { -q },
            n.center.y + if octant & 2 != 0 { q } else { -q },
            n.center.z + if octant & 4 != 0 { q } else { -q },
        )
    }

    /// Structural heap footprint of the tree: the node arena, the body
    /// permutation and Morton codes (at *capacity*, not length — reserved
    /// headroom is real memory), plus the warm rebin scratch. Available
    /// with or without the `memprof` feature; the allocator-measured and
    /// structural figures are cross-checked by the agreement test in the
    /// root test suite.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.order.capacity() * std::mem::size_of::<u32>()
            + self.codes.capacity() * std::mem::size_of::<u64>()
            + self.scratch.heap_bytes()
    }

    /// Capture the complete tree state for checkpointing. The snapshot is an
    /// exact image: [`Octree::from_snapshot`] reconstructs a tree whose every
    /// field — including the Morton codes that drive re-binning — is
    /// bit-identical to the original.
    pub fn snapshot(&self) -> TreeSnapshot {
        TreeSnapshot {
            nodes: self.nodes.clone(),
            order: self.order.clone(),
            codes: self.codes.clone(),
            s_value: self.s_value,
            root_center: self.root_center,
            root_half_width: self.root_half_width,
            max_level: self.max_level,
        }
    }

    /// Reconstruct a tree from a snapshot, validating structural invariants
    /// so a corrupted or tampered checkpoint is rejected instead of producing
    /// an inconsistent tree.
    pub fn from_snapshot(snap: TreeSnapshot) -> Result<Octree, String> {
        if snap.codes.len() != snap.order.len() {
            return Err(format!(
                "snapshot codes/order length mismatch: {} vs {}",
                snap.codes.len(),
                snap.order.len()
            ));
        }
        if snap.s_value == 0 {
            return Err("snapshot S value must be >= 1".into());
        }
        let tree = Octree {
            nodes: snap.nodes,
            order: snap.order,
            codes: snap.codes,
            s_value: snap.s_value,
            root_center: snap.root_center,
            root_half_width: snap.root_half_width,
            max_level: snap.max_level,
            // Scratch is not state: a restored tree re-warms on first rebin.
            scratch: RebinScratch::default(),
        };
        tree.check_invariants()?;
        Ok(tree)
    }

    /// Debug-check structural invariants; used by tests and property tests.
    /// Returns an error description instead of panicking so proptest can
    /// shrink on it.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("no root".into());
        }
        // Every allocated node's body range is well-formed — hidden ones
        // too: their stale ranges need not nest, but populations are read
        // off every node.
        let bodies = self.order.len();
        let malformed = |n: &Node| n.begin > n.end || n.end as usize > bodies;
        if let Some(id) = self.nodes.iter().position(malformed) {
            let n = &self.nodes[id];
            return Err(format!(
                "node {id} has body range {}..{}, not within 0..{bodies}",
                n.begin, n.end
            ));
        }
        // Levels stop at the Morton limit — push-downs included — which a
        // plan patch's ancestor path is sized for.
        let deep = |n: &Node| u32::from(n.level) > MAX_MORTON_LEVEL;
        if u32::from(self.max_level) > MAX_MORTON_LEVEL || self.nodes.iter().any(deep) {
            return Err(format!("a level past the Morton limit {MAX_MORTON_LEVEL}"));
        }
        let root = self.node(Self::ROOT);
        if root.count() != self.order.len() {
            return Err(format!(
                "root covers {} of {} bodies",
                root.count(),
                self.order.len()
            ));
        }
        // Geometry, over every allocated child — hidden subtrees too, which
        // a push-down reclaims as they are: the root is the recorded root
        // cube, finite with a positive width, and every child sits at its
        // octant's center with exactly half its parent's width. The far
        // field scales by these widths, so they are numeric inputs.
        let (center, width) = (self.root_center, self.root_half_width);
        if !(center.is_finite() && width.is_finite() && width > 0.0) {
            return Err(format!(
                "root cube center {center:?} half-width {width} is not finite and positive"
            ));
        }
        if root.center != center || root.half_width != width {
            return Err(format!(
                "root node (center {:?}, half-width {}) differs from the root cube \
                 (center {center:?}, half-width {width})",
                root.center, root.half_width
            ));
        }
        // Children come after their parent in the arena and name it, so
        // the walk visits every node at most once.
        let mut stack = vec![Self::ROOT];
        while let Some(id) = stack.pop() {
            let n = self.node(id);
            if n.first_child == NONE {
                continue;
            }
            let first = n.first_child as usize;
            if first <= id as usize || first + 8 > self.nodes.len() {
                return Err(format!(
                    "node {id} has its children outside the arena at {first}"
                ));
            }
            for o in 0..8 {
                let cid = (first + o) as NodeId;
                let c = self.node(cid);
                if c.parent != id {
                    return Err(format!("child {cid} has wrong parent"));
                }
                if c.level != n.level + 1 {
                    return Err(format!("child level mismatch at {cid}"));
                }
                if c.half_width != n.half_width * 0.5 {
                    return Err(format!(
                        "child {cid} half-width {} is not half its parent's {}",
                        c.half_width, n.half_width
                    ));
                }
                let off = (c.center - self.child_center(id, o)).norm();
                if off.is_nan() || off > 1e-9 * n.half_width {
                    return Err(format!("child center mismatch at {cid}"));
                }
                stack.push(cid);
            }
        }
        // order must be a permutation.
        let mut seen = vec![false; self.order.len()];
        for &b in &self.order {
            let b = b as usize;
            if b >= seen.len() || seen[b] {
                return Err(format!("order is not a permutation (body {b})"));
            }
            seen[b] = true;
        }
        // Tree order is ascending (code, body): every child range is found
        // by binary search on `codes`, before any rebin has rewritten them.
        let keys = || self.codes.iter().zip(&self.order);
        if let Some(i) = keys().zip(keys().skip(1)).position(|(a, b)| a >= b) {
            return Err(format!(
                "tree order is not ascending by (code, body) at position {}",
                i + 1
            ));
        }
        // Visible children of each visible parent tile its range exactly.
        for id in self.visible_nodes() {
            let n = self.node(id);
            if n.is_leaf() {
                continue;
            }
            let mut pos = n.begin;
            for o in 0..8 {
                let c = self.node(n.first_child + o);
                if c.begin != pos {
                    return Err(format!(
                        "child ranges do not tile parent at node {id} octant {o}: {} != {}",
                        c.begin, pos
                    ));
                }
                pos = c.end;
            }
            if pos != n.end {
                return Err(format!("children do not cover parent range at node {id}"));
            }
        }
        Ok(())
    }
}
