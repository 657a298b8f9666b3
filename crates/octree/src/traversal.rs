use crate::node::{Node, NodeId, Octree};
use gpu_sim::GpuJob;
use rayon::prelude::*;

/// Fewest arena nodes a traversal or plan rebuild forks for. A rebuild's
/// forks cost ≈ 0.09 ms (measured with three): on two workers a warm
/// rebuild breaks even near 300 nodes (0.5 ms), is ahead by 1.1–1.3× up to
/// 1 600 nodes and by 1.6× at 2 600. Under this size the gain is a fraction
/// of a millisecond that no step shows (a balanced run on 330–460-node
/// trees reads the same either way), so those trees keep the path that
/// spawns nothing.
pub(crate) const MIN_FORK_NODES: usize = 1024;

/// Workers a traversal or plan rebuild of `tree` uses: the pool's width from
/// `MIN_FORK_NODES` (1 024) arena nodes up, one below. Other work priced
/// per node of the tree forks by the same rule.
pub fn fork_width(tree: &Octree) -> usize {
    if tree.num_nodes() < MIN_FORK_NODES {
        1
    } else {
        rayon::current_num_threads()
    }
}

/// The capacity pushing `len` elements onto an empty `Vec` ends with:
/// doubling from four. The most a list refilled in place may keep, so a
/// recycled plan never holds more than a fresh one would.
fn fresh_capacity(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len.next_power_of_two().max(4)
    }
}

/// Give back what recycled storage holds beyond what a fresh `Vec` of the
/// same length would: lists refilled in place keep their capacity across
/// rebuilds, and one whose node now has fewer entries holds too much.
pub(crate) fn trim<T>(v: &mut Vec<T>) {
    let fresh = fresh_capacity(v.len());
    if v.capacity() > fresh {
        v.shrink_to(fresh);
    }
}

/// Make `spine` `n` empty lists for a refill. The lists of the same arena
/// are kept, capacity and all. A spine of another length holds another
/// arena's lists (a tree rebuilt at another S), sized for other nodes: those
/// are dropped. Regrown and trimmed in place they scatter the heap — at
/// N = 1M the steps after a leaf-capacity search ran ≈ 6 % slower and the
/// peak resident set grew by a few MB.
pub(crate) fn empty_lists(spine: &mut Vec<Vec<NodeId>>, n: usize) {
    if spine.len() != n {
        spine.clear();
    }
    spine.resize_with(n, Vec::new);
    trim(spine);
    spine.iter_mut().for_each(Vec::clear);
}

/// Multipole acceptance criterion: cells `A`, `B` are *well separated* when
/// `r_A + r_B < theta * d(c_A, c_B)` with `r` the circumscribed-sphere
/// radius. Smaller `theta` is stricter (more P2P, higher accuracy).
#[derive(Clone, Copy, Debug)]
pub struct Mac {
    pub theta: f64,
}

impl Mac {
    pub fn new(theta: f64) -> Self {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        Mac { theta }
    }

    #[inline]
    pub fn accepts(&self, tree: &Octree, a: NodeId, b: NodeId) -> bool {
        self.separates(tree.node(a), tree.node(b))
    }

    /// [`Mac::accepts`] on the two cells themselves.
    #[inline]
    pub(crate) fn separates(&self, na: &Node, nb: &Node) -> bool {
        let d2 = na.center.dist_sq(nb.center);
        let r = na.radius() + nb.radius();
        r * r < self.theta * self.theta * d2
    }
}

impl Default for Mac {
    fn default() -> Self {
        Mac { theta: 0.6 }
    }
}

/// Interaction lists produced by [`dual_traversal`].
///
/// `m2l[a]` holds source node ids whose multipole expansion translates into
/// `a`'s local expansion; `p2p[a]` (leaves only) holds source *leaf* ids for
/// direct interaction — including `a` itself for the intra-leaf pairs.
#[derive(Clone, Debug, Default)]
pub struct InteractionLists {
    pub m2l: Vec<Vec<NodeId>>,
    pub p2p: Vec<Vec<NodeId>>,
}

impl InteractionLists {
    /// The lists an `entry` joins.
    pub(crate) fn of(&mut self, entry: Entry) -> &mut Vec<Vec<NodeId>> {
        match entry {
            Entry::M2l => &mut self.m2l,
            Entry::P2p => &mut self.p2p,
        }
    }

    pub fn num_m2l(&self) -> usize {
        self.m2l.iter().map(Vec::len).sum()
    }

    /// Structural heap footprint: outer spines plus every per-node list's
    /// capacity (not length — patch churn leaves real headroom).
    pub fn heap_bytes(&self) -> usize {
        nested_vec_bytes(&self.m2l) + nested_vec_bytes(&self.p2p)
    }

    pub fn num_p2p_pairs(&self) -> usize {
        self.p2p.iter().map(Vec::len).sum()
    }

    /// The P2P work of leaf `id` per its P2P list, in one pass: its direct
    /// body-body interactions, diagonal excluded (matching
    /// `OpCounts::p2p_interactions`), and its GPU block-steps, each entry
    /// priced by [`gpu_sim::GpuJob::p2p_block_steps`], the tile rule the
    /// simulated kernel charges, with the leaf itself among its sources
    /// whole (matching `OpCounts::gpu_block_steps`). This is the one
    /// canonical P2P count — op counting, task-graph costing and plan
    /// maintenance all read it from here.
    pub fn leaf_p2p(&self, tree: &Octree, id: NodeId) -> (u64, u64) {
        let nt = tree.node(id).count();
        let mut pairs = 0u64;
        let mut block_steps = 0u64;
        for &b in &self.p2p[id as usize] {
            let nb = tree.node(b).count();
            pairs += if b == id {
                (nt * nt.saturating_sub(1)) as u64
            } else {
                (nt * nb) as u64
            };
            block_steps += GpuJob::p2p_block_steps(nt, nb);
        }
        (pairs, block_steps)
    }
}

/// Heap bytes of a vec-of-vecs: each inner vector's reserved capacity plus
/// the outer spine at length granularity (the spines here are built once
/// at exactly the node count, so length ≈ capacity).
pub(crate) fn nested_vec_bytes(v: &[Vec<NodeId>]) -> usize {
    v.iter()
        .map(|l| l.capacity() * std::mem::size_of::<NodeId>())
        .sum::<usize>()
        + std::mem::size_of_val(v)
}

/// Dual-tree traversal (exaFMM style) over the *visible* tree: starting from
/// `(root, root)`, a well-separated pair becomes an M2L entry, a pair of
/// non-separated leaves becomes a P2P entry, and otherwise the larger cell
/// splits. This handles leaves at arbitrary levels — the defining difficulty
/// of the adaptive FMM — while emitting only the paper's six operations.
///
/// Empty cells are skipped entirely. Large trees are traversed through
/// workers (`Traversal::fill`); the lists are the same at any width.
pub fn dual_traversal(tree: &Octree, mac: Mac) -> InteractionLists {
    let mut lists = InteractionLists::default();
    Traversal::default().fill(tree, mac, &mut lists, fork_width(tree));
    lists
}

/// Which list of its target an emitted pair joins.
#[derive(Clone, Copy)]
pub(crate) enum Entry {
    M2l,
    P2p,
}

/// How a traversal tags the two sides of its states, which states it
/// visits, and which cells it sees as empty. A child's tag follows from its
/// parent's alone, so a relation carried down the walk is never derived
/// again per state.
pub(crate) trait Prune {
    type Tag: Copy;
    /// The tag of `child`, a child of a side tagged `parent`.
    fn tag(&self, parent: Self::Tag, child: NodeId) -> Self::Tag;
    /// Whether a state whose sides are tagged `ta`, `tb` is visited.
    fn keep(&self, ta: Self::Tag, tb: Self::Tag) -> bool;
    /// Whether node `id`, the cell `node`, holds no bodies: a state with an
    /// empty side ends at once.
    fn empty(&self, node: &Node, id: NodeId) -> bool;
}

/// The full traversal: no tags, every state visited, a cell as empty as
/// its body range.
impl Prune for () {
    type Tag = ();
    #[inline(always)]
    fn tag(&self, _: (), _: NodeId) {}
    #[inline(always)]
    fn keep(&self, _: (), _: ()) -> bool {
        true
    }
    #[inline(always)]
    fn empty(&self, node: &Node, _: NodeId) -> bool {
        node.count() == 0
    }
}

/// The dual traversal of every state descending from `(a, b)` over the
/// arena `nodes` that `prune` keeps, handing each pair it emits, tags and
/// all, to `emit` in emission order. This is the one encoding of the
/// traversal's rule: plan builds run it with `()` tags over a tree's arena,
/// a plan patch with tags that relate each side to the edit
/// (`crate::plan`), and [`Octree::price`] with `()` tags over a candidate's
/// arena that no tree owns. Children are visited last octant first, so every
/// list names its sources in strictly descending `Node::begin` — the order
/// the solve's float sums follow, and the one a plan patch keeps.
///
/// A child state is tagged and tested in [`split`], before the call, and
/// the walk recurses through `split` alone: a state pruned or ending at once
/// costs no call (folding `split` in here measured a full build 42–55 →
/// 56–68 ms).
#[inline(always)]
pub(crate) fn traverse<P: Prune>(
    nodes: &[Node],
    mac: Mac,
    prune: &P,
    a: (NodeId, P::Tag),
    b: (NodeId, P::Tag),
    emit: &mut impl FnMut(Entry, (NodeId, P::Tag), (NodeId, P::Tag)),
) {
    let na = &nodes[a.0 as usize];
    let nb = &nodes[b.0 as usize];
    if prune.empty(na, a.0) || prune.empty(nb, b.0) {
        return;
    }
    if a.0 != b.0 && mac.separates(na, nb) {
        emit(Entry::M2l, a, b);
        return;
    }
    let a_leaf = na.is_leaf();
    let b_leaf = nb.is_leaf();
    if a_leaf && b_leaf {
        emit(Entry::P2p, a, b);
        return;
    }
    // Split the larger cell (tie: split the target side first so local
    // work sinks toward the leaves).
    split(
        nodes,
        mac,
        prune,
        a,
        b,
        !a_leaf && (b_leaf || na.half_width >= nb.half_width),
        emit,
    );
}

/// The kept states `(c, b)` for every child `c` of `a` when `split_a`, else
/// `(a, c)` for every child of `b`: the one call a traversal recurses
/// through, so the states that end at once cost none.
fn split<P: Prune>(
    nodes: &[Node],
    mac: Mac,
    prune: &P,
    a: (NodeId, P::Tag),
    b: (NodeId, P::Tag),
    split_a: bool,
    emit: &mut impl FnMut(Entry, (NodeId, P::Tag), (NodeId, P::Tag)),
) {
    if split_a {
        let first = nodes[a.0 as usize].first_child;
        for c in (first..first + 8).rev() {
            let c = (c, prune.tag(a.1, c));
            if prune.keep(c.1, b.1) {
                traverse(nodes, mac, prune, c, b, emit);
            }
        }
    } else {
        let first = nodes[b.0 as usize].first_child;
        for c in (first..first + 8).rev() {
            let c = (c, prune.tag(b.1, c));
            if prune.keep(a.1, c.1) {
                traverse(nodes, mac, prune, a, c, emit);
            }
        }
    }
}

/// One task of a forked traversal: the subtree under one child of the root,
/// with its targets' lists moved out of the spine while the task runs.
#[derive(Clone, Debug, Default)]
struct Piece {
    /// The subtree's non-empty visible nodes, breadth first from the child
    /// itself — every node the task can emit to; [`Traversal::slot`] maps
    /// each to its index.
    ids: Vec<NodeId>,
    m2l: Vec<Vec<NodeId>>,
    p2p: Vec<Vec<NodeId>>,
}

/// The warm buffers of a forked traversal into recycled lists. Pure scratch
/// between calls: a plan keeps one so a rebuild of an unchanged tree
/// allocates only the forks' bookkeeping. The serial traversal needs none.
#[derive(Clone, Debug, Default)]
pub(crate) struct Traversal {
    /// A target's index in its piece's `ids`.
    slot: Vec<u32>,
    pieces: Vec<Piece>,
}

impl Traversal {
    /// Refill `lists` with the dual traversal of `tree`, in place: every
    /// list is emptied and refilled, keeping its capacity up to what a
    /// fresh list of its new length would hold ([`trim`]).
    ///
    /// With `workers` > 1 and a root that splits, one task per child of the
    /// root runs through workers, claimed in turn. This is exact, not
    /// approximate: `(root, root)` splits the target side, so every state
    /// whose target lies under child `c` descends from `(c, root)` and from
    /// no other child's state. A task thus emits into its own targets' lists
    /// only, and each list receives the serial traversal's entries in the
    /// serial order.
    pub(crate) fn fill(
        &mut self,
        tree: &Octree,
        mac: Mac,
        lists: &mut InteractionLists,
        workers: usize,
    ) {
        let n = tree.num_nodes();
        for spine in [&mut lists.m2l, &mut lists.p2p] {
            empty_lists(spine, n);
        }
        if workers > 1 && !tree.node(Octree::ROOT).is_leaf() {
            self.fork(tree, mac, lists);
        } else {
            let InteractionLists { m2l, p2p } = lists;
            let root = (Octree::ROOT, ());
            traverse(
                &tree.nodes,
                mac,
                &(),
                root,
                root,
                &mut |e, (a, _), (b, _)| match e {
                    Entry::M2l => m2l[a as usize].push(b),
                    Entry::P2p => p2p[a as usize].push(b),
                },
            );
        }
        for list in lists.m2l.iter_mut().chain(&mut lists.p2p) {
            trim(list);
        }
    }

    fn fork(&mut self, tree: &Octree, mac: Mac, lists: &mut InteractionLists) {
        let Traversal { slot, pieces } = self;
        slot.resize(tree.num_nodes(), 0);
        pieces.resize_with(8, Piece::default);
        for (piece, child) in pieces.iter_mut().zip(tree.visible_children(Octree::ROOT)) {
            piece.ids.clear();
            if tree.node(child).count() > 0 {
                piece.ids.push(child);
            }
            // Breadth first, with `ids` as its own queue.
            let mut next = 0;
            while let Some(&id) = piece.ids.get(next) {
                slot[id as usize] = next as u32;
                next += 1;
                let busy = tree
                    .visible_children(id)
                    .filter(|&c| tree.node(c).count() > 0);
                piece.ids.extend(busy);
            }
            let ids = &piece.ids;
            piece.m2l.extend(
                ids.iter()
                    .map(|&id| std::mem::take(&mut lists.m2l[id as usize])),
            );
            piece.p2p.extend(
                ids.iter()
                    .map(|&id| std::mem::take(&mut lists.p2p[id as usize])),
            );
        }
        let slot = &*slot;
        pieces.par_chunks_mut(1).for_each(|one| {
            let Piece { ids, m2l, p2p } = &mut one[0];
            let Some(&child) = ids.first() else {
                return; // an empty octant: no state under it emits
            };
            let (child, root) = ((child, ()), (Octree::ROOT, ()));
            traverse(
                &tree.nodes,
                mac,
                &(),
                child,
                root,
                &mut |e, (a, _), (b, _)| {
                    let at = slot[a as usize] as usize;
                    match e {
                        Entry::M2l => m2l[at].push(b),
                        Entry::P2p => p2p[at].push(b),
                    }
                },
            );
        });
        for piece in pieces.iter_mut() {
            let moved = piece.m2l.drain(..).zip(piece.p2p.drain(..));
            for (&id, (m2l, p2p)) in piece.ids.iter().zip(moved) {
                lists.m2l[id as usize] = m2l;
                lists.p2p[id as usize] = p2p;
            }
        }
    }

    /// Heap bytes of the warm buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.slot.capacity() * size_of::<u32>()
            + self.pieces.capacity() * size_of::<Piece>()
            + self
                .pieces
                .iter()
                .map(|p| {
                    p.ids.capacity() * size_of::<NodeId>()
                        + (p.m2l.capacity() + p.p2p.capacity()) * size_of::<Vec<NodeId>>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_adaptive, BuildParams};
    use crate::random_points;

    /// Every ordered body pair (i, j), i != j, must be covered exactly once:
    /// either by a P2P leaf pair or by an M2L pair over ancestors. This is
    /// the fundamental correctness property of the FMM interaction
    /// decomposition.
    fn assert_exact_coverage(tree: &Octree, lists: &InteractionLists, n_bodies: usize) {
        let mut cover = vec![0u8; n_bodies * n_bodies];
        let ranges: Vec<_> = (0..tree.num_nodes() as NodeId)
            .map(|id| tree.node(id).range())
            .collect();
        let mark = |cover: &mut Vec<u8>,
                    ta: std::ops::Range<usize>,
                    tb: std::ops::Range<usize>,
                    selfi: bool| {
            for i in ta {
                let bi = tree.order()[i] as usize;
                for j in tb.clone() {
                    let bj = tree.order()[j] as usize;
                    if selfi && bi == bj {
                        continue;
                    }
                    cover[bi * n_bodies + bj] += 1;
                }
            }
        };
        for a in 0..tree.num_nodes() {
            for &b in &lists.m2l[a] {
                mark(
                    &mut cover,
                    ranges[a].clone(),
                    ranges[b as usize].clone(),
                    false,
                );
            }
            for &b in &lists.p2p[a] {
                mark(
                    &mut cover,
                    ranges[a].clone(),
                    ranges[b as usize].clone(),
                    a as NodeId == b,
                );
            }
        }
        for i in 0..n_bodies {
            for j in 0..n_bodies {
                let expect = u8::from(i != j);
                assert_eq!(
                    cover[i * n_bodies + j],
                    expect,
                    "pair ({i},{j}) covered {} times",
                    cover[i * n_bodies + j]
                );
            }
        }
    }

    #[test]
    fn traversal_covers_every_pair_exactly_once() {
        let pos = random_points(120, 21);
        let tree = build_adaptive(&pos, BuildParams::with_s(8));
        let lists = dual_traversal(&tree, Mac::default());
        assert_exact_coverage(&tree, &lists, pos.len());
    }

    #[test]
    fn traversal_covers_pairs_after_collapse() {
        let pos = random_points(150, 22);
        let mut tree = build_adaptive(&pos, BuildParams::with_s(6));
        // Collapse a couple of internal nodes, then lists must still cover.
        let internals: Vec<_> = tree
            .visible_nodes()
            .into_iter()
            .filter(|&id| !tree.node(id).is_leaf() && id != Octree::ROOT)
            .take(3)
            .collect();
        for id in internals {
            tree.collapse(id);
        }
        let lists = dual_traversal(&tree, Mac::default());
        assert_exact_coverage(&tree, &lists, pos.len());
    }

    #[test]
    fn stricter_mac_shifts_work_to_p2p() {
        let pos = random_points(2000, 23);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let loose = dual_traversal(&tree, Mac::new(0.9));
        let strict = dual_traversal(&tree, Mac::new(0.3));
        assert!(strict.num_p2p_pairs() > loose.num_p2p_pairs());
    }

    #[test]
    fn m2l_pairs_are_well_separated() {
        let pos = random_points(1000, 24);
        let tree = build_adaptive(&pos, BuildParams::with_s(16));
        let mac = Mac::default();
        let lists = dual_traversal(&tree, mac);
        for a in 0..tree.num_nodes() as NodeId {
            for &b in &lists.m2l[a as usize] {
                assert!(mac.accepts(&tree, a, b), "M2L pair not separated");
            }
        }
    }

    #[test]
    fn p2p_lists_only_on_leaves_and_include_self() {
        let pos = random_points(500, 25);
        let tree = build_adaptive(&pos, BuildParams::with_s(32));
        let lists = dual_traversal(&tree, Mac::default());
        for a in 0..tree.num_nodes() as NodeId {
            if !lists.p2p[a as usize].is_empty() {
                assert!(tree.node(a).is_leaf());
                assert!(tree.node(a).count() > 0);
                assert!(
                    lists.p2p[a as usize].contains(&a),
                    "leaf must interact with itself"
                );
                for &b in &lists.p2p[a as usize] {
                    assert!(tree.node(b).is_leaf());
                }
            }
        }
    }

    #[test]
    fn empty_tree_produces_empty_lists() {
        let tree = build_adaptive(&[], BuildParams::with_s(8));
        let lists = dual_traversal(&tree, Mac::default());
        assert_eq!(lists.num_m2l(), 0);
        assert_eq!(lists.num_p2p_pairs(), 0);
    }

    #[test]
    fn single_leaf_tree_has_only_self_p2p() {
        let pos = random_points(10, 26);
        let tree = build_adaptive(&pos, BuildParams::with_s(64));
        let lists = dual_traversal(&tree, Mac::default());
        assert_eq!(lists.num_m2l(), 0);
        assert_eq!(lists.p2p[0], vec![0]);
    }
}
