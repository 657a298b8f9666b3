//! Pricing a leaf capacity without building its tree.
//!
//! The tree's sorted Morton codes fix the adaptive tree at every S inside
//! its root cube: a cell is a run of codes sharing a prefix, its population
//! the run's length. So a candidate S is priced from the codes alone — its
//! node records cut by the build's own split rule, its interactions counted
//! by the plan's own traversal — with no sort, no body permutation, no
//! lists and no plan.

use crate::build::{subdivide, SplitRule};
use crate::node::{Node, NodeId, Octree};
use crate::stats::OpCounts;
use crate::traversal::{traverse, Entry, Mac, MIN_FORK_NODES};
use gpu_sim::GpuJob;
use rayon::prelude::*;

/// Reusable buffers of [`Octree::price`]: the candidate's node records and
/// the walk that cuts them. Pure scratch; once it has held the largest
/// candidate priced with it, a pricing allocates nothing on one worker.
#[derive(Clone, Debug, Default)]
pub struct PriceScratch {
    nodes: Vec<Node>,
    stack: Vec<NodeId>,
}

/// What one traversal task emits: M2L translations, direct body-body
/// interactions, GPU block-steps, and list entries of both kinds.
#[derive(Clone, Copy, Default)]
struct Tally {
    m2l: u64,
    p2p: u64,
    gpu: u64,
    entries: usize,
}

impl Tally {
    /// Count the pair the traversal ended on, P2P by
    /// [`crate::InteractionLists::leaf_p2p`]'s rule: a leaf with itself
    /// makes `n · (n − 1)` interactions, two leaves `n_a · n_b`, and every
    /// entry its GPU block-steps.
    #[inline(always)]
    fn add(&mut self, nodes: &[Node], e: Entry, a: NodeId, b: NodeId) {
        self.entries += 1;
        match e {
            Entry::M2l => self.m2l += 1,
            Entry::P2p => {
                let na = nodes[a as usize].count();
                let nb = nodes[b as usize].count();
                self.p2p += if a == b {
                    (na * na.saturating_sub(1)) as u64
                } else {
                    (na * nb) as u64
                };
                self.gpu += GpuJob::p2p_block_steps(na, nb);
            }
        }
    }

    fn plus(self, o: Tally) -> Tally {
        Tally {
            m2l: self.m2l + o.m2l,
            p2p: self.p2p + o.p2p,
            gpu: self.gpu + o.gpu,
            entries: self.entries + o.entries,
        }
    }

    /// The traversal of every state descending from `(a, b)`, tallied.
    fn of(nodes: &[Node], mac: Mac, a: NodeId, b: NodeId) -> Tally {
        let mut tally = Tally::default();
        traverse(
            nodes,
            mac,
            &(),
            (a, ()),
            (b, ()),
            &mut |e, (a, _), (b, _)| tally.add(nodes, e, a, b),
        );
        tally
    }
}

impl Octree {
    /// The operation counts and list entries (M2L + P2P) of the adaptive
    /// tree at leaf capacity `s` inside this tree's root cube, under `mac`:
    /// exactly what [`crate::count_ops`] and the lists of
    /// [`crate::dual_traversal`] give for [`Octree::resplit`]`(s)` — or for
    /// [`crate::build_adaptive_in_cube`] at `s` over the positions of the
    /// last build or rebin — without building either.
    ///
    /// The candidate's node records are cut from the sorted codes by the
    /// build's split rule, and the body-proportional counts, translations
    /// and active nodes read off them. The traversal then counts what it
    /// emits instead of listing it. From 1 024 candidate nodes up it forks
    /// one task per child of the root, as a plan rebuild does, each tallying
    /// in a local of its own that is summed after the join.
    pub fn price(&self, s: usize, mac: Mac, scratch: &mut PriceScratch) -> (OpCounts, usize) {
        assert!(s >= 1, "leaf capacity S must be at least 1");
        let PriceScratch { nodes, stack } = scratch;
        let cube = (self.root_center, self.root_half_width);
        let rule = SplitRule::Adaptive { s };
        subdivide(&self.codes, cube, rule, self.max_level, nodes, stack);
        let nodes = &nodes[..];

        let mut counts = OpCounts::default();
        for n in nodes.iter().filter(|n| n.count() > 0) {
            counts.active_nodes += 1;
            if n.is_leaf() {
                counts.p2m_bodies += n.count() as u64;
                counts.l2p_bodies += n.count() as u64;
            } else {
                let first = n.first_child as usize;
                let busy = nodes[first..first + 8].iter().filter(|c| c.count() > 0);
                let busy = busy.count() as u64;
                counts.m2m_ops += busy;
                counts.l2l_ops += busy;
            }
        }

        let root = &nodes[Octree::ROOT as usize];
        let fork = nodes.len() >= MIN_FORK_NODES && rayon::current_num_threads() > 1;
        let tally = if fork && !root.is_leaf() {
            // (root, root) splits the target side, so the eight tasks
            // (child, root) are the whole traversal.
            let mut tallies = [Tally::default(); 8];
            let first = root.first_child;
            tallies.par_chunks_mut(1).enumerate().for_each(|(o, one)| {
                one[0] = Tally::of(nodes, mac, first + o as NodeId, Octree::ROOT);
            });
            tallies.into_iter().fold(Tally::default(), Tally::plus)
        } else {
            Tally::of(nodes, mac, Octree::ROOT, Octree::ROOT)
        };
        counts.m2l_ops = tally.m2l;
        counts.p2p_interactions = tally.p2p;
        counts.gpu_block_steps = tally.gpu;
        (counts, tally.entries)
    }
}
