//! Re-binning moved bodies into the unchanged tree, leaf by leaf.
//!
//! The visible leaves of an octree tile the Morton key space in depth-first
//! order: a leaf at level `l` owns the keys that carry its `3·l`-bit prefix.
//! So grouping the bodies leaf after leaf needs no sort of all bodies: a
//! regroup sorts only the few bodies that left their leaf, to count where
//! they land, and copies each leaf's stayers and arrivals into its new
//! range. The tree order by (code, id) is then each leaf's slice sorted on
//! its own, which [`Octree::sort_leaves`] does when something reads it —
//! or the regroup itself, for [`Octree::rebin`], by sorting each leaf's
//! stayers and merging them with its arrivals.

use crate::build::{merge_sorted, run_count, Encoder, MAX_RUNS};
use crate::node::{Node, NodeId, Octree};
use geom::{Vec3, MAX_MORTON_LEVEL};
use rayon::prelude::*;

/// How many Morton keys a cell at `level` owns.
pub(crate) fn key_span(level: u16) -> u64 {
    1u64 << (3 * (MAX_MORTON_LEVEL - u32::from(level)))
}

/// One FMM leaf during a regroup or a leaf sort.
#[derive(Clone, Copy, Debug, Default)]
struct LeafSlot {
    id: NodeId,
    /// The Morton keys of the leaf's cell: `lo..hi`.
    lo: u64,
    hi: u64,
    /// Its range of `order` when walked: before a regroup, or the one a
    /// leaf sort sorts.
    old_begin: u32,
    old_end: u32,
    /// Where its stayers sit in the pair buffer, and how many.
    stay_at: u32,
    stay: u32,
}

/// Reusable buffers for [`Octree::regroup`] and [`Octree::sort_leaves`],
/// carried by the tree so the steady-state maintenance step performs zero
/// heap allocations once warm (on one worker; more workers add only their
/// forks' bookkeeping). Pure scratch: contents are meaningless between
/// calls, snapshots exclude it, and [`Octree::check_invariants`] never
/// looks at it.
#[derive(Clone, Debug, Default)]
pub(crate) struct RebinScratch {
    /// `(morton code, body id)` buffer, one entry per body: the build's sort
    /// runs, a regroup's stayers and sorted leavers, a leaf sort's keys.
    pairs: Vec<(u64, u32)>,
    /// DFS stack of the leaf walk.
    stack: Vec<NodeId>,
    /// Visible internal nodes in DFS pre-order.
    internal: Vec<NodeId>,
    /// Visible leaves in DFS — ascending key — order.
    leaves: Vec<LeafSlot>,
    /// `cuts[l · runs + r]`: where in `pairs` the arrivals of the `l`-th
    /// leaf from leaver run `r` start — each leaver run's start, then the
    /// end of each leaf's arrivals.
    cuts: Vec<u32>,
}

impl RebinScratch {
    /// Scratch seeded with the build's pair buffer.
    pub(crate) fn with_pairs(pairs: Vec<(u64, u32)>) -> Self {
        RebinScratch {
            pairs,
            ..Default::default()
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.pairs.capacity() * size_of::<(u64, u32)>()
            + (self.stack.capacity() + self.internal.capacity()) * size_of::<NodeId>()
            + self.leaves.capacity() * size_of::<LeafSlot>()
            + self.cuts.capacity() * size_of::<u32>()
    }

    /// Fill `leaves` with the visible leaves, their key ranges and current
    /// ranges, and `internal` with the visible internal nodes.
    fn walk(&mut self, nodes: &[Node], bodies: usize) {
        let RebinScratch {
            stack,
            internal,
            leaves,
            ..
        } = self;
        for list in [&mut *stack, &mut *internal] {
            list.clear();
            list.reserve(nodes.len());
        }
        leaves.clear();
        leaves.reserve(nodes.len());
        stack.push(Octree::ROOT);
        let (mut lo, mut old) = (0u64, 0u32);
        while let Some(id) = stack.pop() {
            let node = &nodes[id as usize];
            if !node.is_leaf() {
                internal.push(id);
                stack.extend((0..8).rev().map(|o| node.first_child + o));
                continue;
            }
            assert_eq!(
                node.begin, old,
                "visible leaf {id} leaves a gap in tree order"
            );
            let hi = lo + key_span(node.level);
            leaves.push(LeafSlot {
                id,
                lo,
                hi,
                old_begin: node.begin,
                old_end: node.end,
                ..Default::default()
            });
            (lo, old) = (hi, node.end);
        }
        assert_eq!(
            old as usize, bodies,
            "visible leaves do not cover every body"
        );
    }
}

/// Cut the walked `leaves` into `runs` windows of consecutive leaves, where
/// their ranges pass each worker's share of the `n` bodies: where each
/// window's leaves end, and where its bodies do.
fn shares(leaves: &[LeafSlot], n: usize, runs: usize) -> ([usize; MAX_RUNS], [usize; MAX_RUNS]) {
    let (mut leaf_ends, mut body_ends) = ([0; MAX_RUNS], [0; MAX_RUNS]);
    for g in 0..runs {
        let share = (g + 1) * n / runs;
        leaf_ends[g] = match g + 1 == runs {
            true => leaves.len(),
            false => leaves.partition_point(|s| (s.old_begin as usize) < share),
        };
        body_ends[g] = leaves.get(leaf_ends[g]).map_or(n, |s| s.old_begin as usize);
    }
    (leaf_ends, body_ends)
}

/// Split `slice` into consecutive windows ending at `ends` (offsets into
/// `slice`, ascending); windows past `ends.len()` stay empty.
fn windows<'a, T>(mut slice: &'a mut [T], ends: &[usize]) -> [&'a mut [T]; MAX_RUNS] {
    let mut out: [&mut [T]; MAX_RUNS] = Default::default();
    let mut at = 0;
    for (window, &end) in out.iter_mut().zip(ends) {
        let (head, tail) = std::mem::take(&mut slice).split_at_mut(end - at);
        (*window, slice, at) = (head, tail, end);
    }
    out
}

/// How many of the ascending `pairs` have a code below `key`. A gallop from
/// the front: the cost grows with the answer, not with `pairs`, so the walk
/// over all leaves stays in proportion to the leavers.
fn count_below(pairs: &[(u64, u32)], key: u64) -> usize {
    let mut bound = 1;
    while bound <= pairs.len() && pairs[bound - 1].0 < key {
        bound *= 2;
    }
    let below = bound / 2;
    below + pairs[below..bound.min(pairs.len())].partition_point(|p| p.0 < key)
}

/// Shifts per pair an insertion sort may spend before
/// [`sort_nearly_sorted`] hands the rest to `sort_unstable`.
const SHIFTS_PER_PAIR: usize = 8;

/// Sort `pairs`, which are nearly sorted: after one regroup of a sorted
/// tree a leaf's stayers keep their old order, most of them in code order
/// still, and its arrivals are few, so an insertion sort moves few of them.
/// Once the shifts pass [`SHIFTS_PER_PAIR`] per pair the input is not
/// nearly sorted (several regroups without a sort leave it so), and
/// `sort_unstable` finishes it. Keys `(code, id)` are unique, so either way
/// the result is the one sorted order.
fn sort_nearly_sorted(pairs: &mut [(u64, u32)]) {
    let mut budget = SHIFTS_PER_PAIR * pairs.len();
    for i in 1..pairs.len() {
        let key = pairs[i];
        let mut at = i;
        while at > 0 && key < pairs[at - 1] {
            pairs[at] = pairs[at - 1];
            at -= 1;
        }
        pairs[at] = key;
        match budget.checked_sub(i - at) {
            Some(left) => budget = left,
            None => return pairs.sort_unstable(),
        }
    }
}

/// Sort one leaf's slice of `order`/`codes` by (code, id), through `keys`,
/// a buffer as long as the slice. A slice already in order is only read.
pub(crate) fn sort_leaf(order: &mut [u32], codes: &mut [u64], keys: &mut [(u64, u32)]) {
    let key = |i: usize| (codes[i], order[i]);
    if (1..order.len()).all(|i| key(i - 1) < key(i)) {
        return;
    }
    for (i, k) in keys.iter_mut().enumerate() {
        *k = key(i);
    }
    sort_nearly_sorted(keys);
    for ((code, body), &(c, id)) in codes.iter_mut().zip(order.iter_mut()).zip(&*keys) {
        (*code, *body) = (c, id);
    }
}

/// One worker's share of the sift: a run of leaves and the window of the
/// pair buffer their old ranges cover.
#[derive(Default)]
struct Sift<'a> {
    leaves: &'a mut [LeafSlot],
    pairs: &'a mut [(u64, u32)],
    /// Where `pairs` starts in the whole buffer.
    first: usize,
    /// Out: where its sorted leavers start in the whole buffer.
    leavers: usize,
}

impl Sift<'_> {
    /// Walk each leaf's old slice of `order`, reading each body's new code
    /// from `by_id` (indexed by body id): a body whose code is still in the
    /// leaf's key range stays and goes to the front of the window, in the
    /// order it had, every other body leaves to the back. When sorting,
    /// sort each leaf's stayers. Then sort the window's leavers as one run.
    fn run(&mut self, order: &[u32], by_id: &[u64], sort: bool) {
        let (mut front, mut back) = (0, self.pairs.len());
        for slot in self.leaves.iter_mut() {
            let start = front;
            for &id in &order[slot.old_begin as usize..slot.old_end as usize] {
                let code = by_id[id as usize];
                if (slot.lo..slot.hi).contains(&code) {
                    self.pairs[front] = (code, id);
                    front += 1;
                } else {
                    back -= 1;
                    self.pairs[back] = (code, id);
                }
            }
            if sort {
                sort_nearly_sorted(&mut self.pairs[start..front]);
            }
            slot.stay_at = (self.first + start) as u32;
            slot.stay = (front - start) as u32;
        }
        self.pairs[back..].sort_unstable();
        self.leavers = self.first + back;
    }
}

/// One worker's share of the placement: a run of leaves, the rows of arrival
/// cuts around them, and the window of `order`/`codes` their new ranges
/// cover.
#[derive(Default)]
struct Place<'a> {
    leaves: &'a [LeafSlot],
    /// One more row than leaves: the arrivals of the `l`-th leaf from run
    /// `r` are `pairs[cuts[l][r]..cuts[l + 1][r]]`.
    cuts: &'a [u32],
    order: &'a mut [u32],
    codes: &'a mut [u64],
}

impl Place<'_> {
    /// Copy each leaf's stayers, then its arrivals from every leaver run in
    /// turn, into the leaf's new range — or, when sorting, merge the sorted
    /// stayers with the sorted arrivals there.
    fn run(&mut self, pairs: &[(u64, u32)], runs: usize, sort: bool) {
        let mut at = 0;
        let rows = self.cuts.windows(2 * runs).step_by(runs);
        for (slot, rows) in self.leaves.iter().zip(rows) {
            let stay = slot.stay_at as usize..(slot.stay_at + slot.stay) as usize;
            let mut sources: [&[(u64, u32)]; MAX_RUNS + 1] = Default::default();
            sources[0] = &pairs[stay];
            for (r, source) in sources[1..=runs].iter_mut().enumerate() {
                *source = &pairs[rows[r] as usize..rows[runs + r] as usize];
            }
            let len = sources.iter().map(|s| s.len()).sum::<usize>();
            let (order, codes) = (&mut self.order[at..at + len], &mut self.codes[at..at + len]);
            if sort {
                merge_sorted(&mut sources[..=runs], order, codes);
            } else {
                let out = order.iter_mut().zip(codes.iter_mut());
                for ((body, code), &(c, id)) in out.zip(sources.iter().copied().flatten()) {
                    (*code, *body) = (c, id);
                }
            }
            at += len;
        }
    }
}

/// One worker's share of a leaf sort: a run of leaves, and the window of
/// `order`/`codes` and of the pair buffer their ranges cover.
#[derive(Default)]
struct LeafSort<'a> {
    leaves: &'a [LeafSlot],
    /// Where the windows start in the whole buffers.
    first: usize,
    order: &'a mut [u32],
    codes: &'a mut [u64],
    keys: &'a mut [(u64, u32)],
}

impl LeafSort<'_> {
    fn run(&mut self) {
        for slot in self.leaves {
            let r = slot.old_begin as usize - self.first..slot.old_end as usize - self.first;
            sort_leaf(
                &mut self.order[r.clone()],
                &mut self.codes[r.clone()],
                &mut self.keys[r],
            );
        }
    }
}

impl Octree {
    /// Regroup moved bodies into the **unchanged** tree structure: Morton
    /// codes are recomputed against the fixed root cube (clamping bodies
    /// that drifted outside), each visible leaf's range of `order`/`codes`
    /// comes to hold exactly the bodies whose codes carry its prefix, and
    /// every visible node's range is re-derived. Within a leaf the bodies
    /// are in no particular order until [`Octree::sort_leaves`]; leaf
    /// membership, node ranges and populations are those a full sort
    /// gives. Collapsed subtrees keep stale ranges; [`Octree::push_down`]
    /// re-partitions on reclaim.
    ///
    /// The work is in proportion to what moved. Four passes:
    ///
    /// 1. encode every body's new code in body-id order into `codes` (which
    ///    pass 3 overwrites in tree order), then walk each visible leaf's old
    ///    slice of `order`, reading each body's code: a body whose code
    ///    still carries the leaf's prefix stays, any other leaves; the
    ///    leavers are sorted as one run per worker;
    /// 2. walk the leaves against the leaver runs — sorted, so already in
    ///    leaf order — to count each leaf's arrivals; its new start is a
    ///    prefix sum of the new populations;
    /// 3. copy each leaf's stayers, then its arrivals run by run, into its
    ///    new range of `order`/`codes`;
    /// 4. take each visible internal node's range from its children.
    ///
    /// The sift (pass 1) and the placement (pass 3) go through workers, one
    /// window of consecutive leaves each, cut where the old ranges pass
    /// each worker's share of the bodies; the walks are serial and
    /// O(leaves + leavers). On one worker it performs **zero heap
    /// allocations** once warm: the pair buffer (seeded at build time) and
    /// the per-leaf tables are reusable scratch carried by the tree, and
    /// `order`/`codes` are rewritten in place — their length never changes.
    /// The `memory_profile` perf-lab scenario gates this invariant through
    /// the `"rebin"` allocation scope; with more workers the scope holds the
    /// forks' bookkeeping and nothing that grows with the body count.
    pub fn regroup(&mut self, pos: &[Vec3]) {
        self.regroup_with(pos, false);
    }

    /// [`Octree::regroup`], and with `sort` the leaf sort folded into its
    /// passes: the sift sorts each leaf's stayers and the placement merges
    /// them with the leaf's sorted arrivals.
    fn regroup_with(&mut self, pos: &[Vec3], sort: bool) {
        let n = self.num_bodies();
        assert_eq!(pos.len(), n);
        let _mem = telemetry::AllocScope::enter("rebin");
        let encoder = Encoder::new(self.root_center, self.root_half_width);
        let Octree {
            nodes,
            order,
            codes,
            scratch,
            leaves_sorted,
            ..
        } = self;
        *leaves_sorted = sort;
        let runs = run_count(n);

        // 1. Every body's code in id order: a stream of positions, in two
        //    halves side by side from two runs up — one join, not a third
        //    fork, whose bookkeeping would take `rebin` past the 4 KB
        //    `tests/memprof.rs` allows its forks. Then stayers and leavers,
        //    one window of consecutive leaves per worker.
        if runs > 1 {
            let (pos_a, pos_b) = pos.split_at(n / 2);
            let (codes_a, codes_b) = codes.split_at_mut(n / 2);
            rayon::join(
                || encoder.codes(pos_a, codes_a),
                || encoder.codes(pos_b, codes_b),
            );
        } else {
            encoder.codes(pos, codes);
        }
        scratch.walk(nodes, n);
        let RebinScratch {
            pairs,
            leaves,
            cuts,
            internal,
            ..
        } = scratch;
        pairs.resize(n, (0, 0));
        let (leaf_ends, body_ends) = shares(leaves, n, runs);
        let mut sifts: [Sift; MAX_RUNS] = Default::default();
        let leaf_windows = windows(&mut leaves[..], &leaf_ends[..runs]);
        let pair_windows = windows(&mut pairs[..], &body_ends[..runs]);
        let parts = sifts.iter_mut().zip(leaf_windows).zip(pair_windows);
        for (g, ((sift, leaves), pairs)) in parts.take(runs).enumerate() {
            let first = if g == 0 { 0 } else { body_ends[g - 1] };
            *sift = Sift {
                leaves,
                pairs,
                first,
                leavers: 0,
            };
        }
        let (old_order, by_id) = (&**order, &**codes);
        sifts[..runs]
            .par_chunks_mut(1)
            .for_each(|sift| sift[0].run(old_order, by_id, sort));
        let mut cursor = [0; MAX_RUNS];
        for (at, sift) in cursor.iter_mut().zip(&sifts[..runs]) {
            *at = sift.leavers;
        }

        // 2. Arrivals per leaf, and the leaves' new ranges.
        cuts.clear();
        cuts.extend(cursor[..runs].iter().map(|&at| at as u32));
        let mut next = 0;
        for slot in leaves.iter() {
            let mut count = slot.stay as usize;
            for (r, at) in cursor[..runs].iter_mut().enumerate() {
                let start = *at;
                *at += count_below(&pairs[start..body_ends[r]], slot.hi);
                count += *at - start;
                cuts.push(*at as u32);
            }
            let node = &mut nodes[slot.id as usize];
            (node.begin, node.end) = (next, next + count as u32);
            next = node.end;
        }
        debug_assert_eq!(next as usize, n);

        // 3. Stayers and arrivals copied, or merged, into each leaf's new
        //    range, one window of the same consecutive leaves per worker.
        let mut out_ends = [0; MAX_RUNS];
        for (end, &leaf_end) in out_ends.iter_mut().zip(&leaf_ends[..runs]) {
            *end = leaf_end
                .checked_sub(1)
                .map_or(0, |l| nodes[leaves[l].id as usize].end as usize);
        }
        let mut places: [Place; MAX_RUNS] = Default::default();
        let order_windows = windows(&mut order[..], &out_ends[..runs]);
        let code_windows = windows(&mut codes[..], &out_ends[..runs]);
        let parts = places.iter_mut().zip(order_windows).zip(code_windows);
        let mut first = 0;
        for (g, ((place, order), codes)) in parts.take(runs).enumerate() {
            *place = Place {
                leaves: &leaves[first..leaf_ends[g]],
                cuts: &cuts[first * runs..(leaf_ends[g] + 1) * runs],
                order,
                codes,
            };
            first = leaf_ends[g];
        }
        let pairs = &**pairs;
        places[..runs]
            .par_chunks_mut(1)
            .for_each(|place| place[0].run(pairs, runs, sort));

        // 4. Internal ranges from the children, deepest first.
        for &id in internal.iter().rev() {
            let first = nodes[id as usize].first_child as usize;
            let (begin, end) = (nodes[first].begin, nodes[first + 7].end);
            let node = &mut nodes[id as usize];
            (node.begin, node.end) = (begin, end);
        }
    }

    /// Sort each visible leaf's slice of `order`/`codes` by (code, id), so
    /// the tree order is ascending (code, id) again: the order a full sort
    /// gives. Idempotent — a tree whose leaves are sorted returns at once.
    /// A leaf already in order is only read. The leaves go through workers,
    /// one window of consecutive leaves each, using the pair buffer of
    /// [`Octree::regroup`]; like it, it runs in the `"rebin"` allocation
    /// scope and allocates nothing on one worker once warm.
    pub fn sort_leaves(&mut self) {
        if self.leaves_sorted {
            return;
        }
        let n = self.num_bodies();
        let _mem = telemetry::AllocScope::enter("rebin");
        let Octree {
            nodes,
            order,
            codes,
            scratch,
            leaves_sorted,
            ..
        } = self;
        let runs = run_count(n);
        scratch.walk(nodes, n);
        let RebinScratch { pairs, leaves, .. } = scratch;
        pairs.resize(n, (0, 0));
        let (leaf_ends, body_ends) = shares(leaves, n, runs);
        let mut sorts: [LeafSort; MAX_RUNS] = Default::default();
        let order_windows = windows(&mut order[..], &body_ends[..runs]);
        let code_windows = windows(&mut codes[..], &body_ends[..runs]);
        let key_windows = windows(&mut pairs[..], &body_ends[..runs]);
        let parts = sorts.iter_mut().zip(order_windows).zip(code_windows);
        let (mut first, mut first_leaf) = (0, 0);
        for (g, (((sort, order), codes), keys)) in parts.zip(key_windows).take(runs).enumerate() {
            *sort = LeafSort {
                leaves: &leaves[first_leaf..leaf_ends[g]],
                first,
                order,
                codes,
                keys,
            };
            (first, first_leaf) = (body_ends[g], leaf_ends[g]);
        }
        sorts[..runs]
            .par_chunks_mut(1)
            .for_each(|sort| sort[0].run());
        *leaves_sorted = true;
    }

    /// Re-sort moved bodies into the **unchanged** tree structure: what
    /// [`Octree::regroup`] then [`Octree::sort_leaves`] give — the order a
    /// sort of all (code, id) pairs gives, and every range the same — with
    /// the sort folded into the regroup's own passes: each leaf's stayers
    /// are sorted in the sift (by insertion while they stay nearly sorted)
    /// and merged with its sorted arrivals in the placement. So the sort
    /// reads each leaf while the regroup has it in hand, and adds no fork.
    ///
    /// This is the maintenance step the paper's strategies 1–3 all perform
    /// after each position update; only strategies 2–3 additionally modify
    /// the structure.
    pub fn rebin(&mut self, pos: &[Vec3]) {
        self.regroup_with(pos, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn shuffle(pairs: &mut [(u64, u32)], rng: &mut StdRng) {
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.random_range(0..i + 1));
        }
    }

    /// Pairs out of order: the shifts an insertion sort of `pairs` makes.
    fn inversions(pairs: &[(u64, u32)]) -> usize {
        let later = |i: usize| pairs[i + 1..].iter().filter(|&&q| q < pairs[i]).count();
        (0..pairs.len()).map(later).sum()
    }

    /// The audit of a regrouped tree reads each leaf's membership: a body
    /// moved into its neighbouring leaf's slice — the two leaves' shared
    /// boundary shifted by one, so the ranges still tile — must fail it,
    /// though the order is still a permutation and no leaf is sorted.
    #[test]
    fn a_body_in_its_neighbours_slice_fails_the_unsorted_audit() {
        let pos = crate::random_points(3000, 82);
        let mut tree = crate::build_adaptive(&pos, crate::BuildParams::with_s(24));
        let moved: Vec<Vec3> = pos.iter().map(|&p| p * 0.97).collect();
        tree.regroup(&moved);
        assert!(!tree.leaves_sorted());
        tree.check_invariants().expect("a regrouped tree");
        // Two sibling leaves side by side, the first holding a body.
        let (a, b) = (tree.visible_leaves().windows(2))
            .map(|w| (w[0], w[1]))
            .find(|&(a, b)| {
                let (na, nb) = (tree.node(a), tree.node(b));
                na.parent == nb.parent && na.count() > 0
            })
            .expect("two sibling leaves");
        let mut rotten = tree.clone();
        rotten.nodes[a as usize].end -= 1;
        rotten.nodes[b as usize].begin -= 1;
        let err = rotten.check_invariants().unwrap_err();
        assert!(err.contains("outside the keys"), "{err}");
    }

    /// Reversed, shuffled, nearly sorted and equal-code inputs sort as
    /// `sort_unstable` sorts them, whether the shifts stay within the
    /// budget or run past it.
    #[test]
    fn nearly_sorted_sort_gives_the_one_sorted_order() {
        let mut rng = StdRng::seed_from_u64(81);
        for n in [0, 1, 2, 3, 17, 64, 181, 1000] {
            let budget = SHIFTS_PER_PAIR * n;
            let mut sorted: Vec<(u64, u32)> = (0..n as u32)
                .map(|id| (rng.random_range(0..n as u64 / 2 + 1), id))
                .collect();
            sorted.sort_unstable();
            let reversed: Vec<_> = sorted.iter().rev().copied().collect();
            let mut shuffled = sorted.clone();
            shuffle(&mut shuffled, &mut rng);
            let mut nearly = sorted.clone();
            for _ in 0..n / 8 {
                let i = rng.random_range(0..n);
                let j = (i + rng.random_range(0..4usize)).min(n - 1);
                nearly.swap(i, j);
            }
            let mut equal: Vec<(u64, u32)> = (0..n as u32).map(|id| (7, id)).collect();
            shuffle(&mut equal, &mut rng);
            assert!(
                inversions(&nearly) <= budget,
                "n {n}: nearly sorted in budget"
            );
            if n >= 64 {
                for over in [&reversed, &shuffled, &equal] {
                    assert!(inversions(over) > budget, "n {n}: past the budget");
                }
            }
            for (name, input) in [
                ("sorted", sorted.clone()),
                ("reversed", reversed),
                ("shuffled", shuffled),
                ("nearly sorted", nearly),
                ("equal codes", equal),
            ] {
                let mut want = input.clone();
                want.sort_unstable();
                let mut codes: Vec<u64> = input.iter().map(|k| k.0).collect();
                let mut order: Vec<u32> = input.iter().map(|k| k.1).collect();
                sort_leaf(&mut order, &mut codes, &mut vec![(0, 0); n]);
                let got: Vec<(u64, u32)> = codes.into_iter().zip(order).collect();
                assert_eq!(got, want, "{name}, n {n}");
            }
        }
    }
}
