//! Re-binning moved bodies into the unchanged tree, leaf by leaf.
//!
//! The visible leaves of an octree tile the Morton key space in depth-first
//! order: a leaf at level `l` owns the keys that carry its `3·l`-bit prefix.
//! So the tree order by (code, id) is each leaf's bodies sorted by
//! (code, id), leaf after leaf. A rebin keeps that order without one sort
//! of all bodies: it sorts each leaf's stayers on their own and the few
//! bodies that left their leaf together, then merges each leaf's stayers
//! with its arrivals.

use crate::build::{merge_sorted, run_count, Encoder, MAX_RUNS, ROW};
use crate::node::{Node, NodeId, Octree};
use geom::{Vec3, MAX_MORTON_LEVEL};
use rayon::prelude::*;

/// One FMM leaf during a rebin.
#[derive(Clone, Copy, Debug, Default)]
struct LeafSlot {
    id: NodeId,
    /// The Morton keys of the leaf's cell: `lo..hi`.
    lo: u64,
    hi: u64,
    /// Its range of `order` before the rebin.
    old_begin: u32,
    old_end: u32,
    /// Where its stayers sit in the pair buffer, sorted, and how many.
    stay_at: u32,
    stay: u32,
}

/// Reusable buffers for [`Octree::rebin`], carried by the tree so the
/// steady-state maintenance step performs zero heap allocations once warm
/// (on one worker; more workers add only their forks' bookkeeping). Pure
/// scratch: contents are meaningless between calls, snapshots exclude it,
/// and [`Octree::check_invariants`] never looks at it.
#[derive(Clone, Debug, Default)]
pub(crate) struct RebinScratch {
    /// `(morton code, body id)` buffer, one entry per body: the build's sort
    /// runs, a rebin's sorted stayers and leavers.
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

    /// Fill `leaves` with the visible leaves, their key ranges and old
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
            let hi = lo + (1u64 << (3 * (MAX_MORTON_LEVEL - u32::from(node.level))));
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

/// Sort `pairs`, which are nearly sorted: a leaf's stayers arrive in their
/// old code order and most keep it, so an insertion sort moves few of
/// them. Once the shifts pass [`SHIFTS_PER_PAIR`] per pair the input is
/// not nearly sorted, and `sort_unstable` finishes it. Keys `(code, id)`
/// are unique, so either way the result is the one sorted order.
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
    /// Walk each leaf's old slice of `order`, encoding each body's new code
    /// from its position: a body whose code is still in the leaf's key
    /// range stays and goes to the front of the window, every other body
    /// leaves to the back. Then sort each leaf's stayers and, as one run,
    /// the window's leavers.
    ///
    /// Positions are gathered [`ROW`] at a time and encoded as one row.
    /// Tree order visits bodies in no order of their ids, so each fetch
    /// likely misses the cache; issued back to back, independent of any
    /// arithmetic, the misses overlap. The row is as long as the gather, so
    /// a leaf's short last batch encodes only its own bodies.
    fn run(&mut self, order: &[u32], pos: &[Vec3], encoder: Encoder) {
        let (mut front, mut back) = (0, self.pairs.len());
        let mut near = [Vec3::ZERO; ROW];
        let mut codes = [0; ROW];
        for slot in self.leaves.iter_mut() {
            let start = front;
            for ids in order[slot.old_begin as usize..slot.old_end as usize].chunks(ROW) {
                for (p, &id) in near.iter_mut().zip(ids) {
                    *p = pos[id as usize];
                }
                let codes = &mut codes[..ids.len()];
                encoder.codes(&near[..ids.len()], codes);
                for (&code, &id) in codes.iter().zip(ids) {
                    if (slot.lo..slot.hi).contains(&code) {
                        self.pairs[front] = (code, id);
                        front += 1;
                    } else {
                        back -= 1;
                        self.pairs[back] = (code, id);
                    }
                }
            }
            sort_nearly_sorted(&mut self.pairs[start..front]);
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
    /// Merge each leaf's sorted stayers with its sorted arrivals from every
    /// leaver run into the leaf's new range.
    fn run(&mut self, pairs: &[(u64, u32)], runs: usize) {
        let mut at = 0;
        let rows = self.cuts.windows(2 * runs).step_by(runs);
        for (slot, rows) in self.leaves.iter().zip(rows) {
            let stay = slot.stay_at as usize..(slot.stay_at + slot.stay) as usize;
            let mut sources: [&[(u64, u32)]; MAX_RUNS + 1] = Default::default();
            let mut len = stay.len();
            sources[0] = &pairs[stay];
            for (source, (&from, &to)) in
                sources[1..].iter_mut().zip(rows.iter().zip(&rows[runs..]))
            {
                *source = &pairs[from as usize..to as usize];
                len += source.len();
            }
            let out = at..at + len;
            merge_sorted(
                &mut sources[..=runs],
                &mut self.order[out.clone()],
                &mut self.codes[out],
            );
            at += len;
        }
    }
}

impl Octree {
    /// Re-sort moved bodies into the **unchanged** tree structure: Morton
    /// codes are recomputed against the fixed root cube (clamping bodies
    /// that drifted outside), the tree ordering is restored, and every
    /// visible node's range is re-derived. Collapsed subtrees keep stale
    /// ranges; [`Octree::push_down`] re-partitions on reclaim.
    ///
    /// This is the maintenance step the paper's strategies 1–3 all perform
    /// after each position update; only strategies 2–3 additionally modify
    /// the structure.
    ///
    /// The sorting is in proportion to what moved. Four passes:
    ///
    /// 1. walk each visible leaf's old slice of `order`, encoding each
    ///    body's new code: a body whose code still carries the leaf's prefix
    ///    stays, any other leaves; sort each leaf's stayers — nearly sorted
    ///    already, so mostly by insertion — and the leavers as one run per
    ///    worker;
    /// 2. walk the leaves against the leaver runs — sorted, so already in
    ///    leaf order — to count each leaf's arrivals; its new start is a
    ///    prefix sum of the new populations;
    /// 3. merge each leaf's stayers with its arrivals into its new range of
    ///    `order`/`codes`;
    /// 4. take each visible internal node's range from its children.
    ///
    /// The result is the order a sort of all (code, id) pairs gives, and
    /// every range the same. Passes 1 and 3 go through workers, one window
    /// of consecutive leaves each, cut where the old ranges pass each
    /// worker's share of the bodies; the walks are serial and
    /// O(leaves + leavers). On one worker it performs **zero
    /// heap allocations** once warm: the pair buffer (seeded at build time)
    /// and the per-leaf tables are reusable scratch carried by the tree, and
    /// `order`/`codes` are rewritten in place — their length never changes.
    /// The `memory_profile` perf-lab scenario gates this invariant through
    /// the `"rebin"` allocation scope; with more workers the scope holds the
    /// forks' bookkeeping and nothing that grows with the body count.
    pub fn rebin(&mut self, pos: &[Vec3]) {
        let n = self.num_bodies();
        assert_eq!(pos.len(), n);
        let _mem = telemetry::AllocScope::enter("rebin");
        let encoder = Encoder::new(self.root_center, self.root_half_width);
        let Octree {
            nodes,
            order,
            codes,
            scratch,
            ..
        } = self;
        let runs = run_count(n);

        // 1. Stayers and leavers, one window of consecutive leaves per
        //    worker.
        scratch.walk(nodes, n);
        let RebinScratch {
            pairs,
            leaves,
            cuts,
            internal,
            ..
        } = scratch;
        pairs.resize(n, (0, 0));
        let (mut leaf_ends, mut body_ends) = ([0; MAX_RUNS], [0; MAX_RUNS]);
        for g in 0..runs {
            let share = (g + 1) * n / runs;
            leaf_ends[g] = match g + 1 == runs {
                true => leaves.len(),
                false => leaves.partition_point(|s| (s.old_begin as usize) < share),
            };
            body_ends[g] = leaves.get(leaf_ends[g]).map_or(n, |s| s.old_begin as usize);
        }
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
        let old_order = &**order;
        sifts[..runs]
            .par_chunks_mut(1)
            .for_each(|sift| sift[0].run(old_order, pos, encoder));
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

        // 3. Stayers and arrivals merged into each leaf's new range, one
        //    window of the same consecutive leaves per worker.
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
            .for_each(|place| place[0].run(pairs, runs));

        // 4. Internal ranges from the children, deepest first.
        for &id in internal.iter().rev() {
            let first = nodes[id as usize].first_child as usize;
            let (begin, end) = (nodes[first].begin, nodes[first + 7].end);
            let node = &mut nodes[id as usize];
            (node.begin, node.end) = (begin, end);
        }
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
                let mut got = input;
                sort_nearly_sorted(&mut got);
                assert_eq!(got, want, "{name}, n {n}");
            }
        }
    }
}
