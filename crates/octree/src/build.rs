use crate::node::{Node, NodeId, Octree, NONE};
use crate::rebin::RebinScratch;
use geom::{morton_encode, Aabb, Vec3, MAX_MORTON_LEVEL};
use rayon::prelude::*;

/// Construction parameters for [`build_adaptive`] / [`build_uniform`].
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Leaf capacity S: a node holding more than S bodies is subdivided.
    pub s: usize,
    /// Deepest allowed level (root = 0). Clamped to the Morton limit (21).
    pub max_level: u16,
    /// Relative padding of the root cube so surface bodies stay interior.
    pub pad: f64,
}

impl BuildParams {
    pub fn with_s(s: usize) -> Self {
        BuildParams {
            s,
            ..Default::default()
        }
    }
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            s: 64,
            max_level: MAX_MORTON_LEVEL as u16,
            pad: 1e-6,
        }
    }
}

/// Morton digit (octant) of `code` at tree `level` (level 1 = coarsest
/// split, matching children of the root).
#[inline]
fn digit(code: u64, level: u16) -> u64 {
    (code >> (3 * (MAX_MORTON_LEVEL as u16 - level))) & 7
}

/// Shortest run worth its own worker. Two forks cost ≈ 60 µs, what sorting
/// four thousand pairs does; on two workers a sort breaks even near twelve
/// thousand bodies and is ahead from sixteen.
pub(crate) const MIN_RUN: usize = 8192;

/// Most runs a sort is cut into. Each merged body costs one look per run,
/// so a worker's share of the merge stops shrinking as runs are added while
/// its sort keeps shrinking; past eight the merge is most of the work.
pub(crate) const MAX_RUNS: usize = 8;

/// How many sorted runs `n` bodies are cut into: one per worker
/// ([`rayon::current_num_threads`]), fewer when a run would fall under
/// [`MIN_RUN`], at most [`MAX_RUNS`].
pub(crate) fn run_count(n: usize) -> usize {
    rayon::current_num_threads()
        .min(n / MIN_RUN)
        .clamp(1, MAX_RUNS)
}

/// Body ids are `u32` and [`NONE`] (`u32::MAX`) is a sentinel, so a tree
/// holds at most `u32::MAX − 1` bodies.
fn body_ids_fit(bodies: usize) -> bool {
    bodies < NONE as usize
}

/// Sorts after every real pair: Morton codes are 63 bits wide.
const SPENT: (u64, u32) = (u64::MAX, u32::MAX);

/// Bodies encoded as one row ([`Encoder::codes`]) by the build and the
/// rebin.
pub(crate) const ROW: usize = 64;

/// Clamped Morton codes of positions in a fixed root cube.
#[derive(Clone, Copy)]
pub(crate) struct Encoder {
    origin: Vec3,
    scale: f64,
}

impl Encoder {
    pub(crate) fn new(center: Vec3, half_width: f64) -> Self {
        let n_cells = (1u64 << MAX_MORTON_LEVEL) as f64;
        Encoder {
            origin: center - Vec3::splat(half_width),
            scale: n_cells / (2.0 * half_width),
        }
    }

    /// The code of each of `pos` into `codes`, of the same length. Bodies
    /// that drifted outside the fixed root cube clamp to the boundary
    /// cells, NaN to cell 0; rebuilds recenter the cube. The row runs four
    /// bodies per register where the CPU has AVX2 and two where it has not,
    /// with the same codes.
    pub(crate) fn codes(&self, pos: &[Vec3], codes: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if geom::avx2() {
            // SAFETY: a `#[target_feature]` function's one precondition is
            // that the CPU has the feature. `codes_avx2` is compiled for
            // AVX2 alone, and `avx2()` just read it from the running CPU.
            return unsafe { self.codes_avx2(pos, codes) };
        }
        self.codes_row(pos, codes)
    }

    /// [`Encoder::codes_row`] compiled for AVX2: it is
    /// `#[inline(always)]`, so its loop lands here in 256-bit registers.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn codes_avx2(&self, pos: &[Vec3], codes: &mut [u64]) {
        self.codes_row(pos, codes)
    }

    /// One loop the compiler vectorises. A float-to-integer `as` cast
    /// saturates and maps NaN to 0 one lane at a time, so the cell is cut
    /// without one: `max(0)` (NaN becomes 0) and `min(top cell)` bound `v`,
    /// adding 2⁵² rounds it to the nearest integer and leaves that integer
    /// in the low bits of the sum, and one is taken off when the rounding
    /// went up. That is `v`'s integer part, the cell a scalar
    /// `max(0) as u64 … min(top)` gives, NaN and ±∞ included.
    #[inline(always)]
    fn codes_row(&self, pos: &[Vec3], codes: &mut [u64]) {
        assert_eq!(pos.len(), codes.len());
        const ROUND: f64 = (1u64 << 52) as f64;
        let top = ((1u64 << MAX_MORTON_LEVEL) - 1) as f64;
        let cell = |v: f64| {
            let v = v.max(0.0).min(top);
            let sum = v + ROUND;
            sum.to_bits() - ROUND.to_bits() - u64::from(sum - ROUND > v)
        };
        for (code, &p) in codes.iter_mut().zip(pos) {
            let u = (p - self.origin) * self.scale;
            *code = morton_encode(cell(u.x), cell(u.y), cell(u.z));
        }
    }

    /// One body's code, a body at a time: the oracle the row is tested
    /// against.
    #[cfg(test)]
    pub(crate) fn code(&self, p: Vec3) -> u64 {
        let max_cell = (1u64 << MAX_MORTON_LEVEL) - 1;
        let cell = |v: f64| (v.max(0.0) as u64).min(max_cell);
        let u = (p - self.origin) * self.scale;
        morton_encode(cell(u.x), cell(u.y), cell(u.z))
    }
}

/// Tree order for `pos` inside a root cube: clamped Morton `(code, body)`
/// pairs sorted by (code, id) — deterministic under duplicate codes — and
/// split into `order` (ids) and `codes`.
///
/// The body range is cut into [`run_count`] contiguous runs. One fork
/// encodes and sorts each run in its window of `pairs`; a second merges the
/// runs straight into `order`/`codes`, one window of the output per worker
/// ([`cut_runs`] finds the stretch of each run that lands in a window). Keys
/// are unique, so the result is the one total order whatever the run count.
/// With one run nothing is forked and the merge is a copy.
fn sort_bodies_into(
    pos: &[Vec3],
    encoder: Encoder,
    pairs: &mut Vec<(u64, u32)>,
    order: &mut [u32],
    codes: &mut [u64],
) {
    let n = pos.len();
    assert!(
        body_ids_fit(n),
        "{n} bodies: body ids are u32 with u32::MAX reserved, so a tree holds at most {}",
        NONE - 1
    );
    let run_len = n.div_ceil(run_count(n)).max(1);
    pairs.resize(n, (0, 0));
    pairs
        .par_chunks_mut(run_len)
        .enumerate()
        .for_each(|(r, run)| {
            let first = r * run_len;
            let (mut codes, mut id) = ([0; ROW], first as u32);
            for (pairs, pos) in run.chunks_mut(ROW).zip(pos[first..].chunks(ROW)) {
                let codes = &mut codes[..pairs.len()];
                encoder.codes(&pos[..pairs.len()], codes);
                for (pair, &code) in pairs.iter_mut().zip(&*codes) {
                    *pair = (code, id);
                    id += 1;
                }
            }
            run.sort_unstable();
        });
    merge_runs_into(pairs, run_len, order, codes);
}

/// Merge the sorted runs `pairs.chunks(run_len)` by (code, id) into `order`
/// and `codes` — the split of pairs into the two arrays that a tree keeps, so
/// the merge needs no buffer of its own. The output is cut into as many
/// windows as there are runs and each is merged by whichever worker claims
/// it.
fn merge_runs_into(pairs: &[(u64, u32)], run_len: usize, order: &mut [u32], codes: &mut [u64]) {
    assert!(order.len() == pairs.len() && codes.len() == pairs.len());
    let runs = pairs.len().div_ceil(run_len);
    order
        .par_chunks_mut(run_len)
        .zip(codes.par_chunks_mut(run_len))
        .enumerate()
        .for_each(|(w, (order, codes))| {
            let from = cut_runs(pairs, run_len, w * run_len);
            let to = cut_runs(pairs, run_len, w * run_len + order.len());
            let mut stretches: [&[(u64, u32)]; MAX_RUNS] = Default::default();
            for r in 0..runs {
                stretches[r] = &pairs[from[r]..to[r]];
            }
            merge_sorted(&mut stretches[..runs], order, codes);
        });
}

/// Merge the sorted `runs` by (code, id) into `order` and `codes`, whose
/// length is the runs' total. Keys are unique, so which run an equal head
/// comes from never arises; runs are consumed in place.
pub(crate) fn merge_sorted(runs: &mut [&[(u64, u32)]], order: &mut [u32], codes: &mut [u64]) {
    let mut live = runs.len();
    let mut r = 0;
    while r < live {
        if runs[r].is_empty() {
            live -= 1;
            runs.swap(r, live);
        } else {
            r += 1;
        }
    }
    let mut out = order.iter_mut().zip(codes.iter_mut());
    while live > 1 {
        let mut min = 0;
        for r in 1..live {
            if runs[r][0] < runs[min][0] {
                min = r;
            }
        }
        let (body, code) = out.next().expect("output as long as the runs");
        (*code, *body) = runs[min][0];
        runs[min] = &runs[min][1..];
        if runs[min].is_empty() {
            live -= 1;
            runs.swap(min, live);
        }
    }
    if live == 1 {
        for ((body, code), &(c, id)) in out.zip(runs[0]) {
            (*code, *body) = (c, id);
        }
    }
}

/// Where to cut each sorted run `pairs.chunks(run_len)` so that the `k`
/// smallest pairs of all runs together are exactly those left of the cuts
/// (as indices into `pairs`; entries past the last run stay 0).
fn cut_runs(pairs: &[(u64, u32)], run_len: usize, k: usize) -> [usize; MAX_RUNS] {
    // How many pairs of each run sort before `key`.
    let before = |key: (u64, u32)| {
        pairs
            .chunks(run_len)
            .map(move |run| run.partition_point(|p| *p < key))
    };
    // The first pair right of the cuts is the smallest one with at least `k`
    // pairs before it; keys are unique, so it has exactly `k`. No pair has
    // `pairs.len()` before it: then every run is cut at its end.
    let pivot = pairs
        .chunks(run_len)
        .filter_map(|run| run.get(run.partition_point(|p| before(*p).sum::<usize>() < k)))
        .min();
    let mut cuts = [0; MAX_RUNS];
    for (r, below) in before(pivot.copied().unwrap_or(SPENT)).enumerate() {
        cuts[r] = r * run_len + below;
    }
    cuts
}

/// Find the eight child-range boundaries of `range` by binary search on the
/// sorted Morton codes. Returns `[b0..b8]` with `b0 = range.start`,
/// `b8 = range.end`.
fn octant_bounds(codes: &[u64], range: std::ops::Range<usize>, child_level: u16) -> [usize; 9] {
    let slice = &codes[range.clone()];
    let mut b = [range.start; 9];
    b[8] = range.end;
    for o in 1..8u64 {
        b[o as usize] = range.start + slice.partition_point(|&c| digit(c, child_level) < o);
    }
    b
}

/// Allocate the eight children of `id` (consecutive arena slots) with the
/// given range boundaries; returns the first child id.
fn alloc_children(nodes: &mut Vec<Node>, id: NodeId, bounds: &[usize; 9]) -> NodeId {
    let first = nodes.len() as NodeId;
    let parent = nodes[id as usize];
    for o in 0..8 {
        let q = parent.half_width * 0.5;
        let center = Vec3::new(
            parent.center.x + if o & 1 != 0 { q } else { -q },
            parent.center.y + if o & 2 != 0 { q } else { -q },
            parent.center.z + if o & 4 != 0 { q } else { -q },
        );
        nodes.push(Node {
            center,
            half_width: q,
            level: parent.level + 1,
            parent: id,
            first_child: NONE,
            begin: bounds[o] as u32,
            end: bounds[o + 1] as u32,
            collapsed: false,
        });
    }
    nodes[id as usize].first_child = first;
    first
}

/// Build an adaptive octree over `pos` with leaf capacity `params.s`.
/// The root cube is the smallest padded cube containing all bodies.
pub fn build_adaptive(pos: &[Vec3], params: BuildParams) -> Octree {
    let (center, hw) = Aabb::cube_containing(pos, params.pad);
    build_in_cube(pos, params, center, hw, SplitRule::Adaptive { s: params.s })
}

/// Build an adaptive octree inside a **fixed** root cube — the paper's
/// time-dependent experiments pin the simulation space so the decomposition
/// stays comparable across rebuilds while bodies expand and contract.
/// Bodies outside the cube clamp to its boundary cells.
pub fn build_adaptive_in_cube(
    pos: &[Vec3],
    params: BuildParams,
    center: Vec3,
    half_width: f64,
) -> Octree {
    assert!(half_width > 0.0);
    let rule = SplitRule::Adaptive { s: params.s };
    build_in_cube(pos, params, center, half_width, rule)
}

/// Build a *uniform* fixed-depth octree (the classic FMM decomposition the
/// paper contrasts against): every branch subdivides to exactly `depth`,
/// regardless of body counts.
pub fn build_uniform(pos: &[Vec3], depth: u16, pad: f64) -> Octree {
    let (center, hw) = Aabb::cube_containing(pos, pad);
    let params = BuildParams {
        s: 1,
        max_level: depth,
        pad,
    };
    build_in_cube(pos, params, center, hw, SplitRule::Uniform)
}

#[derive(Clone, Copy)]
pub(crate) enum SplitRule {
    /// Split while count > S (leaves at any level).
    Adaptive { s: usize },
    /// Split every node until `max_level` (complete tree).
    Uniform,
}

impl SplitRule {
    /// Whether node `n` splits, in a tree no deeper than `max_level`.
    fn splits(self, n: &Node, max_level: u16) -> bool {
        n.level < max_level
            && match self {
                SplitRule::Adaptive { s } => n.count() > s,
                SplitRule::Uniform => true,
            }
    }
}

/// The paper's "node buffer": the arena capacity a tree over `bodies` at
/// leaf capacity `s` reserves up front, a comfortable multiple of the
/// expected leaf count, so PushDown allocates nothing in steady state.
fn node_reservation(bodies: usize, s: usize) -> usize {
    let expected = bodies.checked_div(s).map_or(64, |l| (l + 1) * 4);
    expected.min(1 << 22)
}

/// Refill `nodes` with the tree `rule` cuts from the sorted `codes` inside
/// the root cube `(center, half_width)`, no deeper than `max_level`: a
/// depth-first subdivision from the root, eight consecutive children per
/// split, their ranges found by binary search on the codes. The one
/// encoding of the split rule — the build, the re-split
/// ([`Octree::resplit`]) and the pricer ([`Octree::price`]) all cut their
/// arenas here, so at the same codes and S they hold the same nodes in the
/// same slots. `nodes` keeps its capacity; `stack` is the walk's scratch.
pub(crate) fn subdivide(
    codes: &[u64],
    (center, half_width): (Vec3, f64),
    rule: SplitRule,
    max_level: u16,
    nodes: &mut Vec<Node>,
    stack: &mut Vec<NodeId>,
) {
    nodes.clear();
    nodes.push(Node {
        center,
        half_width,
        level: 0,
        parent: NONE,
        first_child: NONE,
        begin: 0,
        end: codes.len() as u32,
        collapsed: false,
    });
    stack.clear();
    stack.push(Octree::ROOT);
    while let Some(id) = stack.pop() {
        let n = nodes[id as usize];
        if !rule.splits(&n, max_level) {
            continue;
        }
        let bounds = octant_bounds(codes, n.range(), n.level + 1);
        let first = alloc_children(nodes, id, &bounds);
        stack.extend(first..first + 8);
    }
}

fn build_in_cube(
    pos: &[Vec3],
    params: BuildParams,
    center: Vec3,
    half_width: f64,
    rule: SplitRule,
) -> Octree {
    assert!(params.s >= 1, "leaf capacity S must be at least 1");
    let max_level = params.max_level.min(MAX_MORTON_LEVEL as u16);
    let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(pos.len());
    let mut order = vec![0u32; pos.len()];
    let mut codes = vec![0u64; pos.len()];
    let encoder = Encoder::new(center, half_width);
    sort_bodies_into(pos, encoder, &mut pairs, &mut order, &mut codes);

    let mut nodes = Vec::with_capacity(node_reservation(pos.len(), params.s));
    let cube = (center, half_width);
    subdivide(&codes, cube, rule, max_level, &mut nodes, &mut Vec::new());

    // The pair buffer becomes rebin scratch, already as long as a rebin
    // needs it.
    Octree {
        nodes,
        order,
        codes,
        leaves_sorted: true,
        s_value: params.s,
        root_center: center,
        root_half_width: half_width,
        max_level,
        scratch: RebinScratch::with_pairs(pairs),
    }
}

impl Octree {
    /// Rebuild the node arena at leaf capacity `s` from the sorted codes the
    /// tree already holds: the tree [`build_adaptive_in_cube`] gives in the
    /// tree's root cube, node for node, for the positions of the last build
    /// or [`Octree::rebin`], since both leave `(code, id)` ascending. No
    /// sort and no permutation: `order`, `codes` and the rebin scratch stay,
    /// and the arena takes a fresh build's capacity for `s`. Hidden
    /// subtrees go with the old arena. Panics unless the leaves are sorted
    /// ([`Octree::sort_leaves`]).
    pub fn resplit(&mut self, s: usize) {
        assert!(s >= 1, "leaf capacity S must be at least 1");
        self.assert_leaves_sorted("resplit");
        let reserve = node_reservation(self.num_bodies(), s);
        let nodes = &mut self.nodes;
        nodes.clear();
        nodes.shrink_to(reserve);
        nodes.reserve_exact(reserve);
        let cube = (self.root_center, self.root_half_width);
        let rule = SplitRule::Adaptive { s };
        subdivide(
            &self.codes,
            cube,
            rule,
            self.max_level,
            nodes,
            &mut Vec::new(),
        );
        self.s_value = s;
    }

    /// Partition the body range of `id` among its eight children by Morton
    /// code. Children must already be allocated.
    pub(crate) fn repartition_children(&mut self, id: NodeId) {
        let n = self.nodes[id as usize];
        debug_assert_ne!(n.first_child, NONE);
        let bounds = octant_bounds(&self.codes, n.range(), n.level + 1);
        for o in 0..8 {
            let c = (n.first_child + o as NodeId) as usize;
            self.nodes[c].begin = bounds[o] as u32;
            self.nodes[c].end = bounds[o + 1] as u32;
        }
    }

    /// Allocate eight children for leaf `id` (no prior children).
    pub(crate) fn alloc_children_of(&mut self, id: NodeId) -> NodeId {
        let n = self.nodes[id as usize];
        debug_assert_eq!(n.first_child, NONE);
        let bounds = octant_bounds(&self.codes, n.range(), n.level + 1);
        alloc_children(&mut self.nodes, id, &bounds)
    }

    pub(crate) fn max_level(&self) -> u16 {
        self.max_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_points;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Rows of every length 1–[`ROW`] give the scalar encoder's codes, code
    /// for code, at both widths: NaN, ±∞, negatives, values past the top
    /// cell, exact cell boundaries and their neighbours, subnormals, and
    /// random points, in two cubes.
    #[test]
    fn row_codes_match_the_scalar_encoder() {
        let top = (1u64 << MAX_MORTON_LEVEL) as f64;
        let mut specials = vec![
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            -1.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 3.0,
            1e300,
        ];
        // In the unit cube at the origin a cell is 1/2^21 wide, so k cells
        // is an exact boundary: the cube's faces, the top cell, and past it.
        for k in [1.0, 2.0, 1023.0, top / 2.0, top - 1.0, top, top + 1.0] {
            let x = k / top;
            specials.extend([x, x.next_down(), x.next_up()]);
        }
        let cubes = [(Vec3::splat(0.5), 0.5), (Vec3::new(-3.0, 0.25, 7.0), 1e-3)];
        let mut rng = StdRng::seed_from_u64(71);
        for (center, half_width) in cubes {
            let encoder = Encoder::new(center, half_width);
            let mut coord = |axis: f64| match rng.random_bool(0.4) {
                true => specials[rng.random_range(0..specials.len())],
                false => axis + half_width * rng.random_range(-1.2..1.2),
            };
            let mut pos: Vec<Vec3> = (0..600)
                .map(|_| Vec3::new(coord(center.x), coord(center.y), coord(center.z)))
                .collect();
            for &x in &specials {
                pos.extend([
                    Vec3::new(x, 0.5, 0.5),
                    Vec3::new(0.5, x, 0.5),
                    Vec3::new(0.5, 0.5, x),
                ]);
            }
            let want: Vec<u64> = pos.iter().map(|&p| encoder.code(p)).collect();
            for len in 1..=ROW {
                for (at, row) in pos.chunks(len).enumerate() {
                    let want = &want[at * len..][..row.len()];
                    let mut got = [u64::MAX; ROW];
                    let got = &mut got[..row.len()];
                    encoder.codes_row(row, got);
                    assert_eq!(got, want, "row of {len}, SSE2");
                    #[cfg(target_arch = "x86_64")]
                    if geom::avx2() {
                        got.fill(u64::MAX);
                        // SAFETY: the CPU has AVX2; `avx2()` just read it.
                        unsafe { encoder.codes_avx2(row, got) };
                        assert_eq!(got, want, "row of {len}, AVX2");
                    }
                }
            }
        }
    }

    #[test]
    fn build_respects_leaf_capacity() {
        let pos = random_points(2000, 1);
        let t = build_adaptive(&pos, BuildParams::with_s(32));
        t.check_invariants().unwrap();
        for id in t.visible_leaves() {
            assert!(t.node(id).count() <= 32, "leaf over capacity");
        }
    }

    #[test]
    fn every_body_in_exactly_one_leaf() {
        let pos = random_points(500, 2);
        let t = build_adaptive(&pos, BuildParams::with_s(10));
        let mut covered = vec![0u32; pos.len()];
        for id in t.visible_leaves() {
            for i in t.node(id).range() {
                covered[t.order()[i] as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn bodies_inside_their_leaf_cell() {
        let pos = random_points(800, 3);
        let t = build_adaptive(&pos, BuildParams::with_s(16));
        for id in t.visible_leaves() {
            let n = t.node(id);
            for i in n.range() {
                let p = pos[t.order()[i] as usize];
                let d = p - n.center;
                let tol = n.half_width * (1.0 + 1e-9);
                assert!(
                    d.x.abs() <= tol && d.y.abs() <= tol && d.z.abs() <= tol,
                    "body outside its leaf cell"
                );
            }
        }
    }

    #[test]
    fn clustered_points_make_deep_tree() {
        // A tight cluster plus spread points forces varying leaf depth —
        // the defining feature of the adaptive decomposition (paper Fig 2).
        let mut pos = random_points(100, 4);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..400 {
            pos.push(Vec3::new(
                0.5 + rng.random_range(-1e-4..1e-4),
                0.5 + rng.random_range(-1e-4..1e-4),
                0.5 + rng.random_range(-1e-4..1e-4),
            ));
        }
        let t = build_adaptive(&pos, BuildParams::with_s(8));
        t.check_invariants().unwrap();
        let levels: Vec<usize> = t
            .visible_leaves()
            .iter()
            .map(|&l| t.node(l).level as usize)
            .collect();
        let min = *levels.iter().min().unwrap();
        let max = *levels.iter().max().unwrap();
        assert!(
            max >= min + 3,
            "expected varying leaf depth, got {min}..{max}"
        );
    }

    #[test]
    fn uniform_build_is_complete() {
        let pos = random_points(300, 6);
        let t = build_uniform(&pos, 3, 1e-6);
        t.check_invariants().unwrap();
        let leaves = t.visible_leaves();
        assert_eq!(leaves.len(), 8usize.pow(3));
        assert!(leaves.iter().all(|&l| t.node(l).level == 3));
        let total: usize = leaves.iter().map(|&l| t.node(l).count()).sum();
        assert_eq!(total, pos.len());
    }

    #[test]
    fn rebin_tracks_motion() {
        let mut pos = random_points(1000, 7);
        let mut t = build_adaptive(&pos, BuildParams::with_s(20));
        // Move everything and rebin: structure identical, ranges updated.
        let nodes_before = t.num_nodes();
        for p in &mut pos {
            *p = *p * 0.5 + Vec3::splat(0.1);
        }
        t.rebin(&pos);
        assert_eq!(t.num_nodes(), nodes_before);
        t.check_invariants().unwrap();
        // All bodies still inside their (new) leaf cells.
        for id in t.visible_leaves() {
            let n = t.node(id);
            for i in n.range() {
                let p = pos[t.order()[i] as usize];
                let d = p - n.center;
                let tol = n.half_width * (1.0 + 1e-9);
                assert!(d.x.abs() <= tol && d.y.abs() <= tol && d.z.abs() <= tol);
            }
        }
    }

    #[test]
    fn rebin_clamps_escaped_bodies() {
        let mut pos = random_points(200, 8);
        let mut t = build_adaptive(&pos, BuildParams::with_s(10));
        pos[0] = Vec3::splat(100.0); // way outside the root cube
        t.rebin(&pos);
        t.check_invariants().unwrap(); // still a permutation, ranges tile
    }

    /// Sorted runs of every awkward length — shorter than the run count,
    /// one body, a short last run — with runs of equal codes that only the
    /// id orders, merged at width 1 and through real workers.
    #[test]
    fn merged_runs_equal_the_full_sort() {
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0usize, 1, 2, 3, 7, 8, 9, 64, 1000] {
            for run_len in [1, 2, 3, n / 3 + 1, n / 2 + 1, n.max(1)] {
                if n.div_ceil(run_len) > MAX_RUNS {
                    continue;
                }
                let mut pairs: Vec<(u64, u32)> = (0..n as u32)
                    .map(|id| (rng.random_range(0..6u64), id))
                    .collect();
                for run in pairs.chunks_mut(run_len) {
                    run.sort_unstable();
                }
                let mut sorted = pairs.clone();
                sorted.sort_unstable();
                for k in 0..=n {
                    let cuts = cut_runs(&pairs, run_len, k);
                    let left = pairs
                        .chunks(run_len)
                        .enumerate()
                        .flat_map(|(r, run)| &run[..cuts[r] - r * run_len]);
                    let mut left: Vec<_> = left.copied().collect();
                    left.sort_unstable();
                    assert_eq!(left, sorted[..k], "n {n}, run_len {run_len}, k {k}");
                }
                for width in [1, 3] {
                    let (mut order, mut codes) = (vec![0; n], vec![0; n]);
                    let pool = rayon::ThreadPoolBuilder::new().num_threads(width);
                    pool.build().unwrap().install(|| {
                        merge_runs_into(&pairs, run_len, &mut order, &mut codes);
                    });
                    let merged: Vec<_> = codes.into_iter().zip(order).collect();
                    assert_eq!(merged, sorted, "n {n}, run_len {run_len}, width {width}");
                }
            }
        }
    }

    #[test]
    fn body_ids_stop_short_of_the_sentinel() {
        assert!(body_ids_fit(0));
        assert!(body_ids_fit(u32::MAX as usize - 1));
        assert!(!body_ids_fit(u32::MAX as usize), "u32::MAX is NONE");
    }

    #[test]
    fn empty_input_builds_single_leaf() {
        let t = build_adaptive(&[], BuildParams::with_s(8));
        assert_eq!(t.num_nodes(), 1);
        assert_eq!(t.visible_leaves(), vec![0]);
        t.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_positions_terminate_at_max_level() {
        let pos = vec![Vec3::splat(0.25); 100];
        let t = build_adaptive(
            &pos,
            BuildParams {
                s: 4,
                max_level: 6,
                pad: 1e-6,
            },
        );
        t.check_invariants().unwrap();
        // Cannot split coincident points: one deep overfull leaf is allowed.
        let max_leaf = t
            .visible_leaves()
            .iter()
            .map(|&l| t.node(l).count())
            .max()
            .unwrap();
        assert_eq!(max_leaf, 100);
        assert!(t.depth() <= 6);
    }
}
