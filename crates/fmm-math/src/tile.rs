//! Structure-of-arrays body tiles: the layout the body-touching operators
//! (P2M, L2P, P2P) run on.
//!
//! A *tile* is a contiguous run of bodies — one leaf's range of the engine's
//! tree-ordered buffers, or one block an AoS adapter gathered — with each
//! coordinate and each strength channel in its own `f64` slice, so the inner
//! loops stream unit-stride arrays the compiler can vectorise.

use geom::Vec3;

/// Bodies per block when the `&[Vec3]` adapters ([`crate::Kernel::p2p`] and
/// friends) gather into tiles. Both sides of a P2P are blocked, so an
/// all-pairs reference over any N works on 2 × 256-body tiles (≈ 28 KB of
/// lanes) that stay cache-resident.
pub const TILE_BLOCK: usize = 256;

/// Read-only SoA view of a run of bodies: positions plus the kernel's
/// strength channels.
///
/// Strengths are channel-major with a caller-chosen stride: channel `c` of
/// body `i` sits at `strength[c * stride + i]`. That lets one view describe
/// both a gathered block (`stride` = block capacity) and a leaf's window
/// into whole-problem arrays (`stride` = body count) without copying. A tile
/// used only as P2P/L2P *target* may carry no strengths at all.
#[derive(Clone, Copy, Debug)]
pub struct BodyTile<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    strength: &'a [f64],
    stride: usize,
}

impl<'a> BodyTile<'a> {
    /// A tile with strengths. `strength` must reach the last body of the
    /// last channel the kernel reads; [`BodyTile::channel`] bounds-checks.
    pub fn new(
        x: &'a [f64],
        y: &'a [f64],
        z: &'a [f64],
        strength: &'a [f64],
        stride: usize,
    ) -> Self {
        assert!(
            y.len() == x.len() && z.len() == x.len(),
            "coordinate lanes differ in length"
        );
        BodyTile {
            x,
            y,
            z,
            strength,
            stride,
        }
    }

    /// A strength-less tile (evaluation points only).
    pub fn targets(x: &'a [f64], y: &'a [f64], z: &'a [f64]) -> Self {
        Self::new(x, y, z, &[], 0)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Strength channel `c`, one value per body.
    #[inline]
    pub fn channel(&self, c: usize) -> &'a [f64] {
        &self.strength[c * self.stride..c * self.stride + self.len()]
    }

    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }
}

/// Mutable SoA view of the per-body outputs of a run of bodies: the
/// potential-like scalar and the three field components. The operators
/// *accumulate* into it.
#[derive(Debug)]
pub struct FieldTile<'a> {
    pub pot: &'a mut [f64],
    pub x: &'a mut [f64],
    pub y: &'a mut [f64],
    pub z: &'a mut [f64],
}

impl<'a> FieldTile<'a> {
    pub fn new(pot: &'a mut [f64], x: &'a mut [f64], y: &'a mut [f64], z: &'a mut [f64]) -> Self {
        assert!(
            x.len() == pot.len() && y.len() == pot.len() && z.len() == pot.len(),
            "output lanes differ in length"
        );
        FieldTile { pot, x, y, z }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.pot.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pot.is_empty()
    }

    /// Split into the first `mid` bodies and the rest — how a solver hands
    /// disjoint leaf ranges of one output array to concurrent workers.
    pub fn split_at(self, mid: usize) -> (Self, Self) {
        let (pot, pot_r) = self.pot.split_at_mut(mid);
        let (x, x_r) = self.x.split_at_mut(mid);
        let (y, y_r) = self.y.split_at_mut(mid);
        let (z, z_r) = self.z.split_at_mut(mid);
        (
            FieldTile { pot, x, y, z },
            FieldTile {
                pot: pot_r,
                x: x_r,
                y: y_r,
                z: z_r,
            },
        )
    }
}

/// `x` as `hi + lo`: `hi = x as f32` and `lo` the f32 rounding of what `hi`
/// left out. A difference formed `(a_hi − b_hi) + (a_lo − b_lo)` in f32 is
/// then accurate relative to |a − b|, however far both sit from the origin.
#[inline]
fn split(x: f64) -> (f32, f32) {
    let hi = x as f32;
    (hi, (x - f64::from(hi)) as f32)
}

/// One source body's position in split coordinates, formed once per source
/// in a P2P sweep's outer loop.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SplitPoint {
    pub xh: f32,
    pub xl: f32,
    pub yh: f32,
    pub yl: f32,
    pub zh: f32,
    pub zl: f32,
}

impl SplitPoint {
    fn new(x: f64, y: f64, z: f64) -> Self {
        let ((xh, xl), (yh, yl), (zh, zl)) = (split(x), split(y), split(z));
        SplitPoint {
            xh,
            xl,
            yh,
            yl,
            zh,
            zl,
        }
    }
}

/// Lanes of a [`SplitTile`] come in whole blocks of this many targets: one
/// AVX2 register of f32, the widest row [`SplitTile::sweep`] runs.
const BLOCK: usize = 8;

/// Targets per register of the solve's P2P ([`crate::Kernel::p2p_split`]) on
/// the running CPU: 8 where it has AVX2, 4 (SSE2, or any other
/// architecture's 128-bit vectors) where it has not. It is read, never set:
/// the lanes are targets, each runs the same IEEE operations at either
/// width, so both give the same bits.
pub fn p2p_width() -> usize {
    if geom::avx2() {
        8
    } else {
        4
    }
}

/// The target lanes and f32 accumulators a P2P row runs over, a whole
/// number of the row's width long. The pad past the `n`-th target holds
/// zero coordinates; what accumulates there is never read.
pub(crate) struct SplitRow<'a> {
    pub xh: &'a [f32],
    pub xl: &'a [f32],
    pub yh: &'a [f32],
    pub yl: &'a [f32],
    pub zh: &'a [f32],
    pub zl: &'a [f32],
    pub pot: &'a mut [f32],
    pub ax: &'a mut [f32],
    pub ay: &'a mut [f32],
    pub az: &'a mut [f32],
}

/// One kernel's pair row for one source tile, written once for every
/// register width: [`PairRow::row`] adds one (split) source into every
/// target's accumulators, `W` targets at a time.
pub(crate) trait PairRow: Copy {
    /// Whether a self tile drops each target's own index.
    fn skips_own(self) -> bool;

    /// Add source `j` of the tile, split as `s`, into every target of `t`.
    /// Implementations are `#[inline(always)]` and loop over
    /// `as_chunks::<W>()` of the lanes: inlined into the AVX2 sweep, each
    /// chunk is one 256-bit register.
    fn row<const W: usize>(self, t: &mut SplitRow<'_>, s: SplitPoint, j: usize);
}

/// Coordinate lanes per target: `x y z`, each as `hi` then `lo`.
const SPLIT_COORDS: usize = 6;
/// Accumulator lanes per target: `pot x y z`.
const SPLIT_ACCS: usize = 4;

/// One target tile in single precision: the scratch the solve's P2P
/// ([`crate::Kernel::p2p_split`]) runs on, reused by one worker from leaf to
/// leaf.
///
/// [`SplitTile::load`] splits each target coordinate into f32 `hi` and `lo`
/// lanes (`hi = x as f32`, `lo = (x − hi) as f32`) and zeroes four f32
/// accumulators. Lanes come in whole blocks of eight targets, so a pair row
/// is a loop of full registers with no scalar remainder, however small the
/// leaf: one AVX2 register per block, or two SSE2 halves where the CPU has
/// no AVX2 (eight-wide on SSE2 runs out of registers). A sweep over one
/// source tile adds its f32 sums into the caller's f64 [`FieldTile`] and
/// zeroes them again after every [`TILE_BLOCK`] sources and at the end, so
/// a source tile's contribution does not depend on what was summed before
/// it.
#[derive(Debug, Default)]
pub struct SplitTile {
    /// `SPLIT_COORDS` coordinate lanes, then `SPLIT_ACCS` accumulators,
    /// `n` rounded up to a whole [`BLOCK`] each.
    lanes: Vec<f32>,
    n: usize,
}

impl SplitTile {
    /// Split `tgt`'s positions into this scratch and zero the accumulators.
    pub fn load(&mut self, tgt: BodyTile<'_>) {
        self.n = tgt.len();
        let stride = self.n.next_multiple_of(BLOCK);
        self.lanes.clear();
        self.lanes.resize((SPLIT_COORDS + SPLIT_ACCS) * stride, 0.0);
        if stride == 0 {
            return;
        }
        for (pair, coord) in self
            .lanes
            .chunks_exact_mut(2 * stride)
            .zip([tgt.x, tgt.y, tgt.z])
        {
            let (hi, lo) = pair.split_at_mut(stride);
            for ((h, l), &x) in hi.iter_mut().zip(lo).zip(coord) {
                (*h, *l) = split(x);
            }
        }
    }

    /// Drive one kernel's pair `row` over every source of `src`, eight
    /// targets per register where the CPU has AVX2 and four where it has
    /// not: the same bits either way, since the lanes are targets and each
    /// runs the same operations. The own index of a self tile is put back
    /// after its row when the row [skips it](PairRow::skips_own), the rule
    /// [`crate::Kernel::p2p_tile`] applies. The accumulators go into `out`
    /// after every [`TILE_BLOCK`] sources and after the last one.
    pub(crate) fn sweep(
        &mut self,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
        row: impl PairRow,
    ) {
        #[cfg(target_arch = "x86_64")]
        if geom::avx2() {
            // SAFETY: a `#[target_feature]` function's one precondition is
            // that the CPU has the feature. `sweep_avx2` is compiled for
            // AVX2 alone, and `avx2()` just read it from the running CPU.
            return unsafe { self.sweep_avx2(out, src, self_tile, row) };
        }
        self.sweep_at::<4>(out, src, self_tile, row)
    }

    /// [`SplitTile::sweep_at`] eight wide, compiled for AVX2. Everything it
    /// runs is `#[inline(always)]`, so the row lands in this function and
    /// its eight-lane chunks in 256-bit registers; the same row outside it
    /// stays SSE2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn sweep_avx2(
        &mut self,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
        row: impl PairRow,
    ) {
        self.sweep_at::<8>(out, src, self_tile, row)
    }

    /// [`SplitTile::sweep`] `W` targets per row chunk, over the first
    /// `n` rounded up to a whole `W` lanes.
    #[inline(always)]
    fn sweep_at<const W: usize>(
        &mut self,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
        row: impl PairRow,
    ) {
        let n = self.n;
        assert_eq!(out.len(), n, "output tile out of sync with targets");
        if self_tile {
            assert_eq!(src.len(), n, "a self tile is one body set");
        }
        if n == 0 {
            return;
        }
        let (stride, len) = (n.next_multiple_of(BLOCK), n.next_multiple_of(W));
        let (coords, accs) = self.lanes.split_at_mut(SPLIT_COORDS * stride);
        let mut c = coords.chunks_exact(stride);
        let [xh, xl, yh, yl, zh, zl] =
            std::array::from_fn(|_| &c.next().expect("six coordinate lanes")[..len]);
        let mut a = accs.chunks_exact_mut(stride);
        let [pot, ax, ay, az] =
            std::array::from_fn(|_| &mut a.next().expect("four accumulators")[..len]);
        let mut r = SplitRow {
            xh,
            xl,
            yh,
            yl,
            zh,
            zl,
            pot,
            ax,
            ay,
            az,
        };
        let skip_own = self_tile && row.skips_own();
        for start in (0..src.len()).step_by(TILE_BLOCK) {
            for j in start..src.len().min(start + TILE_BLOCK) {
                let own = skip_own.then(|| (r.pot[j], r.ax[j], r.ay[j], r.az[j]));
                row.row::<W>(&mut r, SplitPoint::new(src.x[j], src.y[j], src.z[j]), j);
                if let Some(v) = own {
                    (r.pot[j], r.ax[j], r.ay[j], r.az[j]) = v;
                }
            }
            for (o, a) in [
                (&mut *out.pot, &mut *r.pot),
                (&mut *out.x, &mut *r.ax),
                (&mut *out.y, &mut *r.ay),
                (&mut *out.z, &mut *r.az),
            ] {
                for (o, a) in o.iter_mut().zip(a.iter()) {
                    *o += f64::from(*a);
                }
                a.fill(0.0);
            }
        }
    }
}

/// Scratch of the AoS adapters: one allocation carved into the SoA lanes of
/// a target block (3 coordinates + 4 outputs) and a source block (3
/// coordinates + `sd` strength channels), each `cap` bodies wide. Sized to
/// the call (`cap` ≤ [`TILE_BLOCK`]), so a small leaf pair pays a small
/// setup.
pub(crate) struct AdapterScratch {
    buf: Vec<f64>,
    cap: usize,
}

impl AdapterScratch {
    pub(crate) fn new(max_bodies: usize, sd: usize) -> Self {
        let cap = max_bodies.clamp(1, TILE_BLOCK);
        AdapterScratch {
            buf: vec![0.0; (10 + sd) * cap],
            cap,
        }
    }

    /// Block width: callers step through their bodies `cap` at a time.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Carve the scratch into (target lanes, source lanes).
    pub(crate) fn split(&mut self) -> (TargetBlock<'_>, SourceBlock<'_>) {
        let cap = self.cap;
        let (t, s) = self.buf.split_at_mut(7 * cap);
        (TargetBlock { lanes: t, cap }, SourceBlock { lanes: s, cap })
    }
}

/// Target half of an [`AdapterScratch`]: `x y z pot ox oy oz`.
pub(crate) struct TargetBlock<'a> {
    lanes: &'a mut [f64],
    cap: usize,
}

impl TargetBlock<'_> {
    /// Load positions and the current accumulator values of one block, so
    /// the tile form continues the caller's sums exactly where they stand.
    pub(crate) fn load(&mut self, pos: &[Vec3], pot: &[f64], out: &[Vec3]) {
        let cap = self.cap;
        for (i, ((p, &phi), o)) in pos.iter().zip(pot).zip(out).enumerate() {
            self.lanes[i] = p.x;
            self.lanes[cap + i] = p.y;
            self.lanes[2 * cap + i] = p.z;
            self.lanes[3 * cap + i] = phi;
            self.lanes[4 * cap + i] = o.x;
            self.lanes[5 * cap + i] = o.y;
            self.lanes[6 * cap + i] = o.z;
        }
    }

    /// The first `n` loaded bodies as (targets, outputs).
    pub(crate) fn tiles(&mut self, n: usize) -> (BodyTile<'_>, FieldTile<'_>) {
        let cap = self.cap;
        let (xyz, out) = self.lanes.split_at_mut(3 * cap);
        let (pot, out) = out.split_at_mut(cap);
        let (ox, out) = out.split_at_mut(cap);
        let (oy, oz) = out.split_at_mut(cap);
        (
            BodyTile::targets(&xyz[..n], &xyz[cap..cap + n], &xyz[2 * cap..2 * cap + n]),
            FieldTile::new(&mut pot[..n], &mut ox[..n], &mut oy[..n], &mut oz[..n]),
        )
    }

    /// Write the accumulators back to the caller's AoS outputs.
    pub(crate) fn store(&self, pot: &mut [f64], out: &mut [Vec3]) {
        let cap = self.cap;
        for (i, (phi, o)) in pot.iter_mut().zip(out).enumerate() {
            *phi = self.lanes[3 * cap + i];
            *o = Vec3::new(
                self.lanes[4 * cap + i],
                self.lanes[5 * cap + i],
                self.lanes[6 * cap + i],
            );
        }
    }
}

/// Source half of an [`AdapterScratch`]: `x y z` then `sd` strength lanes.
pub(crate) struct SourceBlock<'a> {
    lanes: &'a mut [f64],
    cap: usize,
}

impl SourceBlock<'_> {
    /// Gather one block of sources; `strength` is the block's AoS strengths
    /// (`sd` per body).
    pub(crate) fn load(&mut self, pos: &[Vec3], strength: &[f64], sd: usize) -> BodyTile<'_> {
        let cap = self.cap;
        let n = pos.len();
        debug_assert_eq!(strength.len(), sd * n);
        for (i, p) in pos.iter().enumerate() {
            self.lanes[i] = p.x;
            self.lanes[cap + i] = p.y;
            self.lanes[2 * cap + i] = p.z;
            for c in 0..sd {
                self.lanes[(3 + c) * cap + i] = strength[sd * i + c];
            }
        }
        let (xyz, q) = self.lanes.split_at(3 * cap);
        BodyTile::new(
            &xyz[..n],
            &xyz[cap..cap + n],
            &xyz[2 * cap..2 * cap + n],
            q,
            cap,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GravityKernel, StokesletKernel};

    /// Every remainder of the 4- and 8-wide rows, and one past a
    /// [`TILE_BLOCK`] of sources.
    const SIZES: [usize; 13] = [0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, TILE_BLOCK + 1];

    /// SplitMix64: a fixed stream that no RNG crate's version can move, so
    /// the golden hash below depends on the split P2P alone.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// `n` values uniform in `[lo, lo + 1)`.
        fn vals(&mut self, n: usize, lo: f64) -> Vec<f64> {
            (0..n)
                .map(|_| lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64)
                .collect()
        }
    }

    /// Owned SoA bodies away from the origin (so the `lo` halves carry
    /// bits), with three strength channels; gravity reads the first.
    struct Bodies {
        x: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
        q: Vec<f64>,
    }

    impl Bodies {
        fn new(s: &mut Stream, n: usize) -> Self {
            Bodies {
                x: s.vals(n, 10.0),
                y: s.vals(n, -3.0),
                z: s.vals(n, 0.5),
                q: s.vals(3 * n, -0.5),
            }
        }

        fn tile(&self) -> BodyTile<'_> {
            BodyTile::new(&self.x, &self.y, &self.z, &self.q, self.x.len())
        }
    }

    /// Which sweep runs: the dispatched one `Kernel::p2p_split` runs (eight
    /// wide where the CPU has AVX2), or [`SplitTile::sweep_at`] at a fixed
    /// width compiled for the baseline target (SSE2 on x86_64).
    #[derive(Clone, Copy, Debug)]
    enum Path {
        Dispatched,
        Four,
        Eight,
    }

    #[derive(Clone, Copy)]
    enum Kern {
        Gravity(GravityKernel),
        Stokeslet(StokesletKernel),
    }

    fn p2p(
        path: Path,
        k: Kern,
        tgt: &mut SplitTile,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    ) {
        fn run(
            path: Path,
            tgt: &mut SplitTile,
            out: &mut FieldTile<'_>,
            src: BodyTile<'_>,
            self_tile: bool,
            row: impl PairRow,
        ) {
            match path {
                Path::Dispatched => tgt.sweep(out, src, self_tile, row),
                Path::Four => tgt.sweep_at::<4>(out, src, self_tile, row),
                Path::Eight => tgt.sweep_at::<8>(out, src, self_tile, row),
            }
        }
        match k {
            Kern::Gravity(k) => run(path, tgt, out, src, self_tile, k.split_row(src)),
            Kern::Stokeslet(k) => run(path, tgt, out, src, self_tile, k.split_row(src)),
        }
    }

    /// `tgt`'s output bits, from f64 sums already under way, after each
    /// tile of `srcs` in turn.
    fn outputs(path: Path, k: Kern, s: &mut Stream, tgt: &Bodies, srcs: &[&Bodies]) -> Vec<u64> {
        let n = tgt.x.len();
        let mut lanes = s.vals(4 * n, -0.5);
        let (pot, rest) = lanes.split_at_mut(n);
        let (x, rest) = rest.split_at_mut(n);
        let (y, z) = rest.split_at_mut(n);
        let mut out = FieldTile::new(pot, x, y, z);
        let mut scratch = SplitTile::default();
        scratch.load(tgt.tile());
        for src in srcs {
            let self_tile = std::ptr::eq(*src, tgt);
            p2p(path, k, &mut scratch, &mut out, src.tile(), self_tile);
        }
        lanes.iter().map(|v| v.to_bits()).collect()
    }

    /// Every case the bit tests run, in a fixed order, through `path`: both
    /// kernels at ε = 0 and ε > 0; each pairing of [`SIZES`] as distinct
    /// target and source tiles; each size as a self tile (the own-index
    /// rule); and two source tiles summed into one output.
    fn cases(path: Path) -> Vec<(String, Vec<u64>)> {
        let mut s = Stream(11);
        let mut all = Vec::new();
        for eps in [0.0, 0.01] {
            for k in [
                Kern::Gravity(GravityKernel::new(eps)),
                Kern::Stokeslet(StokesletKernel::new(eps, 0.7)),
            ] {
                let name = match k {
                    Kern::Gravity(_) => "gravity",
                    Kern::Stokeslet(_) => "stokeslet",
                };
                for nt in SIZES {
                    let tgt = Bodies::new(&mut s, nt);
                    for ns in SIZES {
                        let src = Bodies::new(&mut s, ns);
                        let bits = outputs(path, k, &mut s, &tgt, &[&src]);
                        all.push((format!("{name} ε={eps} {nt}×{ns}"), bits));
                    }
                    let bits = outputs(path, k, &mut s, &tgt, &[&tgt]);
                    all.push((format!("{name} ε={eps} self {nt}"), bits));
                }
                let tgt = Bodies::new(&mut s, 9);
                let (a, b) = (
                    Bodies::new(&mut s, TILE_BLOCK - 1),
                    Bodies::new(&mut s, TILE_BLOCK + 4),
                );
                let bits = outputs(path, k, &mut s, &tgt, &[&a, &b]);
                all.push((format!("{name} ε={eps} two tiles"), bits));
            }
        }
        all
    }

    #[test]
    fn row_widths_give_identical_bits() {
        let four = cases(Path::Four);
        for path in [Path::Eight, Path::Dispatched] {
            if let Path::Dispatched = path {
                if p2p_width() != 8 {
                    println!("no AVX2 on this CPU: the 8-wide AVX2 sweep was skipped");
                    continue;
                }
            }
            for ((what, want), (_, got)) in four.iter().zip(cases(path)) {
                assert!(got == *want, "{path:?} differs from 4 wide: {what}");
            }
        }
    }

    /// FNV-1a over every case's output bits from the 4-wide SSE2 sweep,
    /// computed by these cases through `Kernel::p2p_split` when that sweep
    /// was its only one. Every width must keep these bits.
    const GOLDEN: u64 = 0x8937_b77e_eee9_beef;

    #[test]
    fn split_p2p_keeps_its_golden_bits() {
        for path in [Path::Dispatched, Path::Four, Path::Eight] {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for (_, bits) in cases(path) {
                for b in bits.iter().flat_map(|b| b.to_le_bytes()) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            assert_eq!(h, GOLDEN, "{path:?} hash {h:#018x}");
        }
    }
}
