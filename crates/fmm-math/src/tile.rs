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

/// Targets per f32 block: one SSE2 register's worth.
pub(crate) const LANES: usize = 4;
/// One block of a split lane: [`LANES`] targets' values side by side.
pub(crate) type Block = [f32; LANES];

/// The target lanes and f32 accumulators a P2P row runs over, each
/// `ceil(n / LANES)` blocks long. The pad past the `n`-th target holds
/// zero coordinates; what accumulates there is never read.
pub(crate) struct SplitRow<'a> {
    pub xh: &'a [Block],
    pub xl: &'a [Block],
    pub yh: &'a [Block],
    pub yl: &'a [Block],
    pub zh: &'a [Block],
    pub zl: &'a [Block],
    pub pot: &'a mut [Block],
    pub ax: &'a mut [Block],
    pub ay: &'a mut [Block],
    pub az: &'a mut [Block],
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
/// accumulators. Lanes come
/// in whole blocks of four targets, so a pair row is a loop of full SSE2
/// registers with no scalar remainder, however small the leaf. A sweep over
/// one source tile adds its f32 sums into the caller's f64 [`FieldTile`] and
/// zeroes them again after every [`TILE_BLOCK`] sources and at the end, so a
/// source tile's contribution does not depend on what was summed before it.
#[derive(Debug, Default)]
pub struct SplitTile {
    /// `SPLIT_COORDS` coordinate lanes, then `SPLIT_ACCS` accumulators,
    /// `ceil(n / LANES)` blocks each.
    lanes: Vec<Block>,
    n: usize,
}

impl SplitTile {
    /// Split `tgt`'s positions into this scratch and zero the accumulators.
    pub fn load(&mut self, tgt: BodyTile<'_>) {
        self.n = tgt.len();
        let nb = self.n.div_ceil(LANES);
        self.lanes.clear();
        self.lanes
            .resize((SPLIT_COORDS + SPLIT_ACCS) * nb, [0.0; LANES]);
        if nb == 0 {
            return;
        }
        for (pair, coord) in self
            .lanes
            .chunks_exact_mut(2 * nb)
            .zip([tgt.x, tgt.y, tgt.z])
        {
            let (hi, lo) = pair.split_at_mut(nb);
            let (hi, lo) = (hi.as_flattened_mut(), lo.as_flattened_mut());
            for ((h, l), &x) in hi.iter_mut().zip(lo).zip(coord) {
                (*h, *l) = split(x);
            }
        }
    }

    /// Drive one kernel's pair `row` over every source of `src`: `row`
    /// adds one (split) source `j` into every target's accumulators. The own
    /// index of a self tile is put back after its row when `skip_own`, the
    /// rule [`crate::Kernel::p2p_tile`] applies. The accumulators go into
    /// `out` after every [`TILE_BLOCK`] sources and after the last one.
    pub(crate) fn sweep(
        &mut self,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
        skip_own: bool,
        mut row: impl FnMut(&mut SplitRow<'_>, SplitPoint, usize),
    ) {
        let n = self.n;
        assert_eq!(out.len(), n, "output tile out of sync with targets");
        if self_tile {
            assert_eq!(src.len(), n, "a self tile is one body set");
        }
        if n == 0 {
            return;
        }
        let nb = n.div_ceil(LANES);
        let (coords, accs) = self.lanes.split_at_mut(SPLIT_COORDS * nb);
        let mut c = coords.chunks_exact(nb);
        let [xh, xl, yh, yl, zh, zl] =
            std::array::from_fn(|_| c.next().expect("six coordinate lanes"));
        let mut a = accs.chunks_exact_mut(nb);
        let [pot, ax, ay, az] = std::array::from_fn(|_| a.next().expect("four accumulators"));
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
        for start in (0..src.len()).step_by(TILE_BLOCK) {
            for j in start..src.len().min(start + TILE_BLOCK) {
                let (b, k) = (j / LANES, j % LANES);
                let own = (self_tile && skip_own)
                    .then(|| (r.pot[b][k], r.ax[b][k], r.ay[b][k], r.az[b][k]));
                row(&mut r, SplitPoint::new(src.x[j], src.y[j], src.z[j]), j);
                if let Some(v) = own {
                    (r.pot[b][k], r.ax[b][k], r.ay[b][k], r.az[b][k]) = v;
                }
            }
            for (o, a) in [
                (&mut *out.pot, &mut *r.pot),
                (&mut *out.x, &mut *r.ax),
                (&mut *out.y, &mut *r.ay),
                (&mut *out.z, &mut *r.az),
            ] {
                for (o, a) in o.iter_mut().zip(a.as_flattened()) {
                    *o += f64::from(*a);
                }
                a.fill([0.0; LANES]);
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
