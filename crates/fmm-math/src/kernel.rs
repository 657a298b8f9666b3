use crate::expansion::ExpansionOps;
use crate::tile::{AdapterScratch, BodyTile, FieldTile, SplitTile};
use geom::Vec3;

/// Flop weights of the six FMM operations for a kernel/order combination.
///
/// These seed the virtual-hardware timing model; the *observational*
/// coefficients of the paper's cost model are then derived from realized
/// (simulated or wall-clock) times, not from this table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpFlops {
    /// Per source body (P2M).
    pub p2m_per_body: f64,
    /// Per child translation (M2M).
    pub m2m: f64,
    /// Per source-target cell pair (M2L).
    pub m2l: f64,
    /// Per child translation (L2L).
    pub l2l: f64,
    /// Per target body (L2P).
    pub l2p_per_body: f64,
    /// Per body-body interaction (P2P).
    pub p2p_per_pair: f64,
}

/// An interaction kernel usable by the AFMM.
///
/// A kernel defines how point strengths map into multipole channels (P2M),
/// how local-expansion channels map back to per-body output (L2P), and the
/// direct interaction (P2P). The M2M/M2L/L2L translations are
/// kernel-independent (every channel is a harmonic 1/r-type expansion) and
/// live on [`ExpansionOps`].
///
/// P2M and L2P have exactly one implementation per kernel: their **tile
/// form** (`p2m_tile`, `l2p_tile`) over SoA [`BodyTile`]s, which is what the
/// solver calls on its tree-ordered buffers. P2P has two: the solver runs
/// the single-precision split form [`Kernel::p2p_split`], and the f64
/// [`Kernel::p2p_tile`] is its oracle — the direct sums tests and accuracy
/// metrics compare against. The `&[Vec3]` methods are provided adapters for
/// callers that hold AoS bodies: they gather into blocks of at most
/// [`TILE_BLOCK`](crate::TILE_BLOCK) bodies and call the f64 tile form, so
/// both entry points produce bit-identical results.
///
/// AoS strengths are flat with [`Kernel::strength_dim`] values per body;
/// output is a potential-like scalar plus a field vector per body
/// (acceleration for gravity, velocity for Stokes flow).
pub trait Kernel: Send + Sync {
    /// Number of harmonic expansion channels.
    fn channels(&self) -> usize;
    /// Scalars of strength per source body (1 = mass, 3 = force vector).
    fn strength_dim(&self) -> usize;
    fn name(&self) -> &'static str;

    /// Accumulate the multipole expansion (all channels) of the tile's
    /// sources about `center` into `m` (length `channels * nterms`), one
    /// source after the other in tile order. `pow_scratch` is a reusable
    /// buffer.
    fn p2m_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        src: BodyTile<'_>,
        m: &mut [f64],
        pow_scratch: &mut Vec<f64>,
    );

    /// Evaluate the local expansion `l` about `center` at each target of
    /// the tile, accumulating into `out`.
    fn l2p_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        pow_scratch: &mut Vec<f64>,
    );

    /// Direct interaction of every target with every source, accumulating
    /// into `out`. Contributions are added to each target's accumulators
    /// one source at a time in source order — a fixed summation order, so
    /// results are bit-identical from run to run and however the sources
    /// are blocked.
    ///
    /// `self_tile` says `tgt` and `src` are the *same* bodies; the kernel
    /// then applies its own-index rule to the diagonal **by index** (gravity
    /// skips it, softened or not; the regularized Stokeslet keeps its finite
    /// self term). Nothing is masked on `r² > 0`: coincident distinct
    /// bodies and NaN positions propagate to a non-finite output.
    fn p2p_tile(
        &self,
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    );

    /// The solver's P2P: [`Kernel::p2p_tile`]'s pair formula in single
    /// precision (eight targets per AVX2 register where the CPU has AVX2,
    /// four per SSE2 register where not: [`crate::p2p_width`]), from the
    /// targets loaded into `tgt` to every source of `src`, added into `out`.
    /// The width changes no bit: each lane is one target's sum.
    ///
    /// Each source is split into `hi + lo` f32 coordinates once, and every
    /// separation is formed from both halves, so it keeps f32 precision
    /// relative to its own length: a close pair in a wide leaf loses nothing
    /// to where the pair sits. Sums run in f32 and are added into `out` after
    /// every [`TILE_BLOCK`](crate::TILE_BLOCK) sources and at the end of
    /// `src`: the result for one source tile does not depend on what `out`
    /// held before. The own-index rule, and what coincident bodies and NaN
    /// positions produce, are [`Kernel::p2p_tile`]'s.
    fn p2p_split(
        &self,
        tgt: &mut SplitTile,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    );

    /// [`Kernel::p2m_tile`] for AoS sources.
    fn p2m(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        pos: &[Vec3],
        strength: &[f64],
        m: &mut [f64],
        pow_scratch: &mut Vec<f64>,
    ) {
        let sd = self.strength_dim();
        assert_eq!(strength.len(), sd * pos.len(), "strengths out of sync");
        let mut scratch = AdapterScratch::new(pos.len(), sd);
        let cap = scratch.cap();
        let (_, mut src) = scratch.split();
        for (p, q) in pos.chunks(cap).zip(strength.chunks(sd * cap)) {
            self.p2m_tile(ops, center, src.load(p, q, sd), m, pow_scratch);
        }
    }

    /// [`Kernel::l2p_tile`] for AoS targets and outputs.
    #[allow(clippy::too_many_arguments)]
    fn l2p(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        pos: &[Vec3],
        pot: &mut [f64],
        out: &mut [Vec3],
        pow_scratch: &mut Vec<f64>,
    ) {
        assert!(pot.len() == pos.len() && out.len() == pos.len());
        let mut scratch = AdapterScratch::new(pos.len(), 0);
        let cap = scratch.cap();
        let (mut tgt, _) = scratch.split();
        for ((p, phi), o) in pos
            .chunks(cap)
            .zip(pot.chunks_mut(cap))
            .zip(out.chunks_mut(cap))
        {
            tgt.load(p, phi, o);
            let (t, mut f) = tgt.tiles(p.len());
            self.l2p_tile(ops, center, l, t, &mut f, pow_scratch);
            tgt.store(phi, o);
        }
    }

    /// [`Kernel::p2p_tile`] for AoS bodies, blocked on both sides. When
    /// `self_interaction` is true the slices describe the *same* bodies and
    /// the blocks on the diagonal are evaluated as self tiles.
    #[allow(clippy::too_many_arguments)]
    fn p2p(
        &self,
        tpos: &[Vec3],
        tpot: &mut [f64],
        tout: &mut [Vec3],
        spos: &[Vec3],
        sstr: &[f64],
        self_interaction: bool,
    ) {
        let sd = self.strength_dim();
        assert!(tpot.len() == tpos.len() && tout.len() == tpos.len());
        assert_eq!(sstr.len(), sd * spos.len(), "strengths out of sync");
        if self_interaction {
            assert_eq!(
                tpos.len(),
                spos.len(),
                "self interaction needs one body set"
            );
        }
        let mut scratch = AdapterScratch::new(tpos.len().max(spos.len()), sd);
        let cap = scratch.cap();
        let (mut tgt, mut src) = scratch.split();
        for (tb, ((p, phi), o)) in tpos
            .chunks(cap)
            .zip(tpot.chunks_mut(cap))
            .zip(tout.chunks_mut(cap))
            .enumerate()
        {
            tgt.load(p, phi, o);
            let (t, mut f) = tgt.tiles(p.len());
            for (sb, (sp, sq)) in spos.chunks(cap).zip(sstr.chunks(sd * cap)).enumerate() {
                let s = src.load(sp, sq, sd);
                self.p2p_tile(t, &mut f, s, self_interaction && sb == tb);
            }
            tgt.store(phi, o);
        }
    }

    /// Flop weights for this kernel at the given expansion order.
    fn op_flops(&self, ops: &ExpansionOps) -> OpFlops {
        let c = self.channels();
        OpFlops {
            p2m_per_body: ops.per_body_flops(c),
            m2m: ops.translate_flops(c),
            m2l: ops.m2l_flops(c),
            l2l: ops.translate_flops(c),
            l2p_per_body: ops.per_body_flops(c),
            p2p_per_pair: self.p2p_flops_per_pair(),
        }
    }

    /// Cost-model weight of one direct body-body interaction, in the flop
    /// units of [`OpFlops`]: what a pair costs *relative to the expansion
    /// operators* on the virtual node. It is not a count of the
    /// instructions [`Kernel::p2p_tile`] issues and does not follow kernel
    /// rewrites — changing it moves the virtual clock.
    fn p2p_flops_per_pair(&self) -> f64;
}
