use crate::multiindex::{nterms, MultiIndexSet};
use crate::powers::power_series;
use crate::tensor::{DerivScratch, TensorProgram};
use geom::Vec3;

/// Sources one [`ExpansionOps::m2l_batch`] call evaluates side by side, one
/// per lane. A constant, not a knob: sixteen `f32` lanes keep one `L_β`
/// accumulator in four SSE2 registers (the baseline x86-64 the workspace
/// builds for), and the lane count fixes which sources share a batch.
pub const M2L_LANES: usize = 16;

/// The smallest target-side width power `(w_t / w)^{p+1}` an
/// [`ExpansionOps::m2l_batch`] applies in `f32`: 2^30 above `f32`'s smallest
/// normal, so a lane's sum scaled by it stays exact unless the sum already
/// is 2^30 below its unit. A batch with a smaller one (a source `96 / (p+1)`
/// or more levels above the target, far beyond what the workloads' trees
/// produce: their largest gap is 5) runs one source at a time.
const SHRINK_F32_MIN: f64 = 1.0 / (1u128 << 96) as f64;

/// One source of an [`ExpansionOps::m2l_batch`]: its source form (from
/// [`ExpansionOps::source_form`], `channels` stacked, stride
/// [`ExpansionOps::form_len`]), the half-width that form was scaled by, and
/// `r = c_local − c_source`.
#[derive(Clone, Copy, Debug)]
pub struct M2lSource<'a> {
    pub form: &'a [f32],
    pub half_width: f64,
    pub r: Vec3,
}

/// Reusable per-worker scratch of [`ExpansionOps::m2l_batch`], as rows of
/// [`M2L_LANES`] `f32` lanes: the derivative-tensor table, the batch's
/// scaled source forms, and per lane the powers of its two width ratios;
/// plus the target's unit scales and one channel of the batch's `f64`
/// local contribution. Sized on first use, then reused.
#[derive(Clone, Debug, Default)]
pub struct M2lScratch {
    table: Vec<[f32; M2L_LANES]>,
    ms: Vec<[f32; M2L_LANES]>,
    /// `(w_s / w)^n` per total order `n`, `w = max(w_s, w_t)` the lane's
    /// unit.
    ratio: Vec<[f32; M2L_LANES]>,
    /// `(w_t / w)^(n+1)` per total order `n`.
    shrink: Vec<[f32; M2L_LANES]>,
    /// `w_t^−(n+1)` per total order `n`.
    scale: Vec<f64>,
    h: Vec<f64>,
    /// One channel's form of zeros: what the padding lanes read.
    zeros: Vec<f32>,
}

/// Precomputed translation plans for expansions of a given order.
///
/// Holds the [`MultiIndexSet`] plus the flattened index tables used by the
/// kernel-independent translations:
///
/// * `sub_triples`: all `(α, β, α−β)` with `β <= α` component-wise — the
///   binomial stencil shared by M2M and L2L;
/// * `m2l_pairs`: the total-order-truncated M2L contraction `|α| + |β| <= p`
///   (the standard cartesian-FMM truncation; error stays `O((d/R)^{p+1})`),
///   reduced to its harmonic core: per `β` with `β_z <= 1`, all `(α, α+β)`
///   with `α_z <= 1`, grouped so one `L_β` accumulates over its whole `α`
///   list;
/// * `harmonic`: the identity `D_{γ+2e_z} = −D_{γ+2e_x} − D_{γ+2e_y}` of
///   `D_γ = ∂^γ(1/r)` as index triples, which folds the `α_z >= 2`
///   multipoles onto the core and fills the `β_z >= 2` locals from it;
/// * `tensor`: the derivative-tensor recurrence as a straight-line program.
///
/// One `ExpansionOps` is built per solver and shared read-only by all worker
/// threads; scratch buffers ([`M2lScratch`], [`DerivScratch`], power
/// tables) live per thread.
#[derive(Clone, Debug)]
pub struct ExpansionOps {
    set: MultiIndexSet,
    sub_triples: Vec<(u32, u32, u32)>,
    /// Flat index of every core `α` (`α_z <= 1`), ascending: position `k`
    /// here is coefficient `k` of a channel's source form ((p+1)² of them,
    /// 49 at p = 6).
    core: Vec<u16>,
    /// `|α|` of every core coefficient.
    core_order: Vec<u8>,
    /// `(α, α+β)` of every contracted M2L term, `β`-major, `α` ascending
    /// within a `β`, `α` as a core position; only `α_z, β_z <= 1`
    /// (Σₘ (2m+1)(p−m+1)² terms, 532 at p = 6 against the full 924).
    m2l_pairs: Vec<(u16, u16)>,
    /// The contracted `β` (`β_z <= 1`), ascending.
    m2l_rows: Vec<u16>,
    /// `m2l_pairs[m2l_start[i]..m2l_start[i + 1]]` are the terms of
    /// `m2l_rows[i]`.
    m2l_start: Vec<u32>,
    /// `(γ, γ − 2e_z + 2e_x, γ − 2e_z + 2e_y)` for every `γ` with `γ_z >= 2`,
    /// highest `γ_z` first (35 at p = 6).
    harmonic: Vec<[u16; 3]>,
    tensor: TensorProgram,
    /// `(−1)^{|α|}` per flat index, used in the multipole-to-field formula.
    sign: Vec<f64>,
    /// Per axis `d`, every `(β, β − e_d)` with `β_d > 0`, ascending in `β`.
    peel: [Vec<(u32, u32)>; 3],
}

impl ExpansionOps {
    pub fn new(order: usize) -> Self {
        let set = MultiIndexSet::new(order);
        let mut sub_triples = Vec::new();
        let mut peel = [Vec::new(), Vec::new(), Vec::new()];
        for (a, (ai, aj, ak)) in set.iter() {
            if ai > 0 {
                peel[0].push((a as u32, set.idx(ai - 1, aj, ak) as u32));
            }
            if aj > 0 {
                peel[1].push((a as u32, set.idx(ai, aj - 1, ak) as u32));
            }
            if ak > 0 {
                peel[2].push((a as u32, set.idx(ai, aj, ak - 1) as u32));
            }
            // β <= α component-wise.
            for bi in 0..=ai {
                for bj in 0..=aj {
                    for bk in 0..=ak {
                        let b = set.idx(bi, bj, bk);
                        let diff = set.idx(ai - bi, aj - bj, ak - bk);
                        sub_triples.push((a as u32, b as u32, diff as u32));
                    }
                }
            }
        }
        let core: Vec<u16> = set
            .iter()
            .filter(|&(_, (.., k))| k <= 1)
            .map(|(a, _)| a as u16)
            .collect();
        let core_order = core
            .iter()
            .map(|&a| set.total_order(a as usize) as u8)
            .collect();
        // |α| + |β| <= p: graded order makes the admissible α a prefix of
        // the core.
        let (mut m2l_pairs, mut m2l_rows, mut m2l_start) = (Vec::new(), Vec::new(), vec![0]);
        for &b in &core {
            let (bi, bj, bk) = set.tuple(b as usize);
            let admissible = set.order_range(order - set.total_order(b as usize)).end;
            for (k, &a) in core
                .iter()
                .enumerate()
                .take_while(|&(_, &a)| (a as usize) < admissible)
            {
                let (ai, aj, ak) = set.tuple(a as usize);
                m2l_pairs.push((k as u16, set.idx(ai + bi, aj + bj, ak + bk) as u16));
            }
            m2l_rows.push(b);
            m2l_start.push(m2l_pairs.len() as u32);
        }
        let mut harmonic: Vec<[u16; 3]> = set
            .iter()
            .filter(|&(_, (.., k))| k >= 2)
            .map(|(g, (i, j, k))| {
                [g, set.idx(i + 2, j, k - 2), set.idx(i, j + 2, k - 2)].map(|x| x as u16)
            })
            .collect();
        harmonic.sort_by_key(|&[g, ..]| std::cmp::Reverse(set.tuple(g as usize).2));
        let sign = (0..set.len())
            .map(|i| {
                if set.total_order(i).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        let tensor = TensorProgram::new(&set);
        ExpansionOps {
            set,
            sub_triples,
            core,
            core_order,
            m2l_pairs,
            m2l_rows,
            m2l_start,
            harmonic,
            tensor,
            sign,
            peel,
        }
    }

    #[inline]
    pub fn set(&self) -> &MultiIndexSet {
        &self.set
    }

    /// Expansion order `p`.
    #[inline]
    pub fn order(&self) -> usize {
        self.set.order()
    }

    /// Coefficients per channel.
    #[inline]
    pub fn nterms(&self) -> usize {
        self.set.len()
    }

    /// Peel table of axis `d` (0 = x, 1 = y, 2 = z): every flat-index pair
    /// `(β, β − e_d)` with `β_d > 0`, ascending in `β`. One derivative of a
    /// Taylor sum, `∂_d Σ_β L_β t^β/β! = Σ_{β_d>0} L_β t^{β−e_d}/(β−e_d)!`,
    /// and one dipole moment, `Σ_{α_d>0} f_d t^{α−e_d}/(α−e_d)!`, are both a
    /// single pass over this list with no index arithmetic.
    #[inline]
    pub fn peel(&self, axis: usize) -> &[(u32, u32)] {
        &self.peel[axis]
    }

    /// Translate a multipole expansion from a child center to its parent:
    /// `M'_α += Σ_{β<=α} M_β · t^{α−β}/(α−β)!` with `t = c_child − c_parent`.
    /// Operates on `channels` stacked expansions (stride [`Self::nterms`]).
    /// `pow_scratch` must have `nterms` capacity.
    pub fn m2m(
        &self,
        child: &[f64],
        t: Vec3,
        parent: &mut [f64],
        channels: usize,
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = self.set.len();
        debug_assert_eq!(child.len(), channels * nt);
        debug_assert_eq!(parent.len(), channels * nt);
        pow_scratch.resize(nt, 0.0);
        power_series(t, &self.set, pow_scratch);
        for c in 0..channels {
            let src = &child[c * nt..(c + 1) * nt];
            let dst = &mut parent[c * nt..(c + 1) * nt];
            for &(a, b, diff) in &self.sub_triples {
                dst[a as usize] += src[b as usize] * pow_scratch[diff as usize];
            }
        }
    }

    /// Translate a local expansion from a parent center to a child:
    /// `L'_β += Σ_{γ>=β} L_γ · t^{γ−β}/(γ−β)!` with `t = c_child − c_parent`.
    /// (Exact Taylor shift up to the stored order.)
    pub fn l2l(
        &self,
        parent: &[f64],
        t: Vec3,
        child: &mut [f64],
        channels: usize,
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = self.set.len();
        debug_assert_eq!(parent.len(), channels * nt);
        debug_assert_eq!(child.len(), channels * nt);
        pow_scratch.resize(nt, 0.0);
        power_series(t, &self.set, pow_scratch);
        for c in 0..channels {
            let src = &parent[c * nt..(c + 1) * nt];
            let dst = &mut child[c * nt..(c + 1) * nt];
            // Same triple set as M2M with the roles of α and β swapped:
            // (γ, β, γ−β) where β <= γ.
            for &(g, b, diff) in &self.sub_triples {
                dst[b as usize] += src[g as usize] * pow_scratch[diff as usize];
            }
        }
    }

    /// The derivative tensor `∂^γ (1/|v|)`, `|γ| <= p`, at the `L`
    /// displacements `r` at once: row `γ` of the result holds one value per
    /// lane. Singular at `v = 0` (debug-asserted); callers guarantee
    /// well-separatedness.
    pub fn deriv_tensor<'s, const L: usize>(
        &self,
        r: &[Vec3; L],
        scratch: &'s mut DerivScratch,
    ) -> &'s [[f64; L]] {
        let (table, _) = scratch.lanes::<L>(self.tensor.table_rows(), 0);
        self.tensor.run(&lanes_of(r), table);
        &table[..self.set.len()]
    }

    /// Multipole-to-local from one source in `f64`: `L_β += Σ_α (−1)^{|α|}
    /// M_α · ∂^{α+β}(1/r)(r)` with `r = c_local − c_multipole`, truncated at
    /// `|α|+|β| <= p`; `tensor_out` receives the derivative tensor. The
    /// oracle the single-precision [`Self::m2l_batch`] is tested against.
    ///
    /// Every tensor entry is `D_γ = ∂^γ(1/r)`, harmonic, so
    /// `D_{γ+2e_z} = −D_{γ+2e_x} − D_{γ+2e_y}` at equal total order: a
    /// multipole `α` with `α_z >= 2` contributes to every `L_β` exactly what
    /// its negation contributes at `α − 2e_z + 2e_x` and at
    /// `α − 2e_z + 2e_y`, and a local `β` with `β_z >= 2` is minus the sum
    /// of the locals at `β − 2e_z + 2e_x` and `β − 2e_z + 2e_y`. Neither
    /// move changes a total order, so the contraction keeps its
    /// `|α| + |β| <= p` truncation and computes the same operator (in exact
    /// arithmetic) from the `α_z, β_z <= 1` core alone.
    ///
    /// One derivative tensor evaluation is shared across all `channels`, so
    /// the 7-channel Stokeslet costs less than 7× the 1-channel gravity M2L;
    /// [`Self::m2l_flops`], which the virtual clock uses, puts it at 4.2×.
    pub fn m2l(
        &self,
        src_m: &[f64],
        r: Vec3,
        dst_l: &mut [f64],
        channels: usize,
        deriv_scratch: &mut DerivScratch,
        tensor_out: &mut Vec<f64>,
    ) {
        let nt = self.set.len();
        debug_assert_eq!(src_m.len(), channels * nt);
        debug_assert_eq!(dst_l.len(), channels * nt);
        // The program's auxiliary rows are spent once it has run; the
        // local contribution (one value per `β`) is written over them.
        let rows = self.tensor.table_rows();
        let (table, ms) = deriv_scratch.lanes::<1>(rows.max(2 * nt), nt);
        self.tensor.run(&[[r.x], [r.y], [r.z]], &mut table[..rows]);
        let (tensor, spent) = table.split_at_mut(nt);
        let (ms, h) = (ms.as_flattened_mut(), &mut spent.as_flattened_mut()[..nt]);
        for c in 0..channels {
            for ((m, &src), &sign) in ms.iter_mut().zip(&src_m[c * nt..]).zip(&self.sign) {
                *m = sign * src;
            }
            // Fold every α_z >= 2 onto the core, highest α_z first, so what
            // a row receives is folded on in turn.
            for &[g, x, y] in &self.harmonic {
                let m = ms[g as usize];
                ms[x as usize] -= m;
                ms[y as usize] -= m;
            }
            // Compact the core to the front in core order, as a source form
            // holds it (`core[k] >= k`, so nothing is read after it moved).
            for (k, &a) in self.core.iter().enumerate() {
                ms[k] = ms[a as usize];
            }
            for (&b, span) in self.m2l_rows.iter().zip(self.m2l_start.windows(2)) {
                let terms = &self.m2l_pairs[span[0] as usize..span[1] as usize];
                h[b as usize] = terms.iter().fold(0.0, |acc, &(a, sum)| {
                    acc + ms[a as usize] * tensor[sum as usize][0]
                });
            }
            self.fill_and_add(h, &mut dst_l[c * nt..(c + 1) * nt]);
        }
        tensor_out.clear();
        tensor_out.extend(tensor.iter().map(|row| row[0]));
    }

    /// Coefficients per channel of a source form: the `α_z <= 1` core,
    /// `(p+1)²` of them (49 at p = 6, of 84).
    #[inline]
    pub fn form_len(&self) -> usize {
        self.core.len()
    }

    /// Turn a multipole (`channels` stacked, stride [`Self::nterms`]) about
    /// a cell of half-width `half_width` into the *source form*
    /// [`Self::m2l_batch`] reads (`channels` stacked, stride
    /// [`Self::form_len`]): `(−1)^{|α|} M_α / w^{|α|}`, folded onto the
    /// `α_z <= 1` core as [`Self::m2l`] folds it per call, rounded to `f32`.
    /// `M_α / w^{|α|}` is the moment of the cell's strengths about its
    /// center in units of its half-width, O(1) per unit strength at any
    /// depth. `scratch` holds one channel in `f64`.
    pub fn source_form(
        &self,
        m: &[f64],
        half_width: f64,
        channels: usize,
        form: &mut [f32],
        scratch: &mut Vec<f64>,
    ) {
        let (nt, nc) = (self.set.len(), self.core.len());
        debug_assert_eq!(m.len(), channels * nt);
        debug_assert_eq!(form.len(), channels * nc);
        scratch.resize(nt, 0.0);
        let step = -1.0 / half_width;
        for c in 0..channels {
            let src = &m[c * nt..(c + 1) * nt];
            let mut f = 1.0; // (−1/w)^n
            for n in 0..=self.set.order() {
                for a in self.set.order_range(n) {
                    scratch[a] = src[a] * f;
                }
                f *= step;
            }
            for &[g, x, y] in &self.harmonic {
                let v = scratch[g as usize];
                scratch[x as usize] -= v;
                scratch[y as usize] -= v;
            }
            for (out, &a) in form[c * nc..(c + 1) * nc].iter_mut().zip(&self.core) {
                *out = scratch[a as usize] as f32;
            }
        }
    }

    /// Multipole-to-local from up to [`M2L_LANES`] sources into one target
    /// of half-width `half_width`, evaluated side by side in `f32` lanes,
    /// accumulated into the `f64` local `dst_l` (`channels` stacked, stride
    /// [`Self::nterms`]).
    ///
    /// Everything in the lanes is in cell units, so it stays in `f32` range
    /// at any depth, any level gap between source and target and any scale
    /// of the input. Each lane's unit is the larger of its two half-widths,
    /// `w = max(w_s, w_t)`: the tensor is run at `d = r / w`, where
    /// `∂^γ(1/r) = w^{−(|γ|+1)} ∂^γ(1/|d|)` and `|d|` is bounded below by
    /// the acceptance criterion; the lane's source form (moments in units of
    /// `w_s`) is scaled by `(w_s / w)^{|α|} <= 1`; so
    /// `L_β = w_t^{−(|β|+1)} Σ_lanes (w_t/w)^{|β|+1} Σ_α S_α (w_s/w)^{|α|}
    /// D_{α+β}(d)`. The α sum runs in `f32` per lane and is scaled by the
    /// lane's `(w_t/w)^{|β|+1} <= 1`; the lanes are summed in `f64` in lane
    /// order and scaled by `w_t^{−(|β|+1)}`; the `β_z >= 2` locals are
    /// filled from the core as in [`Self::m2l`], and the result is added
    /// in. Both width ratios are exact powers of two at most 1. Where a
    /// power of `w_s / w` leaves `f32`'s normal range, the terms it scales
    /// are that far below the lane's terms of order 0 and are rounded away
    /// or flushed to zero, never to infinity. The power of `w_t / w` scales
    /// a whole lane sum, so it is kept above 2^−96: a batch with a source
    /// `96 / (p+1)` or more levels above the target runs one source at a
    /// time, each scaled from its own unit in `f64`.
    ///
    /// A lane's `f32` sums depend on its own source and the target only,
    /// and a short batch is padded with zero lanes, which add exactly
    /// `+0.0`: `k` sources give the same bits as those `k` followed by
    /// explicit zero-form sources that keep the batch whole, and feeding a
    /// list through in `chunks(M2L_LANES)` makes the list's order alone fix
    /// the result.
    pub fn m2l_batch(
        &self,
        src: &[M2lSource<'_>],
        half_width: f64,
        dst_l: &mut [f64],
        channels: usize,
        scratch: &mut M2lScratch,
    ) {
        const L: usize = M2L_LANES;
        let (nt, nc, p) = (self.set.len(), self.core.len(), self.set.order());
        let live = src.len();
        assert!((1..=L).contains(&live));
        debug_assert!(src.iter().all(|s| s.form.len() == channels * nc));
        debug_assert_eq!(dst_l.len(), channels * nt);

        // Padding lanes repeat the last source (any non-singular
        // displacement does: their forms are zero).
        let lane = |i: usize| &src[i.min(live - 1)];
        let unit: [f64; L] = std::array::from_fn(|i| lane(i).half_width.max(half_width));
        // The lanes' sums are brought to the target's unit in f32, by
        // (w_t / w)^(n+1) <= 1. Below `SHRINK_F32_MIN` that would cost a
        // small sum its digits, so the sources go through one at a time,
        // each kept in its own unit (its power is then 1).
        let q_t = unit.map(|w| half_width / w);
        let narrow = q_t.iter().all(|&q| q.powi(p as i32 + 1) >= SHRINK_F32_MIN);
        if !narrow && live > 1 {
            for one in src.chunks(1) {
                self.m2l_batch(one, half_width, dst_l, channels, scratch);
            }
            return;
        }
        let (out_unit, q_t) = if narrow {
            (half_width, q_t)
        } else {
            (unit[0], [1.0; L])
        };

        let M2lScratch {
            table,
            ms,
            ratio,
            shrink,
            scale,
            h,
            zeros,
        } = scratch;
        table.resize(self.tensor.table_rows(), [0.0; L]);
        ms.resize(nc, [0.0; L]);
        ratio.resize(p + 1, [0.0; L]);
        shrink.resize(p + 1, [0.0; L]);
        h.resize(nt, 0.0);
        let d = [0, 1, 2].map(|axis| {
            std::array::from_fn(|i| {
                let r = lane(i).r;
                ([r.x, r.y, r.z][axis] / unit[i]) as f32
            })
        });
        self.tensor.run(&d, table);
        // Width ratios of the tree's cells are exact powers of two.
        let q_s: [f32; L] = std::array::from_fn(|i| (lane(i).half_width / unit[i]) as f32);
        ratio[0] = [1.0; L];
        shrink[0] = q_t.map(|q| q as f32);
        for n in 1..=p {
            ratio[n] = std::array::from_fn(|i| ratio[n - 1][i] * q_s[i]);
            shrink[n] = std::array::from_fn(|i| shrink[n - 1][i] * shrink[0][i]);
        }
        scale.clear();
        let inv_w = 1.0 / out_unit;
        scale.extend((0..=p).scan(1.0, |f, _| {
            *f *= inv_w;
            Some(*f)
        }));

        zeros.resize(nc, 0.0);
        for c in 0..channels {
            let forms: [&[f32]; L] = std::array::from_fn(|i| match src.get(i) {
                Some(s) => &s.form[c * nc..(c + 1) * nc],
                None => &zeros[..],
            });
            for (k, (row, &n)) in ms.iter_mut().zip(&self.core_order).enumerate() {
                let ratio = &ratio[n as usize];
                *row = std::array::from_fn(|i| forms[i][k] * ratio[i]);
            }
            for (&b, span) in self.m2l_rows.iter().zip(self.m2l_start.windows(2)) {
                let mut acc = [0.0f32; L];
                for &(a, sum) in &self.m2l_pairs[span[0] as usize..span[1] as usize] {
                    let (m, t) = (&ms[a as usize], &table[sum as usize]);
                    for i in 0..L {
                        acc[i] += m[i] * t[i];
                    }
                }
                let n = self.set.total_order(b as usize);
                let shrink = &shrink[n];
                for i in 0..L {
                    acc[i] *= shrink[i];
                }
                let lanes = acc.iter().fold(0.0, |sum, &v| sum + f64::from(v));
                h[b as usize] = lanes * scale[n];
            }
            self.fill_and_add(h, &mut dst_l[c * nt..(c + 1) * nt]);
        }
    }

    /// Fill the `β_z >= 2` locals of one channel's contribution `h` from
    /// its core, lowest `β_z` first, and add all of `h` into `dst`.
    fn fill_and_add(&self, h: &mut [f64], dst: &mut [f64]) {
        for &[g, x, y] in self.harmonic.iter().rev() {
            h[g as usize] = -(h[x as usize] + h[y as usize]);
        }
        for (out, v) in dst.iter_mut().zip(&*h) {
            *out += v;
        }
    }

    /// `(−1)^{|α|}` lookup (public for kernels that assemble their own
    /// field evaluations, e.g. tests).
    #[inline]
    pub fn sign(&self, idx: usize) -> f64 {
        self.sign[idx]
    }

    // ---- flop accounting (used by the observational cost model to seed
    // virtual-hardware work sizes; 2 flops per multiply-add) ----

    /// Flops for one M2M or L2L translation of `channels` expansions.
    pub fn translate_flops(&self, channels: usize) -> f64 {
        (2 * self.sub_triples.len() * channels + 2 * self.set.len()) as f64
    }

    /// Flops for one M2L: tensor evaluation (shared) plus the per-channel
    /// contraction, counted as the full `|α| + |β| <= p` one (924 terms at
    /// p = 6). The virtual clock is seeded from this, so it does not follow
    /// how few of those terms the host kernel contracts.
    pub fn m2l_flops(&self, channels: usize) -> f64 {
        let p = self.set.order();
        let tensor = 4 * (p + 1) * self.set.len();
        let terms: usize = (0..=p)
            .map(|n| self.set.order_range(n).len() * nterms(p - n))
            .sum();
        (tensor + 3 * terms * channels) as f64
    }

    /// Contraction terms per channel one M2L computes (532 at p = 6).
    pub fn m2l_terms(&self) -> usize {
        self.m2l_pairs.len()
    }

    /// Multipoles folded onto, and locals filled from, the contracted core
    /// per channel (the `γ_z >= 2` indices; 35 at p = 6).
    pub fn m2l_folds(&self) -> usize {
        self.harmonic.len()
    }

    /// Flops for P2M / L2P per body per channel-coefficient table.
    pub fn per_body_flops(&self, channels: usize) -> f64 {
        (2 * self.set.len() * (channels + 1)) as f64
    }
}

/// `d[axis][lane]` of `L` displacements.
fn lanes_of<const L: usize>(r: &[Vec3; L]) -> [[f64; L]; 3] {
    [r.map(|v| v.x), r.map(|v| v.y), r.map(|v| v.z)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate the field Φ(x) = Σ_α M_α (−1)^{|α|} ∂^α(1/r)(x − c) of a
    /// multipole expansion directly (test helper).
    fn eval_multipole(ops: &ExpansionOps, m: &[f64], center: Vec3, x: Vec3) -> f64 {
        let mut scratch = DerivScratch::default();
        let t = ops.deriv_tensor(&[x - center], &mut scratch);
        (0..ops.nterms())
            .map(|a| ops.sign(a) * m[a] * t[a][0])
            .sum()
    }

    /// Evaluate a local expansion Φ(x) = Σ_β L_β (x−c)^β/β! (test helper).
    fn eval_local(ops: &ExpansionOps, l: &[f64], center: Vec3, x: Vec3) -> f64 {
        let mut pow = vec![0.0; ops.nterms()];
        power_series(x - center, ops.set(), &mut pow);
        (0..ops.nterms()).map(|b| l[b] * pow[b]).sum()
    }

    /// P2M for unit charges (test helper): M_α = Σ q (y−c)^α/α!.
    fn p2m_charges(ops: &ExpansionOps, center: Vec3, srcs: &[(Vec3, f64)]) -> Vec<f64> {
        let mut m = vec![0.0; ops.nterms()];
        let mut pow = vec![0.0; ops.nterms()];
        for &(y, q) in srcs {
            power_series(y - center, ops.set(), &mut pow);
            for i in 0..ops.nterms() {
                m[i] += q * pow[i];
            }
        }
        m
    }

    fn direct_potential(srcs: &[(Vec3, f64)], x: Vec3) -> f64 {
        srcs.iter().map(|&(y, q)| q / (x - y).norm()).sum()
    }

    fn test_cluster() -> Vec<(Vec3, f64)> {
        vec![
            (Vec3::new(0.1, 0.2, -0.1), 1.0),
            (Vec3::new(-0.2, 0.1, 0.15), 2.0),
            (Vec3::new(0.05, -0.25, 0.2), 0.5),
            (Vec3::new(-0.1, -0.1, -0.2), 1.5),
        ]
    }

    #[test]
    fn multipole_approximates_potential() {
        let srcs = test_cluster();
        let x = Vec3::new(4.0, 3.0, 5.0);
        let exact = direct_potential(&srcs, x);
        let mut last = f64::INFINITY;
        for p in [2usize, 4, 6, 8] {
            let ops = ExpansionOps::new(p);
            let m = p2m_charges(&ops, Vec3::ZERO, &srcs);
            let phi = eval_multipole(&ops, &m, Vec3::ZERO, x);
            let err = (phi - exact).abs() / exact.abs();
            assert!(
                err < last,
                "error must shrink with p (p={p}: {err} !< {last})"
            );
            last = err;
        }
        assert!(last < 1e-8, "p=8 relative error {last}");
    }

    #[test]
    fn m2m_preserves_field() {
        let srcs = test_cluster();
        let ops = ExpansionOps::new(8);
        let child_center = Vec3::new(0.05, -0.05, 0.0);
        let parent_center = Vec3::new(0.3, 0.3, 0.3);
        let x = Vec3::new(-5.0, 4.0, 3.0);

        let m_child = p2m_charges(&ops, child_center, &srcs);
        let mut m_parent = vec![0.0; ops.nterms()];
        let mut pow = Vec::new();
        ops.m2m(
            &m_child,
            child_center - parent_center,
            &mut m_parent,
            1,
            &mut pow,
        );

        let phi_child = eval_multipole(&ops, &m_child, child_center, x);
        let phi_parent = eval_multipole(&ops, &m_parent, parent_center, x);
        // M2M is exact on the retained coefficients up to truncation of the
        // parent expansion; both should approximate the same potential.
        let exact = direct_potential(&srcs, x);
        assert!((phi_child - exact).abs() / exact.abs() < 1e-8);
        assert!((phi_parent - exact).abs() / exact.abs() < 1e-6);
    }

    #[test]
    fn m2l_then_l2l_matches_direct() {
        let srcs = test_cluster();
        let ops = ExpansionOps::new(10);
        let src_center = Vec3::ZERO;
        let local_center = Vec3::new(6.0, 0.0, 0.0);
        let child_center = Vec3::new(6.3, 0.2, -0.2);
        let x = Vec3::new(6.4, 0.3, -0.3);

        let m = p2m_charges(&ops, src_center, &srcs);
        let mut l = vec![0.0; ops.nterms()];
        let mut ds = DerivScratch::default();
        let mut tens = Vec::new();
        ops.m2l(&m, local_center - src_center, &mut l, 1, &mut ds, &mut tens);

        let exact = direct_potential(&srcs, x);
        let phi_l = eval_local(&ops, &l, local_center, x);
        assert!(
            (phi_l - exact).abs() / exact.abs() < 1e-6,
            "M2L field error: {} vs {}",
            phi_l,
            exact
        );

        let mut l_child = vec![0.0; ops.nterms()];
        let mut pow = Vec::new();
        ops.l2l(&l, child_center - local_center, &mut l_child, 1, &mut pow);
        let phi_lc = eval_local(&ops, &l_child, child_center, x);
        // L2L is an exact Taylor shift of the truncated polynomial only when
        // the shifted polynomial is re-expanded completely; with equal orders
        // the tail is dropped, so allow a slightly looser tolerance.
        assert!(
            (phi_lc - exact).abs() / exact.abs() < 1e-4,
            "L2L field error: {} vs {}",
            phi_lc,
            exact
        );
    }

    #[test]
    fn multichannel_matches_repeated_single_channel() {
        let ops = ExpansionOps::new(4);
        let nt = ops.nterms();
        let srcs = test_cluster();
        let m1 = p2m_charges(&ops, Vec3::ZERO, &srcs);
        // Two channels: the same expansion twice.
        let mut m2 = vec![0.0; 2 * nt];
        m2[..nt].copy_from_slice(&m1);
        m2[nt..].copy_from_slice(&m1);

        let t = Vec3::new(0.4, -0.3, 0.2);
        let mut out1 = vec![0.0; nt];
        let mut out2 = vec![0.0; 2 * nt];
        let mut pow = Vec::new();
        ops.m2m(&m1, t, &mut out1, 1, &mut pow);
        ops.m2m(&m2, t, &mut out2, 2, &mut pow);
        for i in 0..nt {
            assert_eq!(out1[i], out2[i]);
            assert_eq!(out1[i], out2[nt + i]);
        }

        let r = Vec3::new(5.0, 1.0, 0.5);
        let mut l1 = vec![0.0; nt];
        let mut l2 = vec![0.0; 2 * nt];
        let mut ds = DerivScratch::default();
        let mut tens = Vec::new();
        ops.m2l(&m1, r, &mut l1, 1, &mut ds, &mut tens);
        ops.m2l(&m2, r, &mut l2, 2, &mut ds, &mut tens);
        for i in 0..nt {
            assert_eq!(l1[i], l2[i]);
            assert_eq!(l1[i], l2[nt + i]);
        }
    }

    #[test]
    fn flop_counts_are_positive_and_monotone() {
        let lo = ExpansionOps::new(2);
        let hi = ExpansionOps::new(6);
        assert!(lo.m2l_flops(1) > 0.0);
        assert!(hi.m2l_flops(1) > lo.m2l_flops(1));
        assert!(hi.translate_flops(1) > lo.translate_flops(1));
        assert!(hi.m2l_flops(7) > hi.m2l_flops(1));
        // Sharing the tensor: 7 channels must cost less than 7x one channel.
        assert!(hi.m2l_flops(7) < 7.0 * hi.m2l_flops(1));
    }
}
