use crate::multiindex::MultiIndexSet;
use crate::powers::power_series;
use crate::tensor::{deriv_1_over_r, DerivScratch};
use geom::Vec3;

/// Precomputed translation plans for expansions of a given order.
///
/// Holds the [`MultiIndexSet`] plus the flattened index triples used by the
/// kernel-independent translations:
///
/// * `sub_triples`: all `(α, β, α−β)` with `β <= α` component-wise — the
///   binomial stencil shared by M2M and L2L;
/// * `m2l_triples`: all `(α, β, α+β)` with `|α| + |β| <= p` — the
///   total-order-truncated M2L contraction (the standard cartesian-FMM
///   truncation; error stays `O((d/R)^{p+1})`).
///
/// One `ExpansionOps` is built per solver and shared read-only by all worker
/// threads; scratch buffers ([`DerivScratch`], power tables) live per thread.
#[derive(Clone, Debug)]
pub struct ExpansionOps {
    set: MultiIndexSet,
    sub_triples: Vec<(u32, u32, u32)>,
    m2l_triples: Vec<(u32, u32, u32)>,
    /// `(−1)^{|α|}` per flat index, used in the multipole-to-field formula.
    sign: Vec<f64>,
    /// Per axis `d`, every `(β, β − e_d)` with `β_d > 0`, ascending in `β`.
    peel: [Vec<(u32, u32)>; 3],
}

impl ExpansionOps {
    pub fn new(order: usize) -> Self {
        let set = MultiIndexSet::new(order);
        let mut sub_triples = Vec::new();
        let mut m2l_triples = Vec::new();
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
            // |α| + |β| <= p.
            let na = ai + aj + ak;
            for b in 0..set.len() {
                if na + set.total_order(b) > order {
                    continue;
                }
                let (bi, bj, bk) = set.tuple(b);
                let sum = set.idx(ai + bi, aj + bj, ak + bk);
                m2l_triples.push((a as u32, b as u32, sum as u32));
            }
        }
        let sign = (0..set.len())
            .map(|i| {
                if set.total_order(i).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        ExpansionOps {
            set,
            sub_triples,
            m2l_triples,
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

    /// Multipole-to-local: `L_β += Σ_α (−1)^{|α|} M_α · ∂^{α+β}(1/r)(r)` with
    /// `r = c_local − c_multipole`, truncated at `|α|+|β| <= p`.
    ///
    /// One derivative tensor evaluation is shared across all `channels` —
    /// which is exactly why the 7-channel Stokeslet kernel costs ~4× (not 7×)
    /// the 1-channel gravity M2L.
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
        tensor_out.resize(nt, 0.0);
        deriv_1_over_r(r, &self.set, deriv_scratch, tensor_out);
        for c in 0..channels {
            let src = &src_m[c * nt..(c + 1) * nt];
            let dst = &mut dst_l[c * nt..(c + 1) * nt];
            for &(a, b, sum) in &self.m2l_triples {
                dst[b as usize] +=
                    self.sign[a as usize] * src[a as usize] * tensor_out[sum as usize];
            }
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
    /// contraction.
    pub fn m2l_flops(&self, channels: usize) -> f64 {
        let tensor = 4 * (self.set.order() + 1) * self.set.len();
        (tensor + 3 * self.m2l_triples.len() * channels) as f64
    }

    /// Flops for P2M / L2P per body per channel-coefficient table.
    pub fn per_body_flops(&self, channels: usize) -> f64 {
        (2 * self.set.len() * (channels + 1)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluate the field Φ(x) = Σ_α M_α (−1)^{|α|} ∂^α(1/r)(x − c) of a
    /// multipole expansion directly (test helper).
    fn eval_multipole(ops: &ExpansionOps, m: &[f64], center: Vec3, x: Vec3) -> f64 {
        let mut scratch = DerivScratch::default();
        let mut t = vec![0.0; ops.nterms()];
        deriv_1_over_r(x - center, ops.set(), &mut scratch, &mut t);
        (0..ops.nterms()).map(|a| ops.sign(a) * m[a] * t[a]).sum()
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
