use crate::expansion::ExpansionOps;
use crate::kernel::Kernel;
use crate::powers::power_series;
use crate::tile::{BodyTile, FieldTile, PairRow, SplitPoint, SplitRow, SplitTile};
use geom::Vec3;

/// Number of harmonic channels in the Stokeslet decomposition.
pub const STOKESLET_CHANNELS: usize = 7;

/// The regularized Stokeslet kernel of Cortez et al. (method of regularized
/// Stokeslets), used by the paper's immersed-boundary fluid problem.
///
/// Direct (P2P) form, with `d = x − y`, `r = |d|`, blob parameter ε:
///
/// ```text
/// u(x) = 1/(8πμ) Σ_s [ f_s (r² + 2ε²) + (f_s·d) d ] / (r² + ε²)^{3/2}
/// ```
///
/// Far field: the singular Stokeslet `S_ij = δ_ij/r + d_i d_j/r³` decomposes
/// into seven harmonic 1/r-type potentials —
///
/// ```text
/// u_i(x) = 1/(8πμ) [ C_i(x) + x_i · D(x) − E_i(x) ]
///   C_i = Σ_s f_i / r              (3 charge channels, strengths f_i)
///   D   = Σ_s f·d / r³             (1 dipole channel, moment f)
///   E_i = Σ_s y_i (f·d) / r³       (3 dipole channels, moment f weighted
///                                   by the absolute source coordinate y_i)
/// ```
///
/// so M2M/M2L/L2L reuse the kernel-independent cartesian machinery and one
/// shared derivative tensor per M2L pair. The far field drops the O(ε²/r³)
/// regularization terms — exact in the ε → 0 limit and negligible whenever
/// ε is small against cell separations (the regime the method is used in).
#[derive(Clone, Copy, Debug)]
pub struct StokesletKernel {
    /// Blob/regularization parameter ε.
    pub epsilon: f64,
    /// Dynamic viscosity μ.
    pub mu: f64,
}

impl StokesletKernel {
    pub fn new(epsilon: f64, mu: f64) -> Self {
        assert!(epsilon >= 0.0 && mu > 0.0);
        StokesletKernel { epsilon, mu }
    }

    /// The pair row [`Kernel::p2p_split`] sweeps `src` with.
    pub(crate) fn split_row<'a>(&self, src: BodyTile<'a>) -> StokesletRow<'a> {
        let e2 = self.epsilon * self.epsilon;
        StokesletRow {
            f: [src.channel(0), src.channel(1), src.channel(2)],
            pref: self.prefactor(),
            e2: e2 as f32,
            // As `p2p_tile`: only the singular limit drops its own index.
            skip_own: e2 == 0.0,
        }
    }

    #[inline]
    fn prefactor(&self) -> f64 {
        1.0 / (8.0 * std::f64::consts::PI * self.mu)
    }
}

/// The Stokeslet's split pair row: one source tile's forces, the
/// prefactor they are scaled by, and ε² in f32.
#[derive(Clone, Copy)]
pub(crate) struct StokesletRow<'a> {
    f: [&'a [f64]; 3],
    pref: f64,
    e2: f32,
    skip_own: bool,
}

impl PairRow for StokesletRow<'_> {
    fn skips_own(self) -> bool {
        self.skip_own
    }

    #[inline(always)]
    fn row<const W: usize>(self, t: &mut SplitRow<'_>, s: SplitPoint, j: usize) {
        let [fx, fy, fz] = self.f.map(|f| (f[j] * self.pref) as f32);
        let e2 = self.e2;
        let ux = t.ax.as_chunks_mut::<W>().0;
        let nb = ux.len();
        let [xh, xl, yh, yl, zh, zl] =
            [t.xh, t.xl, t.yh, t.yl, t.zh, t.zl].map(|l| &l.as_chunks::<W>().0[..nb]);
        let (uy, uz) = (
            &mut t.ay.as_chunks_mut::<W>().0[..nb],
            &mut t.az.as_chunks_mut::<W>().0[..nb],
        );
        // `p2p_tile`'s row in f32, one chunk of targets at a time (read
        // whole before it is written, so it vectorises as one register),
        // the separation from both halves.
        for b in 0..nb {
            let (xh, xl, yh, yl, zh, zl) = (xh[b], xl[b], yh[b], yl[b], zh[b], zl[b]);
            let (mut x, mut y, mut z) = (ux[b], uy[b], uz[b]);
            for k in 0..W {
                let dx = (xh[k] - s.xh) + (xl[k] - s.xl);
                let dy = (yh[k] - s.yh) + (yl[k] - s.yl);
                let dz = (zh[k] - s.zh) + (zl[k] - s.zl);
                let r2 = dx * dx + dy * dy + dz * dz;
                let re2 = r2 + e2;
                let inv = 1.0 / (re2 * re2.sqrt());
                let iso = (r2 + 2.0 * e2) * inv;
                let fd = (fx * dx + fy * dy + fz * dz) * inv;
                x[k] += fx * iso + dx * fd;
                y[k] += fy * iso + dy * fd;
                z[k] += fz * iso + dz * fd;
            }
            (ux[b], uy[b], uz[b]) = (x, y, z);
        }
    }
}

impl Default for StokesletKernel {
    fn default() -> Self {
        StokesletKernel {
            epsilon: 1e-3,
            mu: 1.0,
        }
    }
}

impl Kernel for StokesletKernel {
    fn channels(&self) -> usize {
        STOKESLET_CHANNELS
    }

    fn strength_dim(&self) -> usize {
        3
    }

    fn name(&self) -> &'static str {
        "stokeslet"
    }

    fn p2m_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        src: BodyTile<'_>,
        m: &mut [f64],
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(m.len(), STOKESLET_CHANNELS * nt);
        let (fx, fy, fz) = (src.channel(0), src.channel(1), src.channel(2));
        // Power table, then the per-source dipole moments beside it.
        pow_scratch.resize(2 * nt, 0.0);
        let (pow, dip) = pow_scratch.split_at_mut(nt);
        for s in 0..src.len() {
            let y = src.pos(s);
            let f = [fx[s], fy[s], fz[s]];
            power_series(y - center, ops.set(), pow);
            // Dipole moment Σ_d f_d (y−c)^{α−e_d}/(α−e_d)!, axis by axis.
            dip.fill(0.0);
            for (axis, &fd) in f.iter().enumerate() {
                for &(a, lo) in ops.peel(axis) {
                    dip[a as usize] += fd * pow[lo as usize];
                }
            }
            for a in 0..nt {
                let (pw, dp) = (pow[a], dip[a]);
                // Charge channels C_i: plain moments with strength f_i.
                m[a] += f[0] * pw;
                m[nt + a] += f[1] * pw;
                m[2 * nt + a] += f[2] * pw;
                m[3 * nt + a] += dp;
                // Coordinate-weighted dipole channels E_i.
                m[4 * nt + a] += y.x * dp;
                m[5 * nt + a] += y.y * dp;
                m[6 * nt + a] += y.z * dp;
            }
        }
    }

    fn l2p_tile(
        &self,
        ops: &ExpansionOps,
        center: Vec3,
        l: &[f64],
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        pow_scratch: &mut Vec<f64>,
    ) {
        let nt = ops.nterms();
        debug_assert_eq!(l.len(), STOKESLET_CHANNELS * nt);
        debug_assert_eq!(out.len(), tgt.len());
        let pref = self.prefactor();
        pow_scratch.resize(nt, 0.0);
        for i in 0..tgt.len() {
            let x = tgt.pos(i);
            power_series(x - center, ops.set(), &mut pow_scratch[..nt]);
            let mut ch = [0.0f64; STOKESLET_CHANNELS];
            for b in 0..nt {
                let pw = pow_scratch[b];
                for (c, v) in ch.iter_mut().enumerate() {
                    *v += l[c * nt + b] * pw;
                }
            }
            out.x[i] += (ch[0] + x.x * ch[3] - ch[4]) * pref;
            out.y[i] += (ch[1] + x.y * ch[3] - ch[5]) * pref;
            out.z[i] += (ch[2] + x.z * ch[3] - ch[6]) * pref;
        }
    }

    fn p2p_tile(
        &self,
        tgt: BodyTile<'_>,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    ) {
        let n = tgt.len();
        assert_eq!(out.len(), n, "output tile out of sync with targets");
        if self_tile {
            assert_eq!(src.len(), n, "a self tile is one body set");
        }
        let e2 = self.epsilon * self.epsilon;
        let pref = self.prefactor();
        let (tx, ty, tz) = (&tgt.x[..n], &tgt.y[..n], &tgt.z[..n]);
        let (ux, uy, uz) = (&mut out.x[..n], &mut out.y[..n], &mut out.z[..n]);
        let (fx, fy, fz) = (src.channel(0), src.channel(1), src.channel(2));
        // The regularized Stokeslet is finite at r = 0 and the method keeps
        // that self term; only the singular limit ε = 0 drops its own index.
        let skip_own = self_tile && e2 == 0.0;
        for j in 0..src.len() {
            let (sx, sy, sz) = (src.x[j], src.y[j], src.z[j]);
            let (fx, fy, fz) = (fx[j] * pref, fy[j] * pref, fz[j] * pref);
            // Own index: evaluated with the rest of the row (full-width
            // vector loop) and then put back — skipped by index.
            let own = skip_own.then(|| (ux[j], uy[j], uz[j]));
            // One source against every target, element-wise (vectorisable):
            // one `sqrt` and one divide per pair.
            for i in 0..n {
                let dx = tx[i] - sx;
                let dy = ty[i] - sy;
                let dz = tz[i] - sz;
                let r2 = dx * dx + dy * dy + dz * dz;
                let re2 = r2 + e2;
                let inv = 1.0 / (re2 * re2.sqrt());
                let iso = (r2 + 2.0 * e2) * inv;
                let fd = (fx * dx + fy * dy + fz * dz) * inv;
                ux[i] += fx * iso + dx * fd;
                uy[i] += fy * iso + dy * fd;
                uz[i] += fz * iso + dz * fd;
            }
            if let Some((x, y, z)) = own {
                (ux[j], uy[j], uz[j]) = (x, y, z);
            }
        }
    }

    fn p2p_split(
        &self,
        tgt: &mut SplitTile,
        out: &mut FieldTile<'_>,
        src: BodyTile<'_>,
        self_tile: bool,
    ) {
        tgt.sweep(out, src, self_tile, self.split_row(src));
    }

    fn p2p_flops_per_pair(&self) -> f64 {
        // A cost-*model* weight, not an instruction count of `p2p_tile`:
        // ~3 sub, 5 r², 2 add, sqrt+div ≈ 8, dot 5, 2×(3 mul + 3 fma) ≈ 12,
        // scale+add 6 → ≈ 41; noticeably heavier than gravity.
        41.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::DerivScratch;

    fn cluster() -> (Vec<Vec3>, Vec<f64>) {
        let pos = vec![
            Vec3::new(0.1, 0.2, -0.1),
            Vec3::new(-0.2, 0.1, 0.15),
            Vec3::new(0.05, -0.25, 0.2),
        ];
        // Force vectors, one per source.
        let f = vec![1.0, 0.5, -0.2, -0.3, 1.2, 0.4, 0.2, -0.7, 0.9];
        (pos, f)
    }

    #[test]
    fn singular_limit_matches_oseen_tensor() {
        // With ε = 0 the P2P must equal the classical Oseen tensor.
        let k = StokesletKernel::new(0.0, 1.0);
        let x = Vec3::new(1.0, 2.0, 2.0); // r = 3
        let f = Vec3::new(0.0, 0.0, 1.0);
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        k.p2p(
            &[x],
            &mut pot,
            &mut u,
            &[Vec3::ZERO],
            &[f.x, f.y, f.z],
            false,
        );
        let r = 3.0f64;
        let pref = 1.0 / (8.0 * std::f64::consts::PI);
        let expect = Vec3::new(
            pref * (x.x * x.z) / r.powi(3),
            pref * (x.y * x.z) / r.powi(3),
            pref * (1.0 / r + x.z * x.z / r.powi(3)),
        );
        assert!((u[0] - expect).norm() < 1e-15, "{:?} vs {expect:?}", u[0]);
    }

    #[test]
    fn regularization_finite_at_origin() {
        let k = StokesletKernel::new(0.1, 1.0);
        let f = [1.0, 0.0, 0.0];
        let mut pot = [0.0];
        let mut u = [Vec3::ZERO];
        k.p2p(&[Vec3::ZERO], &mut pot, &mut u, &[Vec3::ZERO], &f, false);
        assert!(u[0].is_finite());
        // u = f·2ε²/ε³/(8πμ) = 2/(8πμε)
        let expect = 2.0 / (8.0 * std::f64::consts::PI * 0.1);
        assert!((u[0].x - expect).abs() < 1e-12);
    }

    #[test]
    fn expansion_path_converges_to_direct() {
        let k = StokesletKernel::new(1e-4, 1.0);
        let (spos, f) = cluster();
        let tpos = vec![Vec3::new(4.0, 0.3, -0.2), Vec3::new(4.3, -0.4, 0.2)];

        let mut derr_last = f64::INFINITY;
        for p in [2usize, 4, 6, 8] {
            let ops = ExpansionOps::new(p);
            let nt = ops.nterms();
            let mut pow = Vec::new();
            let mut m = vec![0.0; STOKESLET_CHANNELS * nt];
            k.p2m(&ops, Vec3::ZERO, &spos, &f, &mut m, &mut pow);

            let lc = Vec3::new(4.1, 0.0, 0.0);
            let mut l = vec![0.0; STOKESLET_CHANNELS * nt];
            let mut ds = DerivScratch::default();
            let mut tens = Vec::new();
            ops.m2l(&m, lc, &mut l, STOKESLET_CHANNELS, &mut ds, &mut tens);

            let mut pot = vec![0.0; tpos.len()];
            let mut u = vec![Vec3::ZERO; tpos.len()];
            k.l2p(&ops, lc, &l, &tpos, &mut pot, &mut u, &mut pow);

            let mut dpot = vec![0.0; tpos.len()];
            let mut du = vec![Vec3::ZERO; tpos.len()];
            k.p2p(&tpos, &mut dpot, &mut du, &spos, &f, false);

            let err: f64 = (0..tpos.len())
                .map(|i| (u[i] - du[i]).norm() / du[i].norm())
                .fold(0.0, f64::max);
            assert!(err < derr_last, "p={p}: err {err} !< {derr_last}");
            derr_last = err;
        }
        assert!(derr_last < 1e-6, "p=8 velocity error {derr_last}");
    }

    #[test]
    fn m2m_preserves_stokes_far_field() {
        let k = StokesletKernel::new(1e-4, 1.0);
        let (spos, f) = cluster();
        let tpos = vec![Vec3::new(-5.0, 1.0, 2.0)];
        let ops = ExpansionOps::new(8);
        let nt = ops.nterms();

        let child_c = Vec3::new(0.0, 0.05, 0.05);
        let parent_c = Vec3::new(0.25, 0.25, 0.25);
        let mut pow = Vec::new();
        let mut mc = vec![0.0; STOKESLET_CHANNELS * nt];
        k.p2m(&ops, child_c, &spos, &f, &mut mc, &mut pow);
        let mut mp = vec![0.0; STOKESLET_CHANNELS * nt];
        ops.m2m(
            &mc,
            child_c - parent_c,
            &mut mp,
            STOKESLET_CHANNELS,
            &mut pow,
        );

        // M2L from parent, evaluate at target.
        let lc = tpos[0] + Vec3::new(-0.05, 0.02, 0.0);
        let mut l = vec![0.0; STOKESLET_CHANNELS * nt];
        let mut ds = DerivScratch::default();
        let mut tens = Vec::new();
        ops.m2l(
            &mp,
            lc - parent_c,
            &mut l,
            STOKESLET_CHANNELS,
            &mut ds,
            &mut tens,
        );
        let mut pot = vec![0.0];
        let mut u = vec![Vec3::ZERO];
        k.l2p(&ops, lc, &l, &tpos, &mut pot, &mut u, &mut pow);

        let mut dpot = vec![0.0];
        let mut du = vec![Vec3::ZERO];
        k.p2p(&tpos, &mut dpot, &mut du, &spos, &f, false);
        let err = (u[0] - du[0]).norm() / du[0].norm();
        assert!(err < 1e-5, "M2M path error {err}");
    }

    #[test]
    fn m2l_cost_ratio_vs_gravity_matches_paper_regime() {
        // Paper §IX.B: Stokes M2L ≈ 4× gravity M2L. With a shared tensor the
        // flop model should land in the 3–7× band.
        let ops = ExpansionOps::new(6);
        let ratio = ops.m2l_flops(STOKESLET_CHANNELS) / ops.m2l_flops(1);
        assert!((3.0..7.0).contains(&ratio), "M2L flop ratio {ratio}");
    }
}
