use crate::multiindex::{nterms, MultiIndexSet};

/// Reusable scratch of the `f64` tensor and the one-source `f64` M2L
/// oracle ([`ExpansionOps::deriv_tensor`](crate::ExpansionOps::deriv_tensor),
/// [`ExpansionOps::m2l`](crate::ExpansionOps::m2l)): the auxiliary table of
/// the derivative-tensor recurrence (whose spent auxiliary rows then hold
/// the per-`β` local contribution) and the sign-folded source multipole,
/// both as rows of `L` lanes (sized on first use, then reused).
#[derive(Clone, Debug, Default)]
pub struct DerivScratch {
    table: Vec<f64>,
    ms: Vec<f64>,
}

impl DerivScratch {
    /// The two buffers as `table_rows` / `ms_rows` rows of `L` lanes.
    pub(crate) fn lanes<const L: usize>(
        &mut self,
        table_rows: usize,
        ms_rows: usize,
    ) -> (&mut [[f64; L]], &mut [[f64; L]]) {
        self.table.resize(table_rows * L, 0.0);
        self.ms.resize(ms_rows * L, 0.0);
        (
            self.table.as_chunks_mut::<L>().0,
            self.ms.as_chunks_mut::<L>().0,
        )
    }
}

/// One step of the flattened recurrence:
/// `t[dst] = d[axis] · t[lower] + coef · t[lower2]`.
#[derive(Clone, Copy, Debug)]
struct Step {
    dst: u16,
    lower: u16,
    /// Row of the second term; any valid row when `coef` is 0.
    lower2: u16,
    axis: u8,
    /// `γ_d − 1`: a small integer, exact in either lane precision.
    coef: f32,
}

/// The derivative tensor `∂^γ (1/|v|)`, `|γ| <= p`, as a straight-line
/// program.
///
/// It is the McMurchie–Davidson auxiliary family
/// `R^m_0 = (−1)^m (2m−1)!! / r^{2m+1}` with the one-step recurrence
/// `R^m_{γ+e_d} = γ_d · R^{m+1}_{γ−e_d} + v_d · R^{m+1}_γ` (O(1) per entry,
/// no symbolic polynomials, no cancellation-prone finite differences;
/// `∂^γ(1/r) = R^0_γ`), with every index resolved at construction: one
/// [`Step`] per entry, in dependency order. Auxiliary level `m` only ever
/// feeds orders `<= p − m`, so its row block is the graded prefix of that
/// length — `Σ_k nterms(k) = C(p+4, 4)` rows in all (210 at p = 6), level 0
/// first, so the finished tensor is the table's first `nterms(p)` rows.
#[derive(Clone, Debug)]
pub(crate) struct TensorProgram {
    /// First table row of each auxiliary level `m` (`order + 1` entries).
    level_start: Vec<u16>,
    steps: Vec<Step>,
    table_rows: usize,
}

impl TensorProgram {
    pub(crate) fn new(set: &MultiIndexSet) -> Self {
        let p = set.order();
        let mut level_start = Vec::with_capacity(p + 1);
        let mut table_rows = 0usize;
        for m in 0..=p {
            level_start.push(table_rows as u16);
            table_rows += nterms(p - m);
        }
        // MultiIndexSet caps the order at MAX_ORDER: C(p+4, 4) rows fit a u16.
        assert!(table_rows <= usize::from(u16::MAX) + 1);
        let mut steps = Vec::new();
        // Total order n from orders n−1 and n−2 at auxiliary level m+1.
        for n in 1..=p {
            for idx in set.order_range(n) {
                let (axis, lower) = set.peel(idx).expect("order >= 1 peels");
                let (i, j, k) = set.tuple(idx);
                let mut tt = [i, j, k];
                let gd = tt[axis]; // exponent being incremented, >= 1
                let lower2 = if gd >= 2 {
                    tt[axis] -= 2;
                    set.idx(tt[0], tt[1], tt[2])
                } else {
                    lower
                };
                for m in 0..=(p - n) {
                    let hi = level_start[m + 1] as usize;
                    steps.push(Step {
                        dst: level_start[m] + idx as u16,
                        lower: (hi + lower) as u16,
                        lower2: (hi + lower2) as u16,
                        axis: axis as u8,
                        coef: (gd - 1) as f32,
                    });
                }
            }
        }
        TensorProgram {
            level_start,
            steps,
            table_rows,
        }
    }

    /// Rows the table needs.
    pub(crate) fn table_rows(&self) -> usize {
        self.table_rows
    }

    /// Run the program at `L` displacements at once (`d[axis][lane]`),
    /// filling `table`; rows `..nterms(p)` are then `∂^γ(1/|v|)` per lane.
    /// `T` is the lane precision: `f64` for the one-source oracle and the
    /// public tensor, `f32` for the far field's batches.
    ///
    /// Panics in debug builds when a displacement is the zero vector (the
    /// tensor is singular there); callers guarantee well-separatedness.
    pub(crate) fn run<T: Lane, const L: usize>(&self, d: &[[T; L]; 3], table: &mut [[T; L]]) {
        assert_eq!(table.len(), self.table_rows);
        // Base cases R^m_000 = (−1)^m (2m−1)!! / r^(2m+1), in f64 and
        // rounded whole: (2m−1)!! alone would leave f32 range from m = 29.
        let mut inv_r2 = [0.0; L];
        let mut base = [0.0; L];
        for lane in 0..L {
            let [x, y, z] = [0, 1, 2].map(|axis| d[axis][lane].to_f64());
            let r2 = x * x + y * y + z * z;
            debug_assert!(r2 > 0.0, "derivative tensor evaluated at the origin");
            inv_r2[lane] = 1.0 / r2;
            base[lane] = inv_r2[lane].sqrt();
        }
        let mut sign_dfact = 1.0; // (−1)^m (2m−1)!!
        for (m, &row) in self.level_start.iter().enumerate() {
            let out = &mut table[row as usize];
            for lane in 0..L {
                out[lane] = T::of(sign_dfact * base[lane]);
                base[lane] *= inv_r2[lane];
            }
            sign_dfact *= -((2 * m + 1) as f64);
        }
        for s in &self.steps {
            let (lo, lo2) = (table[s.lower as usize], table[s.lower2 as usize]);
            let (dx, coef) = (&d[s.axis as usize], T::of(f64::from(s.coef)));
            let out = &mut table[s.dst as usize];
            for lane in 0..L {
                out[lane] = dx[lane] * lo[lane] + coef * lo2[lane];
            }
        }
    }
}

/// A lane value of the tensor program: `f64` or `f32`.
pub(crate) trait Lane:
    Copy + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self>
{
    /// `x` rounded to this precision.
    fn of(x: f64) -> Self;
    fn to_f64(self) -> f64;
}

impl Lane for f64 {
    #[inline]
    fn of(x: f64) -> Self {
        x
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

impl Lane for f32 {
    #[inline]
    fn of(x: f64) -> Self {
        x as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Vec3;

    /// The one-lane instance of the program at `dx`.
    fn tensor_at(dx: Vec3, p: usize) -> (MultiIndexSet, Vec<f64>) {
        let set = MultiIndexSet::new(p);
        let program = TensorProgram::new(&set);
        let mut scratch = DerivScratch::default();
        let (table, _) = scratch.lanes::<1>(program.table_rows(), 0);
        program.run(&[[dx.x], [dx.y], [dx.z]], table);
        let out = table[..set.len()].iter().map(|row| row[0]).collect();
        (set, out)
    }

    #[test]
    fn table_is_compacted_to_graded_prefixes() {
        // Σ_{k<=p} nterms(k) = C(p+4, 4) rows, one step per non-base row.
        for (p, rows) in [(0usize, 1usize), (2, 15), (6, 210), (8, 495)] {
            let program = TensorProgram::new(&MultiIndexSet::new(p));
            assert_eq!(program.table_rows(), rows, "p={p}");
            assert_eq!(program.steps.len(), rows - (p + 1), "p={p}");
        }
    }

    #[test]
    fn low_order_closed_forms() {
        let dx = Vec3::new(1.3, -0.7, 2.1);
        let (x, y, z) = (dx.x, dx.y, dx.z);
        let r = dx.norm();
        let (set, t) = tensor_at(dx, 3);
        let tol = 1e-12;

        assert!((t[set.idx(0, 0, 0)] - 1.0 / r).abs() < tol);
        assert!((t[set.idx(1, 0, 0)] - (-x / r.powi(3))).abs() < tol);
        assert!((t[set.idx(0, 1, 0)] - (-y / r.powi(3))).abs() < tol);
        assert!((t[set.idx(0, 0, 1)] - (-z / r.powi(3))).abs() < tol);
        // Second derivatives: (3 x_i x_j - δ_ij r²) / r⁵
        assert!((t[set.idx(2, 0, 0)] - (3.0 * x * x - r * r) / r.powi(5)).abs() < tol);
        assert!((t[set.idx(0, 2, 0)] - (3.0 * y * y - r * r) / r.powi(5)).abs() < tol);
        assert!((t[set.idx(1, 1, 0)] - 3.0 * x * y / r.powi(5)).abs() < tol);
        assert!((t[set.idx(1, 0, 1)] - 3.0 * x * z / r.powi(5)).abs() < tol);
        // Third derivative ∂x∂y∂z (1/r) = -15 xyz / r^7
        assert!((t[set.idx(1, 1, 1)] - (-15.0) * x * y * z / r.powi(7)).abs() < tol);
    }

    #[test]
    fn harmonicity_laplacian_vanishes() {
        // 1/r is harmonic away from the origin, so for every γ with
        // |γ| <= p-2: Σ_d ∂^(γ+2e_d)(1/r) = 0.
        let dx = Vec3::new(0.9, 1.4, -2.3);
        let p = 8;
        let (set, t) = tensor_at(dx, p);
        for (idx, (i, j, k)) in set.iter() {
            if set.total_order(idx) + 2 > p {
                continue;
            }
            let lap = t[set.idx(i + 2, j, k)] + t[set.idx(i, j + 2, k)] + t[set.idx(i, j, k + 2)];
            // Scale tolerance by the magnitude of the individual terms.
            let scale = t[set.idx(i + 2, j, k)]
                .abs()
                .max(t[set.idx(i, j + 2, k)].abs())
                .max(t[set.idx(i, j, k + 2)].abs())
                .max(1e-300);
            assert!(
                (lap / scale).abs() < 1e-10,
                "Laplacian of ∂^({i},{j},{k})(1/r) = {lap} (scale {scale})"
            );
        }
    }

    #[test]
    fn matches_finite_differences() {
        // Central finite differences of lower-order tensor entries.
        let dx = Vec3::new(1.1, -0.4, 0.8);
        let h = 1e-5;
        let p = 5;
        let (set, t) = tensor_at(dx, p);
        for (idx, (i, j, k)) in set.iter() {
            if set.total_order(idx) + 1 > p {
                continue;
            }
            for (axis, step) in [
                Vec3::new(h, 0.0, 0.0),
                Vec3::new(0.0, h, 0.0),
                Vec3::new(0.0, 0.0, h),
            ]
            .into_iter()
            .enumerate()
            {
                let (_, tp) = tensor_at(dx + step, p);
                let (_, tm) = tensor_at(dx - step, p);
                let fd = (tp[idx] - tm[idx]) / (2.0 * h);
                let mut tt = [i, j, k];
                tt[axis] += 1;
                let exact = t[set.idx(tt[0], tt[1], tt[2])];
                let scale = exact.abs().max(1.0);
                assert!(
                    (fd - exact).abs() / scale < 1e-5,
                    "∂_{axis} of ({i},{j},{k}): fd {fd} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn homogeneity_scaling() {
        // ∂^γ(1/r) is homogeneous of degree -(|γ|+1): scaling dx by s scales
        // the entry by s^-(|γ|+1).
        let dx = Vec3::new(0.5, 0.6, -0.7);
        let s = 2.5;
        let (set, t1) = tensor_at(dx, 6);
        let (_, ts) = tensor_at(dx * s, 6);
        for idx in 0..set.len() {
            let n = set.total_order(idx) as i32;
            let expect = t1[idx] * s.powi(-(n + 1));
            assert!(
                (ts[idx] - expect).abs() <= 1e-12 * expect.abs().max(1e-12),
                "homogeneity at idx {idx}"
            );
        }
    }

    #[test]
    fn parity_under_negation() {
        // ∂^γ(1/r) at -dx = (-1)^|γ| times the value at dx.
        let dx = Vec3::new(1.0, 2.0, 3.0);
        let (set, tp) = tensor_at(dx, 6);
        let (_, tn) = tensor_at(-dx, 6);
        for idx in 0..set.len() {
            let sign = if set.total_order(idx) % 2 == 0 {
                1.0
            } else {
                -1.0
            };
            assert!(
                (tn[idx] - sign * tp[idx]).abs() <= 1e-12 * tp[idx].abs().max(1e-12),
                "parity at idx {idx}"
            );
        }
    }
}
