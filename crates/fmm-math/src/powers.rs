use crate::multiindex::MultiIndexSet;
use geom::Vec3;

/// Fill `out[idx] = dx^α / α!` for every multi-index `α` in `set`.
///
/// This is the shared building block of P2M (moments of a point source),
/// M2M/L2L (binomial translation weights) and L2P (Taylor monomials at the
/// evaluation point). Computed by a one-term recurrence
/// `v_α = v_{α−e_d} · dx_d / α_d`, so the whole table costs two flops per
/// entry.
#[inline]
pub fn power_series(dx: Vec3, set: &MultiIndexSet, out: &mut [f64]) {
    debug_assert_eq!(out.len(), set.len());
    out[0] = 1.0;
    let d = [dx.x, dx.y, dx.z];
    for idx in 1..set.len() {
        // peel() picks the first axis with a nonzero exponent.
        let (axis, lower) = set.peel(idx).expect("nonzero index peels");
        let (i, j, k) = set.tuple(idx);
        let e = [i, j, k][axis] as f64;
        out[idx] = out[lower] * d[axis] / e;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_direct_evaluation() {
        let set = MultiIndexSet::new(6);
        let dx = Vec3::new(0.3, -1.7, 2.2);
        let mut out = vec![0.0; set.len()];
        power_series(dx, &set, &mut out);
        for (idx, (i, j, k)) in set.iter() {
            let direct = dx.x.powi(i as i32)
                * dx.y.powi(j as i32)
                * dx.z.powi(k as i32)
                * set.inv_factorial(idx);
            assert!(
                (out[idx] - direct).abs() <= 1e-12 * direct.abs().max(1.0),
                "mismatch at ({i},{j},{k}): {} vs {}",
                out[idx],
                direct
            );
        }
    }

    #[test]
    fn zero_vector_gives_delta() {
        let set = MultiIndexSet::new(4);
        let mut out = vec![0.0; set.len()];
        power_series(Vec3::ZERO, &set, &mut out);
        assert_eq!(out[0], 1.0);
        for &v in &out[1..] {
            assert_eq!(v, 0.0);
        }
    }

    #[test]
    fn exponential_identity() {
        // Σ_α dx^α/α! over *all* orders = exp(x)exp(y)exp(z); the truncated
        // sum must approach it as p grows.
        let dx = Vec3::new(0.1, 0.2, -0.15);
        let exact = (dx.x + dx.y + dx.z).exp();
        let mut last_err = f64::INFINITY;
        for p in [2usize, 4, 8] {
            let set = MultiIndexSet::new(p);
            let mut out = vec![0.0; set.len()];
            power_series(dx, &set, &mut out);
            let sum: f64 = out.iter().sum();
            let err = (sum - exact).abs();
            assert!(err < last_err, "error must shrink with order");
            last_err = err;
        }
        assert!(last_err < 1e-9);
    }
}
