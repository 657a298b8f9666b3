/// The highest expansion order [`MultiIndexSet::new`] — and so every
/// expansion table built on it — accepts: the highest at which the
/// single-precision far field ([`crate::ExpansionOps::m2l_batch`]) is
/// verified against the `f64` oracle. Above it the derivative-tensor
/// recurrence's `f32` rounding, which grows about 2× per order, outgrows
/// the `4·2^p` epsilon bound per coefficient; and with an `f32` near field
/// the field error stops improving from p ≈ 10 anyway.
pub const MAX_ORDER: usize = 16;

/// Number of 3-variable multi-indices with total order `<= p`:
/// `C(p+3, 3) = (p+1)(p+2)(p+3)/6`.
#[inline]
pub const fn nterms(p: usize) -> usize {
    (p + 1) * (p + 2) * (p + 3) / 6
}

/// An enumerated set of all 3D multi-indices `α = (i, j, k)` with
/// `|α| = i + j + k <= order`, in *graded* order (all of total order `n`
/// before any of order `n + 1`), with O(1) index/tuple lookups and
/// precomputed `1/α!`.
///
/// Every expansion buffer in the workspace is laid out in this order, so the
/// set doubles as the coefficient indexing scheme.
#[derive(Clone, Debug)]
pub struct MultiIndexSet {
    order: usize,
    tuples: Vec<(u8, u8, u8)>,
    /// Dense `(order+1)^3` lookup from `(i, j, k)` to flat index
    /// (`u32::MAX` when `i + j + k > order`).
    index: Vec<u32>,
    inv_fact: Vec<f64>,
    /// `order_start[n]` = first flat index of total order `n`;
    /// `order_start[order + 1]` = total length.
    order_start: Vec<usize>,
}

impl MultiIndexSet {
    pub fn new(order: usize) -> Self {
        assert!(
            order <= MAX_ORDER,
            "expansion order {order} is above the highest the far field is verified at, {MAX_ORDER}"
        );
        let stride = order + 1;
        let mut tuples = Vec::with_capacity(nterms(order));
        let mut index = vec![u32::MAX; stride * stride * stride];
        let mut order_start = Vec::with_capacity(order + 2);
        // Factorials up to `order` are exact in f64 (16! < 2^53).
        let mut fact = vec![1.0f64; order + 1];
        for n in 1..=order {
            fact[n] = fact[n - 1] * n as f64;
        }
        let mut inv_fact = Vec::with_capacity(nterms(order));
        for n in 0..=order {
            order_start.push(tuples.len());
            for i in (0..=n).rev() {
                for j in (0..=(n - i)).rev() {
                    let k = n - i - j;
                    let idx = tuples.len() as u32;
                    tuples.push((i as u8, j as u8, k as u8));
                    index[(i * stride + j) * stride + k] = idx;
                    inv_fact.push(1.0 / (fact[i] * fact[j] * fact[k]));
                }
            }
        }
        order_start.push(tuples.len());
        debug_assert_eq!(tuples.len(), nterms(order));
        MultiIndexSet {
            order,
            tuples,
            index,
            inv_fact,
            order_start,
        }
    }

    /// Maximum total order `p`.
    #[inline]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total number of multi-indices, `nterms(order)`.
    #[inline]
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Flat index of `(i, j, k)`; panics (debug) / garbage-guards (release)
    /// when `i + j + k > order`.
    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        let stride = self.order + 1;
        let v = self.index[(i * stride + j) * stride + k];
        debug_assert_ne!(v, u32::MAX, "multi-index ({i},{j},{k}) out of set");
        v as usize
    }

    /// `(i, j, k)` for a flat index.
    #[inline]
    pub fn tuple(&self, idx: usize) -> (usize, usize, usize) {
        let (i, j, k) = self.tuples[idx];
        (i as usize, j as usize, k as usize)
    }

    /// Total order `|α|` of a flat index.
    #[inline]
    pub fn total_order(&self, idx: usize) -> usize {
        let (i, j, k) = self.tuples[idx];
        (i + j + k) as usize
    }

    /// `1 / α!` for a flat index.
    #[inline]
    pub fn inv_factorial(&self, idx: usize) -> f64 {
        self.inv_fact[idx]
    }

    /// Range of flat indices with total order exactly `n`.
    #[inline]
    pub fn order_range(&self, n: usize) -> std::ops::Range<usize> {
        self.order_start[n]..self.order_start[n + 1]
    }

    /// Iterate `(flat_idx, (i, j, k))` in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, (usize, usize, usize))> + '_ {
        self.tuples
            .iter()
            .enumerate()
            .map(|(n, &(i, j, k))| (n, (i as usize, j as usize, k as usize)))
    }

    /// Flat index of `α - e_d` where `d` is the first axis with a nonzero
    /// exponent; `None` for `α = 0`. Used by recurrences that peel one
    /// derivative/power at a time.
    #[inline]
    pub fn peel(&self, idx: usize) -> Option<(usize, usize)> {
        let (i, j, k) = self.tuples[idx];
        if i > 0 {
            Some((0, self.idx(i as usize - 1, j as usize, k as usize)))
        } else if j > 0 {
            Some((1, self.idx(i as usize, j as usize - 1, k as usize)))
        } else if k > 0 {
            Some((2, self.idx(i as usize, j as usize, k as usize - 1)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_formula() {
        for p in 0..10 {
            let set = MultiIndexSet::new(p);
            assert_eq!(set.len(), nterms(p));
        }
        assert_eq!(nterms(0), 1);
        assert_eq!(nterms(1), 4);
        assert_eq!(nterms(2), 10);
        assert_eq!(nterms(3), 20);
        assert_eq!(nterms(6), 84);
    }

    #[test]
    fn idx_tuple_roundtrip() {
        let set = MultiIndexSet::new(7);
        for (n, (i, j, k)) in set.iter() {
            assert_eq!(set.idx(i, j, k), n);
            assert_eq!(set.tuple(n), (i, j, k));
            assert_eq!(set.total_order(n), i + j + k);
        }
    }

    #[test]
    fn graded_ordering() {
        let set = MultiIndexSet::new(5);
        let mut last_order = 0;
        for idx in 0..set.len() {
            let n = set.total_order(idx);
            assert!(n >= last_order, "orders must be non-decreasing");
            last_order = n;
        }
        for n in 0..=5 {
            for idx in set.order_range(n) {
                assert_eq!(set.total_order(idx), n);
            }
        }
    }

    #[test]
    fn inverse_factorials() {
        let set = MultiIndexSet::new(4);
        assert_eq!(set.inv_factorial(set.idx(0, 0, 0)), 1.0);
        assert_eq!(set.inv_factorial(set.idx(2, 0, 0)), 0.5);
        assert_eq!(set.inv_factorial(set.idx(1, 1, 1)), 1.0);
        assert!((set.inv_factorial(set.idx(3, 1, 0)) - 1.0 / 6.0).abs() < 1e-15);
        assert!((set.inv_factorial(set.idx(2, 2, 0)) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn peel_reduces_order() {
        let set = MultiIndexSet::new(4);
        assert!(set.peel(0).is_none());
        for idx in 1..set.len() {
            let (d, lower) = set.peel(idx).unwrap();
            assert!(d < 3);
            assert_eq!(set.total_order(lower), set.total_order(idx) - 1);
            let (i, j, k) = set.tuple(idx);
            let mut t = [i, j, k];
            t[d] -= 1;
            assert_eq!(set.tuple(lower), (t[0], t[1], t[2]));
        }
    }

    #[test]
    fn zeroth_index_is_origin() {
        let set = MultiIndexSet::new(3);
        assert_eq!(set.tuple(0), (0, 0, 0));
        assert_eq!(set.order_range(0), 0..1);
        assert_eq!(set.order_range(1), 1..4);
    }
}
