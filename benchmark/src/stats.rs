//! Order statistics for timing samples.

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for even counts); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (exclusive method); needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let q = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The highest percentile with at least ten samples beyond it: the 1-based
/// rank `n - 10` of the ascending samples. `None` when that rank would not
/// lie above the median — with fewer than 21 samples a run has no tail
/// worth the name, and only the median is reported.
pub fn tail_rank(n: usize) -> Option<usize> {
    let rank = n.checked_sub(10)?;
    (2 * rank > n).then_some(rank)
}

/// Value and percentile at [`tail_rank`].
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let rank = tail_rank(values.len())?;
    Some((
        sorted(values)[rank - 1],
        100.0 * rank as f64 / values.len() as f64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(9), None);
        assert_eq!(tail_rank(12), None, "rank 2 of 12 is below the median");
        assert_eq!(tail_rank(20), None, "rank 10 of 20 is the lower median");
        assert_eq!(tail_rank(21), Some(11));
        assert_eq!(tail_rank(60), Some(50));
        assert_eq!(tail_rank(1000), Some(990));
        let v: Vec<f64> = (1..=60).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 50.0);
        assert!((pct - 83.333).abs() < 1e-2);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
