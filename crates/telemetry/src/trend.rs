//! Offline trend classification over short cross-run series: a floored
//! median/MAD z-score for level changes plus a two-sided CUSUM for slow
//! drifts. The perf ledger's `trend` is the caller.
//!
//! Why median/MAD rather than mean/stddev: wall-clock series are heavy-
//! tailed (one preempted CI run), and a single outlier must not inflate the
//! dispersion estimate enough to mask the next one. The MAD is additionally
//! floored (relative + absolute) so a near-constant history — common for
//! virtual-clock metrics, where MAD is exactly zero — does not turn
//! numerical dust into false positives.

fn median_of(w: &[f64]) -> f64 {
    if w.is_empty() {
        return 0.0;
    }
    let mut s = w.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn mad_of(w: &[f64], med: f64) -> f64 {
    let dev: Vec<f64> = w.iter().map(|x| (x - med).abs()).collect();
    median_of(&dev)
}

/// Thresholds for [`classify_series`], tuned for *short* cross-run series
/// (a perf ledger holds tens of entries, not thousands of steps).
#[derive(Debug, Clone, Copy)]
pub struct TrendConfig {
    /// Baseline samples required before anything is scored. Series shorter
    /// than `min_history + 1` classify as [`TrendKind::Insufficient`].
    pub min_history: usize,
    /// Modified z-score at which a sample leaves the noise band.
    pub z_step: f64,
    /// How many *consecutive* out-of-band samples confirm a step. Below
    /// this the excursion is a [`TrendKind::Spike`].
    pub confirm: usize,
    /// Relative sigma floor: `sigma >= rel_floor · |median|`, so runs whose
    /// history is near-constant (MAD ≈ 0) don't alarm on numerical dust.
    pub rel_floor: f64,
    /// Absolute sigma floor (guards the median ≈ 0 case).
    pub abs_floor: f64,
    /// CUSUM slack per standardized sample.
    pub cusum_k: f64,
    /// CUSUM decision threshold.
    pub cusum_h: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            min_history: 4,
            z_step: 3.5,
            confirm: 2,
            rel_floor: 0.05,
            abs_floor: 1e-12,
            cusum_k: 0.25,
            cusum_h: 5.0,
        }
    }
}

/// What a series did, in decreasing order of severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendKind {
    /// A confirmed level change: `confirm`+ consecutive out-of-band samples.
    Step,
    /// The CUSUM accumulated a slow, sustained movement that never cleared
    /// the per-sample step bar.
    Drift,
    /// An unconfirmed excursion — out-of-band sample(s) that either
    /// reverted or sit at the series tail awaiting confirmation.
    Spike,
    /// Nothing but noise.
    Stable,
    /// Not enough history to score at all.
    Insufficient,
}

impl TrendKind {
    pub fn as_str(self) -> &'static str {
        match self {
            TrendKind::Step => "step",
            TrendKind::Drift => "drift",
            TrendKind::Spike => "spike",
            TrendKind::Stable => "stable",
            TrendKind::Insufficient => "insufficient",
        }
    }
}

/// Verdict of [`classify_series`] on one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendReport {
    pub kind: TrendKind,
    /// Index of the first sample of the detected step/drift/spike.
    pub at: Option<usize>,
    /// Modified z (step/spike) or signed CUSUM statistic (drift). The sign
    /// is the direction of movement: positive = the values went *up*.
    pub score: f64,
    /// Baseline median at detection time (whole-series median when stable).
    pub baseline: f64,
    /// Median of the samples after the detected change (== `baseline` when
    /// nothing was detected).
    pub level: f64,
}

/// Classify a whole series of per-run measurements as a confirmed step
/// change, a slow drift, an unconfirmed spike, or noise.
///
/// Walks the series in order: the first `min_history` samples seed a
/// rolling baseline, each later
/// sample is scored by its floored modified z, out-of-band samples are *not*
/// absorbed (so a genuine level change keeps scoring until confirmed rather
/// than dragging the baseline up after it), and in-band samples feed a
/// two-sided CUSUM that catches sub-threshold creep. A step is only
/// *confirmed* by `confirm` consecutive out-of-band samples in the same
/// direction — one bad run is a spike, two in a row is a regression. This is
/// why a gated trend alarm needs at most 2 post-step entries, and why a
/// single noisy CI run can never flip the gate.
pub fn classify_series(values: &[f64], cfg: &TrendConfig) -> TrendReport {
    let stable = |baseline: f64| TrendReport {
        kind: TrendKind::Stable,
        at: None,
        score: 0.0,
        baseline,
        level: baseline,
    };
    if values.len() < cfg.min_history + 1 {
        return TrendReport {
            kind: TrendKind::Insufficient,
            ..stable(median_of(values))
        };
    }
    let mut baseline: Vec<f64> = values[..cfg.min_history].to_vec();
    let mut cusum_pos = 0.0f64;
    let mut cusum_neg = 0.0f64;
    let mut drift: Option<(usize, f64)> = None;
    let mut spike: Option<(usize, f64)> = None;
    // Current run of consecutive out-of-band samples: (start, direction, z).
    let mut streak: Option<(usize, f64, f64)> = None;
    for (i, &v) in values.iter().enumerate().skip(cfg.min_history) {
        let med = median_of(&baseline);
        let mad = mad_of(&baseline, med);
        let sigma = (1.4826 * mad)
            .max(cfg.rel_floor * med.abs())
            .max(cfg.abs_floor);
        let z = if v.is_finite() {
            (v - med) / sigma
        } else {
            f64::INFINITY
        };
        if z.abs() >= cfg.z_step {
            let dir = z.signum();
            streak = match streak {
                Some((start, d, _)) if d == dir => Some((start, d, z)),
                _ => Some((i, dir, z)),
            };
            let (start, _, z_last) = streak.expect("just set");
            if i + 1 - start >= cfg.confirm {
                // Confirmed level change.
                return TrendReport {
                    kind: TrendKind::Step,
                    at: Some(start),
                    score: z_last,
                    baseline: med,
                    level: median_of(&values[start..]),
                };
            }
            spike = spike.or(Some((i, z)));
            continue; // never absorbed into the baseline
        }
        streak = None;
        baseline.push(v);
        cusum_pos = (cusum_pos + z - cfg.cusum_k).max(0.0);
        cusum_neg = (cusum_neg - z - cfg.cusum_k).max(0.0);
        let s = cusum_pos.max(cusum_neg);
        if s >= cfg.cusum_h && drift.is_none() {
            let signed = if cusum_pos >= cusum_neg { s } else { -s };
            drift = Some((i, signed));
        }
    }
    if let Some((at, score)) = drift {
        return TrendReport {
            kind: TrendKind::Drift,
            at: Some(at),
            score,
            baseline: median_of(&values[..at.max(1)]),
            level: median_of(&values[at..]),
        };
    }
    if let Some((at, score)) = spike {
        return TrendReport {
            kind: TrendKind::Spike,
            at: Some(at),
            score,
            baseline: median_of(&baseline),
            level: values[at],
        };
    }
    stable(median_of(&baseline))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic jitter in [-j, j] around `center` (cheap LCG; the
    /// trend tests need many distinct series, not statistical perfection).
    fn jittered(center: f64, j: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                center * (1.0 + j * (2.0 * u - 1.0))
            })
            .collect()
    }

    #[test]
    fn series_step_confirmed_within_two_entries() {
        // 10-entry series, 2x step at index 8: exactly 2 post-step entries.
        for seed in 0..20 {
            let mut xs = jittered(1.0, 0.05, 10, seed);
            for v in xs.iter_mut().skip(8) {
                *v *= 2.0;
            }
            let r = classify_series(&xs, &TrendConfig::default());
            assert_eq!(r.kind, TrendKind::Step, "seed {seed}: {r:?}");
            assert_eq!(r.at, Some(8));
            assert!(r.score > 0.0, "upward step must score positive");
            assert!(r.level > 1.5 && r.baseline < 1.5);
        }
    }

    #[test]
    fn series_pure_noise_never_alarms() {
        for seed in 0..40 {
            let xs = jittered(1.0, 0.05, 12, 1000 + seed);
            let r = classify_series(&xs, &TrendConfig::default());
            assert_eq!(r.kind, TrendKind::Stable, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn series_single_outlier_is_spike_not_step() {
        let mut xs = jittered(1.0, 0.03, 12, 3);
        xs[7] *= 3.0; // one preempted run, reverts next entry
        let r = classify_series(&xs, &TrendConfig::default());
        assert_eq!(r.kind, TrendKind::Spike, "{r:?}");
        assert_eq!(r.at, Some(7));
        // Same for a last-entry outlier: suspect, not yet confirmed.
        let mut xs = jittered(1.0, 0.03, 12, 4);
        *xs.last_mut().unwrap() *= 3.0;
        let r = classify_series(&xs, &TrendConfig::default());
        assert_eq!(r.kind, TrendKind::Spike, "{r:?}");
        assert_eq!(r.at, Some(11));
    }

    #[test]
    fn series_slow_drift_trips_cusum() {
        // +2.5% per entry: each step is sub-threshold, the creep is not.
        let xs: Vec<f64> = (0..24).map(|i| 1.025f64.powi(i)).collect();
        let r = classify_series(&xs, &TrendConfig::default());
        assert!(
            matches!(r.kind, TrendKind::Drift | TrendKind::Step),
            "{r:?}"
        );
        assert!(r.score > 0.0, "upward drift must score positive");
    }

    #[test]
    fn series_downward_step_scores_negative() {
        let mut xs = vec![1.0; 10];
        for v in xs.iter_mut().skip(6) {
            *v = 0.4;
        }
        let r = classify_series(&xs, &TrendConfig::default());
        assert_eq!(r.kind, TrendKind::Step);
        assert_eq!(r.at, Some(6));
        assert!(r.score < 0.0);
    }

    #[test]
    fn series_too_short_is_insufficient() {
        let r = classify_series(&[1.0, 1.0, 1.0], &TrendConfig::default());
        assert_eq!(r.kind, TrendKind::Insufficient);
        assert_eq!(classify_series(&[], &TrendConfig::default()).kind, {
            TrendKind::Insufficient
        });
    }

    #[test]
    fn series_constant_history_tolerates_floor_wobble() {
        // Identical history (MAD = 0) + one 3% wobble: the relative floor
        // keeps it in band.
        let mut xs = vec![0.5; 9];
        xs.push(0.515);
        let r = classify_series(&xs, &TrendConfig::default());
        assert_eq!(r.kind, TrendKind::Stable, "{r:?}");
    }
}
