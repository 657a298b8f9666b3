//! Outlier-robust conditioning of measured step times.
//!
//! The balancer's state machine reacts to *every* measured time: a single
//! OS-scheduling spike in Observation can fire the 5% regression trigger
//! and cost an `Enforce_S` pass for nothing. [`TimingFilter`] sits between
//! the raw measurement and the balancer: a median over the last five
//! samples once enough history exists, an EWMA while history is short, and
//! outright rejection of non-finite or negative samples (the estimate
//! simply holds). Both estimators are positively homogeneous — scaling all
//! inputs by `c > 0` scales the output by `c` — so the filter never biases
//! the CPU/GPU *ratio* the balancer steers by.
//!
//! Whenever the balancer changes the decomposition (rebuild, enforce,
//! FGO), or the machine changes under it (a device drops out or comes
//! back), past samples describe a step that no longer exists; callers must
//! [`TimingFilter::reset`] then.

/// Median window length.
const K: usize = 5;
/// EWMA weight of the newest sample during warm-up.
const ALPHA: f64 = 0.5;

/// The samples [`TimingFilter::push`] ingests: finite and non-negative.
fn valid_sample(raw: f64) -> bool {
    raw.is_finite() && raw >= 0.0
}

/// Median-of-5 filter with EWMA warm-up (weight 0.5). Never panics, for
/// any input.
#[derive(Clone, Debug, Default)]
pub struct TimingFilter {
    window: Vec<f64>,
    ewma: Option<f64>,
    rejected: u64,
}

/// Plain-data image of a [`TimingFilter`] for checkpointing: the exact
/// window contents (order matters — it is a FIFO) and warm-up EWMA, so a
/// restored filter produces bit-identical estimates.
#[derive(Clone, Debug)]
pub struct FilterSnapshot {
    pub window: Vec<f64>,
    pub ewma: Option<f64>,
    pub rejected: u64,
}

impl TimingFilter {
    /// Ingest one raw measurement and return the filtered estimate.
    /// Non-finite or negative samples are rejected — counted in
    /// [`TimingFilter::rejected`] — and the previous estimate (or 0.0 before
    /// any valid sample) is returned unchanged.
    pub fn push(&mut self, raw: f64) -> f64 {
        if !valid_sample(raw) {
            self.rejected += 1;
            return self.estimate().unwrap_or(0.0);
        }
        self.ewma = Some(match self.ewma {
            None => raw,
            Some(e) => ALPHA * raw + (1.0 - ALPHA) * e,
        });
        self.window.push(raw);
        if self.window.len() > K {
            self.window.remove(0);
        }
        self.estimate().unwrap_or(0.0)
    }

    /// Current estimate without ingesting anything: the window median once
    /// at least 3 valid samples exist, the EWMA before that, `None` before
    /// any valid sample.
    pub fn estimate(&self) -> Option<f64> {
        if self.window.len() >= 3 {
            let mut sorted = self.window.clone();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            return Some(if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            });
        }
        self.ewma
    }

    /// Number of valid samples currently in the median window.
    pub fn samples(&self) -> usize {
        self.window.len()
    }

    /// Lifetime count of rejected (NaN / infinite / negative) samples.
    /// Survives [`TimingFilter::reset`]: rejection is a property of the
    /// measurement stream, not of the current decomposition.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Drop all history (the decomposition changed; old times are stale).
    pub fn reset(&mut self) {
        self.window.clear();
        self.ewma = None;
    }

    /// Capture the filter's complete state for checkpointing.
    pub fn snapshot(&self) -> FilterSnapshot {
        FilterSnapshot {
            window: self.window.clone(),
            ewma: self.ewma,
            rejected: self.rejected,
        }
    }

    /// Reconstruct a filter from a snapshot verbatim, refusing state the
    /// live filter can never hold: a window longer than five samples, or a
    /// window sample or EWMA that [`TimingFilter::push`] would reject.
    pub fn from_snapshot(snap: FilterSnapshot) -> Result<Self, String> {
        if snap.window.len() > K {
            return Err(format!(
                "filter window of {} samples does not fit k = {K}",
                snap.window.len()
            ));
        }
        if let Some(x) = snap
            .window
            .iter()
            .chain(&snap.ewma)
            .find(|x| !valid_sample(**x))
        {
            return Err(format!("filter holds sample {x}, which it would reject"));
        }
        Ok(TimingFilter {
            window: snap.window,
            ewma: snap.ewma,
            rejected: snap.rejected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_up_uses_ewma_then_median_takes_over() {
        let mut f = TimingFilter::default();
        assert_eq!(f.push(1.0), 1.0);
        assert_eq!(f.push(3.0), 2.0); // EWMA: 0.5·3 + 0.5·1
        assert_eq!(f.push(2.0), 2.0); // median of [1, 3, 2]
        assert_eq!(f.samples(), 3);
    }

    #[test]
    fn median_suppresses_a_spike() {
        let mut f = TimingFilter::default();
        for _ in 0..4 {
            f.push(1.0);
        }
        // A 100× spike barely moves the estimate...
        assert_eq!(f.push(100.0), 1.0);
        // ...and the estimate recovers completely as the spike ages out.
        for _ in 0..5 {
            f.push(1.0);
        }
        assert_eq!(f.estimate(), Some(1.0));
    }

    #[test]
    fn rejects_invalid_samples_without_panicking() {
        let mut f = TimingFilter::default();
        assert_eq!(f.push(f64::NAN), 0.0);
        assert_eq!(f.push(-1.0), 0.0);
        assert_eq!(f.push(f64::INFINITY), 0.0);
        f.push(2.0);
        assert_eq!(f.push(f64::NAN), 2.0);
        assert_eq!(f.samples(), 1);
    }

    #[test]
    fn rejection_counter_tracks_garbage_across_resets() {
        let mut f = TimingFilter::default();
        f.push(f64::NAN);
        f.push(1.0);
        f.push(-3.0);
        f.push(f64::INFINITY);
        assert_eq!(f.rejected(), 3);
        f.reset();
        assert_eq!(f.rejected(), 3, "rejections outlive a decomposition reset");
        f.push(f64::NEG_INFINITY);
        assert_eq!(f.rejected(), 4);
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let mut f = TimingFilter::default();
        for x in [0.5, f64::NAN, 0.7, 0.1, 0.9, 0.2] {
            f.push(x);
        }
        let mut g = TimingFilter::from_snapshot(f.snapshot()).unwrap();
        assert_eq!(g.rejected(), f.rejected());
        assert_eq!(g.estimate(), f.estimate());
        for x in [0.4, 0.6, 0.8] {
            let a = f.push(x);
            let b = g.push(x);
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reset_clears_history() {
        let mut f = TimingFilter::default();
        f.push(5.0);
        f.push(5.0);
        f.reset();
        assert_eq!(f.estimate(), None);
        assert_eq!(f.push(1.0), 1.0);
    }

    #[test]
    fn reset_mid_stream_restarts_warm_up() {
        let mut f = TimingFilter::default();
        for x in [1.0, 2.0, 3.0, 4.0, 5.0] {
            f.push(x);
        }
        assert_eq!(f.estimate(), Some(3.0), "median active before reset");
        f.reset();
        assert_eq!(f.samples(), 0);
        assert_eq!(f.estimate(), None);
        // Warm-up restarts from scratch: the first post-reset sample seeds
        // the EWMA, untainted by pre-reset history.
        assert_eq!(f.push(10.0), 10.0);
        assert_eq!(f.push(20.0), 15.0); // EWMA: 0.5·20 + 0.5·10
        assert_eq!(f.samples(), 2);
    }

    #[test]
    fn scale_equivariant() {
        let xs = [0.2, 0.5, 0.1, 0.9, 0.4, 0.3, 0.8];
        let c = 37.5;
        let mut a = TimingFilter::default();
        let mut b = TimingFilter::default();
        for &x in &xs {
            let ya = a.push(x);
            let yb = b.push(c * x);
            assert!((yb - c * ya).abs() <= 1e-12 * yb.abs().max(1.0));
        }
    }
}
