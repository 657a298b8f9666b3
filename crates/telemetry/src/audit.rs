//! Cost-model audit trail: pairs of (predicted, observed) step times and
//! rolling error statistics over them.
//!
//! The paper's balancer is only as good as its observational cost model
//! `T = Σ M(op)·C(op)`; the audit trail makes the model's honesty a
//! first-class, testable quantity instead of an article of faith.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::push_json_f64;

/// Default rolling-window length for [`AuditTrail`].
pub const DEFAULT_WINDOW: usize = 256;

/// One predict-vs-observe pairing for a single solve step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionAudit {
    /// Logical step index the prediction was made for.
    pub step: u64,
    /// Predicted CPU-side time (seconds).
    pub pred_cpu: f64,
    /// Predicted GPU-side time (seconds).
    pub pred_gpu: f64,
    /// Observed CPU-side time (seconds).
    pub actual_cpu: f64,
    /// Observed GPU-side time (seconds).
    pub actual_gpu: f64,
    /// Whether the balancer acted on this step (rebuild / Enforce_S / FGO).
    pub acted: bool,
}

fn rel_err(pred: f64, actual: f64) -> f64 {
    if actual.abs() < 1e-30 {
        if pred.abs() < 1e-30 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (pred - actual).abs() / actual.abs()
    }
}

impl PredictionAudit {
    /// Predicted makespan: concurrent CPU/GPU sides ⇒ max.
    pub fn pred_total(&self) -> f64 {
        self.pred_cpu.max(self.pred_gpu)
    }
    /// Observed makespan.
    pub fn actual_total(&self) -> f64 {
        self.actual_cpu.max(self.actual_gpu)
    }
    /// |pred−actual| / actual on the makespan — the headline honesty metric.
    pub fn rel_error(&self) -> f64 {
        rel_err(self.pred_total(), self.actual_total())
    }

    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        let _ = write!(out, "{{\"step\":{},\"pred_cpu\":", self.step);
        push_json_f64(&mut out, self.pred_cpu);
        out.push_str(",\"pred_gpu\":");
        push_json_f64(&mut out, self.pred_gpu);
        out.push_str(",\"actual_cpu\":");
        push_json_f64(&mut out, self.actual_cpu);
        out.push_str(",\"actual_gpu\":");
        push_json_f64(&mut out, self.actual_gpu);
        out.push_str(",\"rel_error\":");
        push_json_f64(&mut out, self.rel_error());
        let _ = write!(out, ",\"acted\":{}}}", self.acted);
        out
    }
}

/// Rolling window of audits with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct AuditTrail {
    window: usize,
    audits: VecDeque<PredictionAudit>,
}

impl AuditTrail {
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    pub fn with_window(window: usize) -> Self {
        AuditTrail {
            window: window.max(1),
            audits: VecDeque::new(),
        }
    }

    pub fn push(&mut self, audit: PredictionAudit) {
        if self.audits.len() == self.window {
            self.audits.pop_front();
        }
        self.audits.push_back(audit);
    }

    /// Audits currently in the window, oldest first.
    pub fn audits(&self) -> impl Iterator<Item = &PredictionAudit> {
        self.audits.iter()
    }

    pub fn len(&self) -> usize {
        self.audits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.audits.is_empty()
    }

    /// Summary over the current window; zeros when empty.
    pub fn stats(&self) -> AuditStats {
        let mut errs: Vec<f64> = self
            .audits
            .iter()
            .map(|a| a.rel_error())
            .filter(|e| e.is_finite())
            .collect();
        if errs.is_empty() {
            return AuditStats {
                count: self.audits.len(),
                acted: self.audits.iter().filter(|a| a.acted).count(),
                ..AuditStats::default()
            };
        }
        errs.sort_by(|a, b| a.total_cmp(b));
        let n = errs.len();
        let q = |q: f64| -> f64 {
            let idx = ((q * (n - 1) as f64).round() as usize).min(n - 1);
            errs[idx]
        };
        AuditStats {
            count: self.audits.len(),
            acted: self.audits.iter().filter(|a| a.acted).count(),
            mean: errs.iter().sum::<f64>() / n as f64,
            median: q(0.5),
            p90: q(0.9),
            max: errs[n - 1],
        }
    }
}

/// Rolling relative-error statistics over an [`AuditTrail`] window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AuditStats {
    pub count: usize,
    /// Audits in the window where the balancer acted.
    pub acted: usize,
    pub mean: f64,
    pub median: f64,
    pub p90: f64,
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(step: u64, pred: f64, actual: f64) -> PredictionAudit {
        PredictionAudit {
            step,
            pred_cpu: pred,
            pred_gpu: 0.0,
            actual_cpu: actual,
            actual_gpu: 0.0,
            acted: false,
        }
    }

    #[test]
    fn rel_error_basics() {
        let a = audit(0, 1.1, 1.0);
        assert!((a.rel_error() - 0.1).abs() < 1e-12);
        let exact = audit(0, 0.0, 0.0);
        assert_eq!(exact.rel_error(), 0.0);
        let infinite = audit(0, 1.0, 0.0);
        assert!(infinite.rel_error().is_infinite());
    }

    #[test]
    fn total_is_makespan() {
        let a = PredictionAudit {
            step: 0,
            pred_cpu: 1.0,
            pred_gpu: 3.0,
            actual_cpu: 2.0,
            actual_gpu: 1.0,
            acted: true,
        };
        assert_eq!(a.pred_total(), 3.0);
        assert_eq!(a.actual_total(), 2.0);
        assert!((a.rel_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn trail_window_rolls() {
        let mut t = AuditTrail::with_window(3);
        for i in 0..5 {
            t.push(audit(i, 1.0, 1.0));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.audits().next().unwrap().step, 2);
        // Stats are over the *window*, not over everything ever pushed.
        assert_eq!(t.stats().count, 3);
    }

    #[test]
    fn stats_median_and_max() {
        let mut t = AuditTrail::new();
        for (p, a) in [(1.05, 1.0), (1.1, 1.0), (1.2, 1.0), (2.0, 1.0)] {
            t.push(audit(0, p, a));
        }
        let s = t.stats();
        assert_eq!(s.count, 4);
        assert!((s.max - 1.0).abs() < 1e-12);
        assert!(s.median >= 0.05 && s.median <= 0.2, "median={}", s.median);
        assert!(s.mean > 0.0);
    }

    #[test]
    fn stats_empty_and_infinite_filtered() {
        let t = AuditTrail::new();
        assert_eq!(t.stats(), AuditStats::default());
        let mut t = AuditTrail::new();
        t.push(audit(0, 1.0, 0.0)); // infinite rel error → filtered
        let s = t.stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.median, 0.0);
    }

    #[test]
    fn window_of_one_keeps_only_latest() {
        // `with_window(0)` clamps to 1 — the degenerate "latest only" trail.
        let mut t = AuditTrail::with_window(0);
        t.push(audit(0, 1.5, 1.0));
        t.push(audit(1, 1.1, 1.0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.audits().next().unwrap().step, 1);
        let s = t.stats();
        assert_eq!(s.count, 1);
        assert!((s.median - 0.1).abs() < 1e-12, "median={}", s.median);
        assert_eq!(s.median, s.max);
    }

    #[test]
    fn exactly_full_window_does_not_evict_early() {
        // Filling to exactly the window length must keep every audit; the
        // eviction boundary is at window+1, not window.
        let mut t = AuditTrail::with_window(4);
        for i in 0..4 {
            t.push(audit(i, 1.0 + 0.1 * (i + 1) as f64, 1.0));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.audits().next().unwrap().step, 0);
        // One more evicts exactly one, from the front.
        t.push(audit(4, 1.0, 1.0));
        assert_eq!(t.len(), 4);
        assert_eq!(t.audits().next().unwrap().step, 1);
    }

    #[test]
    fn json_shapes() {
        let j = audit(3, 1.0, 2.0).to_json();
        assert!(j.contains("\"step\":3"));
        assert!(j.contains("\"acted\":false"));
    }
}
