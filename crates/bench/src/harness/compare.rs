//! Noise-aware report comparison: classify every metric shared by two
//! reports as improved / regressed / unchanged, and decide whether the new
//! report fails the gate.
//!
//! The classification rule, per metric (Holm et al.'s observation that
//! autotuning decisions need noise-aware repeated measurements applies
//! equally to the measurements *about* the system):
//!
//! 1. **CI overlap.** If the bootstrap confidence intervals of the two
//!    medians overlap, the difference is indistinguishable from sampling
//!    noise → `Unchanged`, full stop.
//! 2. **Relative-MAD threshold.** Otherwise the relative delta of the
//!    medians must clear `max(noise_mult · rel_mad, min_rel_change)`,
//!    where `rel_mad` is the worse of the two reports' MAD/median ratios
//!    floored at a per-kind minimum (wall metrics get a generous floor,
//!    virtual metrics a tight one — the simulators are deterministic).
//! 3. Direction decides `Improved` vs `Regressed`; only `gate: true`
//!    metrics can fail the build.
//!
//! A zero baseline admits no relative delta: an exact (`virtual`-kind)
//! metric that leaves it is classified by direction alone, a wall metric is
//! skipped.
//!
//! Scenarios are matched by name and compared only when their `params`
//! objects are identical — a quick-mode report never silently gates
//! against a full-mode baseline.

use super::report::{BenchReport, Direction, Metric, MetricKind};
use telemetry::json::Json;

/// Comparator thresholds; the defaults are deliberately blunt — this gate
/// exists to catch real regressions (the acceptance bar is 2×), not 3%
/// drifts that would make CI flaky across runners.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    /// Noise floor for wall-clock metrics (relative MAD is clamped up to
    /// this before thresholding).
    pub min_rel_noise_wall: f64,
    /// Noise floor for virtual (deterministic) metrics.
    pub min_rel_noise_virtual: f64,
    /// The delta must exceed `noise_mult` × the noise estimate ...
    pub noise_mult: f64,
    /// ... and this absolute relative floor, whichever is larger.
    pub min_rel_change: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            min_rel_noise_wall: 0.10,
            min_rel_noise_virtual: 0.02,
            noise_mult: 3.0,
            min_rel_change: 0.25,
        }
    }
}

/// Outcome for one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    /// Not comparable (params mismatch, metric missing on one side, a wall
    /// metric's zero baseline) — reported, never gated.
    Skipped,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unchanged => "unchanged",
            Verdict::Skipped => "skipped",
        }
    }
}

/// One row of the comparison table.
#[derive(Clone, Debug)]
pub struct MetricComparison {
    pub scenario: String,
    pub metric: String,
    pub unit: String,
    pub old_median: f64,
    pub new_median: f64,
    /// Signed relative delta of the medians, `(new - old) / |old|`
    /// (positive = the value went up, independent of direction).
    pub rel_delta: f64,
    /// The noise threshold the delta was tested against.
    pub threshold: f64,
    pub gate: bool,
    pub verdict: Verdict,
    /// Human-readable reason for skipped rows.
    pub note: String,
}

/// Full result of comparing two reports.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    pub rows: Vec<MetricComparison>,
}

impl CompareReport {
    /// Gated regressions — nonzero means the build fails.
    pub fn regressions(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.gate && r.verdict == Verdict::Regressed)
            .count()
    }

    pub fn improvements(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Improved)
            .count()
    }

    /// Fixed-width summary table for terminals and CI logs.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<22} {:>12} {:>12} {:>8}  verdict",
            "scenario", "metric", "old", "new", "delta"
        );
        for r in &self.rows {
            let delta = if r.verdict == Verdict::Skipped {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * r.rel_delta)
            };
            let _ = writeln!(
                out,
                "{:<24} {:<22} {:>12} {:>12} {:>8}  {}{}",
                r.scenario,
                r.metric,
                format_value(r.old_median),
                format_value(r.new_median),
                delta,
                r.verdict.as_str(),
                if r.note.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", r.note)
                },
            );
        }
        let _ = writeln!(
            out,
            "-- {} metric(s): {} regressed (gated), {} improved",
            self.rows.len(),
            self.regressions(),
            self.improvements()
        );
        out
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

/// Do two closed intervals overlap?
fn ci_overlap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64) -> bool {
    a_lo <= b_hi && b_lo <= a_hi
}

fn compare_metric(
    scenario: &str,
    old: &Metric,
    new: &Metric,
    cfg: &CompareConfig,
) -> MetricComparison {
    let mut row = MetricComparison {
        scenario: scenario.to_string(),
        metric: old.name.clone(),
        unit: old.unit.clone(),
        old_median: old.stats.median,
        new_median: new.stats.median,
        rel_delta: 0.0,
        threshold: 0.0,
        gate: old.gate && new.gate,
        verdict: Verdict::Unchanged,
        note: String::new(),
    };
    if old.stats.median.abs() < f64::EPSILON {
        // A zero baseline admits no relative comparison.
        let exact = old.kind == MetricKind::Virtual && new.kind == MetricKind::Virtual;
        row.verdict = if new.stats.median.abs() < f64::EPSILON {
            Verdict::Unchanged
        } else if exact {
            // An exact metric has no noise to clear: any move off zero is
            // real (`steady_gate_allocs` 0 → N is the case this gates).
            row.note = "off a zero baseline".to_string();
            row.rel_delta = f64::INFINITY.copysign(new.stats.median);
            let worse = (new.stats.median > 0.0) == (old.direction == Direction::Lower);
            if worse {
                Verdict::Regressed
            } else {
                Verdict::Improved
            }
        } else {
            // Wall noise around zero is not gateable.
            row.note = "zero baseline".to_string();
            Verdict::Skipped
        };
        return row;
    }

    row.rel_delta = (new.stats.median - old.stats.median) / old.stats.median.abs();

    let floor = match (old.kind, new.kind) {
        (MetricKind::Virtual, MetricKind::Virtual) => cfg.min_rel_noise_virtual,
        _ => cfg.min_rel_noise_wall,
    };
    let noise = old.stats.rel_mad().max(new.stats.rel_mad()).max(floor);
    row.threshold = (cfg.noise_mult * noise).max(cfg.min_rel_change);

    if ci_overlap(
        old.stats.ci_lo,
        old.stats.ci_hi,
        new.stats.ci_lo,
        new.stats.ci_hi,
    ) {
        return row; // statistically indistinguishable
    }
    // Positive `worse` = moved in the bad direction.
    let worse = match old.direction {
        Direction::Lower => row.rel_delta,
        Direction::Higher => -row.rel_delta,
    };
    if worse > row.threshold {
        row.verdict = Verdict::Regressed;
    } else if -worse > row.threshold {
        row.verdict = Verdict::Improved;
    }
    row
}

/// Compare two reports scenario-by-scenario, metric-by-metric.
pub fn compare(old: &BenchReport, new: &BenchReport, cfg: &CompareConfig) -> CompareReport {
    let mut rows = Vec::new();
    for old_sc in &old.scenarios {
        let Some(new_sc) = new.scenario(&old_sc.name) else {
            rows.push(skip_row(
                &old_sc.name,
                "*",
                "scenario missing in new report",
            ));
            continue;
        };
        if old_sc.params != new_sc.params {
            rows.push(skip_row(&old_sc.name, "*", "params differ; not comparable"));
            continue;
        }
        for old_m in &old_sc.metrics {
            match new_sc.metric(&old_m.name) {
                Some(new_m) => rows.push(compare_metric(&old_sc.name, old_m, new_m, cfg)),
                None => rows.push(skip_row(
                    &old_sc.name,
                    &old_m.name,
                    "metric missing in new report",
                )),
            }
        }
    }
    for new_sc in &new.scenarios {
        if old.scenario(&new_sc.name).is_none() {
            rows.push(skip_row(&new_sc.name, "*", "new scenario (no baseline)"));
        }
    }
    CompareReport { rows }
}

fn skip_row(scenario: &str, metric: &str, note: &str) -> MetricComparison {
    MetricComparison {
        scenario: scenario.to_string(),
        metric: metric.to_string(),
        unit: String::new(),
        old_median: 0.0,
        new_median: 0.0,
        rel_delta: 0.0,
        threshold: 0.0,
        gate: false,
        verdict: Verdict::Skipped,
        note: note.to_string(),
    }
}

/// Params mismatch helper used by the driver for friendlier messages.
pub fn modes(old: &BenchReport, new: &BenchReport) -> (String, String) {
    let mode = |r: &BenchReport| {
        r.config
            .get("mode")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    (mode(old), mode(new))
}
