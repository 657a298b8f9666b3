//! `compare A.json B.json`: per (workload, metric) change from A (parent) to
//! B (change) against the metric's bound. Each file is an `out/result.json`
//! and may hold several runs of a workload (`all --runs K`).

use crate::report::read_json_array;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;
use telemetry::{flat_f64, flat_str, flat_u64, parse_flat_json, Value};

#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound (or, for a deterministic metric, identical).
    Ok,
    /// Worse than the bound allows, or a deterministic metric that differs.
    Breach,
    /// Run-to-run spread exceeds the bound and not every run of B reads
    /// better than every run of A, so the delta decides nothing.
    Unresolved,
    /// Per-layer metric: no bound, shown for reading only.
    Info,
}

#[derive(Clone, Debug)]
struct Series {
    values: Vec<f64>,
    unit: String,
    lower_is_better: bool,
    bound: f64,
    deterministic: bool,
    end_to_end: bool,
}

type Key = (String, String);

fn load(path: &Path) -> Result<BTreeMap<Key, Series>, String> {
    let mut out = BTreeMap::<Key, Series>::new();
    for line in read_json_array(path)? {
        let fields = parse_flat_json(&line).map_err(|e| format!("{}: {e}", path.display()))?;
        if flat_str(&fields, "record") != Some("metric") {
            continue;
        }
        let get = |k: &str| {
            flat_str(&fields, k)
                .map(str::to_owned)
                .ok_or(format!("no {k}"))
        };
        let flag = |k: &str| {
            matches!(
                fields.iter().find(|f| f.0 == k),
                Some((_, Value::Bool(true)))
            )
        };
        let value = flat_f64(&fields, "value").ok_or("metric line without a value")?;
        let s = out
            .entry((get("workload")?, get("name")?))
            .or_insert(Series {
                values: Vec::new(),
                unit: get("unit")?,
                lower_is_better: get("better")? == "lower",
                bound: flat_f64(&fields, "bound").unwrap_or(0.0),
                deterministic: flag("deterministic"),
                end_to_end: flat_u64(&fields, "trace") == Some(0),
            });
        s.values.push(value);
    }
    Ok(out)
}

/// Widest of the two sides' interquartile range over median; zero for a
/// single run, whose spread is unknown.
fn spread(a: &[f64], b: &[f64]) -> f64 {
    let one = |v: &[f64]| match (quartiles(v), median(v)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    };
    one(a).max(one(b))
}

/// Change of medians as a share of A's, signed so that positive is worse.
fn worsening(a: &Series, b: &[f64]) -> f64 {
    let (ma, mb) = (median(&a.values), median(b));
    if ma == 0.0 {
        return if mb == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let change = (mb - ma) / ma.abs();
    if a.lower_is_better {
        change
    } else {
        -change
    }
}

fn judge(a: &Series, b: &[f64]) -> Verdict {
    if !a.end_to_end {
        return Verdict::Info;
    }
    if a.deterministic {
        let first = a.values[0].to_bits();
        let same = a.values.iter().chain(b).all(|v| v.to_bits() == first);
        return if same { Verdict::Ok } else { Verdict::Breach };
    }
    if spread(&a.values, b) > a.bound {
        let all_better = a.values.iter().all(|&x| {
            b.iter()
                .all(|&y| if a.lower_is_better { y < x } else { y > x })
        });
        return if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(a, b) > a.bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

/// Print the comparison; `Ok(true)` when nothing breaches.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut breaches = 0;
    println!(
        "{:<18} {:<30} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for (key, sa) in &a {
        let Some(sb) = b.get(key) else {
            println!("{:<18} {:<30} missing from B", key.0, key.1);
            breaches += 1;
            continue;
        };
        let verdict = judge(sa, &sb.values);
        if verdict == Verdict::Breach {
            breaches += 1;
        }
        let bound = if sa.deterministic {
            "exact".to_string()
        } else if sa.end_to_end {
            format!("{:.1}%", 100.0 * sa.bound)
        } else {
            "-".to_string()
        };
        println!(
            "{:<18} {:<30} {:>14.6e} {:>14.6e} {:>8.2}% {:>7}  {:?} [{}]",
            key.0,
            key.1,
            median(&sa.values),
            median(&sb.values),
            100.0 * worsening(sa, &sb.values),
            bound,
            verdict,
            sa.unit
        );
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64], lower: bool, bound: f64, deterministic: bool) -> Series {
        Series {
            values: values.to_vec(),
            unit: "s".into(),
            lower_is_better: lower,
            bound,
            deterministic,
            end_to_end: true,
        }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let wall = series(&[1.00, 1.01, 0.99], true, 0.10, false);
        assert_eq!(judge(&wall, &[1.05, 1.04, 1.06]), Verdict::Ok);
        assert_eq!(judge(&wall, &[1.15, 1.14, 1.16]), Verdict::Breach);
        assert_eq!(judge(&wall, &[0.8, 1.3, 1.2]), Verdict::Unresolved);
        let noisy = series(&[1.0, 1.2, 1.4], true, 0.10, false);
        assert_eq!(judge(&noisy, &[0.7, 0.8, 0.9]), Verdict::Ok);
        let rate = series(&[100.0], false, 0.10, false);
        assert_eq!(judge(&rate, &[80.0]), Verdict::Breach);
        assert_eq!(judge(&rate, &[95.0]), Verdict::Ok);
        let exact = series(&[0.5, 0.5], true, 0.25, true);
        assert_eq!(judge(&exact, &[0.5]), Verdict::Ok);
        assert_eq!(judge(&exact, &[0.5000000001]), Verdict::Breach);
    }
}
