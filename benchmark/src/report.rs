//! What a run prints and writes: the metric table for people, the contract's
//! last-line JSON object for the driver, the flat record lines `all` merges
//! into `out/result.json` and `compare` reads back, and the span trace.

use crate::run::{Metric, RunResult};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use telemetry::{push_json_f64, push_json_str};

/// `benchmark/out/`, next to this package's manifest in the checkout the
/// binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn records_path(workload: &str, traced: bool) -> PathBuf {
    out_dir().join(format!("run-{workload}-trace{}.json", u8::from(traced)))
}

/// One flat JSON object per line; lines are joined into a JSON array.
pub struct Line(String);

impl Line {
    pub fn new(record: &str) -> Self {
        let mut s = String::from("{\"record\":");
        push_json_str(&mut s, record);
        Line(s)
    }
    pub fn str(mut self, key: &str, v: &str) -> Self {
        let _ = write!(self.0, ",\"{key}\":");
        push_json_str(&mut self.0, v);
        self
    }
    pub fn num(mut self, key: &str, v: f64) -> Self {
        let _ = write!(self.0, ",\"{key}\":");
        push_json_f64(&mut self.0, v);
        self
    }
    pub fn int(mut self, key: &str, v: u64) -> Self {
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        let _ = write!(self.0, ",\"{key}\":{v}");
        self
    }
    pub fn end(mut self) -> String {
        self.0.push('}');
        self.0
    }
}

/// The run header and one line per metric, each a flat JSON object.
pub fn record_lines(r: &RunResult) -> Vec<String> {
    let a = &r.args;
    let w = a.workload;
    let mut lines = vec![Line::new("run")
        .str("workload", w.name)
        .int("trace", u64::from(a.traced))
        .int("seed", a.seed)
        .int("seconds", a.seconds)
        .int("bodies", a.n() as u64)
        .int("pinned_s", w.s as u64)
        .int("measured_steps", a.steps() as u64)
        .bool("correct", r.correct)
        .int("steps_attempted", r.attempted as u64)
        .int("steps_failed", r.failed as u64)
        .str(
            "step_wall_ms",
            &r.step_walls
                .iter()
                .map(|w| format!("{:.3}", w * 1e3))
                .collect::<Vec<_>>()
                .join(" "),
        )
        .end()];
    for m in &r.metrics {
        let mut line = Line::new("metric")
            .str("workload", w.name)
            .int("trace", u64::from(a.traced))
            .str("name", m.spec.name)
            .str("unit", m.spec.unit)
            .num("value", m.value)
            .str("better", m.spec.better.as_str())
            .num("bound", m.spec.bound)
            .bool("deterministic", m.spec.deterministic);
        if let Some(steps) = m.steps {
            line = line
                .int("samples", steps.samples as u64)
                .num("median", steps.median);
            if let Some((value, pct)) = steps.tail {
                line = line.num("tail_value", value).num("tail_percentile", pct);
            }
        }
        lines.push(line.end());
    }
    lines
}

pub fn write_json_array(path: &Path, lines: &[String]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, format!("[\n{}\n]\n", lines.join(",\n")))
}

/// The object lines of a file written by [`write_json_array`].
pub fn read_json_array(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .map(|l| l.trim().trim_end_matches(','))
        .filter(|l| l.starts_with('{'))
        .map(str::to_owned)
        .collect())
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn print_metric(m: &Metric) {
    let mut line = format!(
        "  {:<34} {:>14} {:<10}",
        m.spec.name,
        fmt_value(m.value),
        m.spec.unit
    );
    if let Some(steps) = m.steps {
        let _ = write!(
            line,
            " lower quartile of {} steps, median {}",
            steps.samples,
            fmt_value(steps.median)
        );
        if let Some((value, pct)) = steps.tail {
            let _ = write!(line, ", p{pct:.1} {}", fmt_value(value));
        }
    }
    println!("{line}");
}

/// Print the run for people, then the contract's JSON object as the last line.
pub fn print(r: &RunResult) {
    let a = &r.args;
    println!(
        "== {} (seed {}, N = {}, {} measured steps, {}) ==",
        a.workload.name,
        a.seed,
        a.n(),
        a.steps(),
        if a.traced {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for m in &r.metrics {
        print_metric(m);
    }
    if let Some(t) = &r.traced {
        println!(
            "  traced StepRecords identical to the untraced run: {}",
            t.records_match
        );
        println!("  self time over the measured steps, by span:");
        for row in &t.self_times {
            println!(
                "    {:<26} {:>5} calls {:>12.6} s {:>7.2} %",
                row.name,
                row.calls,
                row.self_s,
                100.0 * row.share
            );
        }
    }
    println!(
        "  steps_attempted {}  steps_failed {}  correct {}",
        r.attempted, r.failed, r.correct
    );
    println!("{}", contract_line(r));
}

/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`
pub fn contract_line(r: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {{\"value\": ", m.spec.name);
        push_json_f64(&mut out, m.value);
        let _ = write!(out, ", \"unit\": \"{}\"}}", m.spec.unit);
    }
    out.push_str("}}");
    out
}

/// Write the run's record lines, and the span trace of a traced run.
pub fn write_files(r: &RunResult) -> std::io::Result<()> {
    let name = r.args.workload.name;
    write_json_array(&records_path(name, r.args.traced), &record_lines(r))?;
    if let Some(t) = &r.traced {
        let path = out_dir().join(format!("trace-{name}.json"));
        std::fs::write(path, t.tracer.to_json(name, r.args.seed, &t.program_events))?;
    }
    Ok(())
}
