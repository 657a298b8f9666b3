//! `check`: all five workloads at tiny sizes, asserting the benchmark's own
//! invariants — every named metric present with its unit, the step's time
//! covered by spans, traced records identical to untraced, no failed step.

use crate::run::{self, RunArgs, RunResult};
use crate::spec::{Kind, MetricSpec, DEFAULT_SEED, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

/// Instrumented calls must cover the step to within this share of its wall.
const UNCOVERED_TOLERANCE: f64 = 0.02;

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.spec.name == name)
        .map_or(f64::NAN, |m| m.value)
}

fn check_run(r: &RunResult, problems: &mut Vec<String>) {
    let w = r.args.workload.name;
    let mut fail = |what: String| problems.push(format!("{w}: {what}"));
    let table: &[MetricSpec] = if r.args.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    // A metric carries its table entry, so name and unit cannot drift apart;
    // what can go wrong is a missing or reordered metric.
    let got = r.metrics.iter().map(|m| m.spec.name);
    if !got.eq(table.iter().map(|m| m.name)) {
        fail("metrics are not the table's, in its order".into());
    }
    for m in &r.metrics {
        if !m.value.is_finite() {
            fail(format!("{} is {}", m.spec.name, m.value));
        }
    }
    if !r.correct || r.failed > 0 {
        fail(format!("{} of {} steps failed", r.failed, r.attempted));
    }
    let Some(traced) = &r.traced else {
        for m in END_TO_END {
            if value(r, m.name) == 0.0 {
                fail(format!("end-to-end metric {} is zero", m.name));
            }
        }
        return;
    };
    if !traced.records_match {
        fail("traced StepRecords differ from untraced".into());
    }
    let uncovered = value(r, "telemetry.step_uncovered_frac");
    if uncovered.is_nan() || uncovered > UNCOVERED_TOLERANCE {
        fail(format!("spans leave {uncovered} of the step uncovered"));
    }
    let share: f64 = traced.self_times.iter().map(|t| t.share).sum();
    if (share - 1.0).abs() > 1e-9 {
        fail(format!("self-time shares sum to {share}"));
    }
    let solves = r.args.workload.kind != Kind::Track;
    let kernel_time = value(r, "fmm-math.p2p_ns_per_pair") + value(r, "fmm-math.m2l_us_per_op");
    if solves != (kernel_time > 0.0) || solves != (value(r, "afmm.solve_s") > 0.0) {
        fail("fmm-math time must be positive exactly on the solving workloads".into());
    }
}

/// Run everything small; returns the list of violated invariants.
pub fn run() -> Vec<String> {
    let mut problems = Vec::new();
    for workload in &WORKLOADS {
        for traced in [false, true] {
            let args = RunArgs {
                workload,
                seed: DEFAULT_SEED,
                seconds: RUN_SECONDS,
                traced,
                check: true,
            };
            match run::run(args) {
                Ok(r) => check_run(&r, &mut problems),
                Err(e) => problems.push(format!("{}: {e}", workload.name)),
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_workloads_hold_their_invariants_at_tiny_sizes() {
        let problems = super::run();
        assert!(problems.is_empty(), "{problems:#?}");
    }

    #[test]
    fn manifest_is_the_checked_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            crate::spec::manifest(),
            "regenerate with the `manifest` subcommand"
        );
    }
}
