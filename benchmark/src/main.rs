//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! afmm-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]   one run (the driver's form)
//! afmm-benchmark all [--workload <name>] [--seed N] [--seconds S] [--runs K]  full set -> out/result.json
//! afmm-benchmark check                                                      tiny sizes, invariants
//! afmm-benchmark compare A.json B.json                                      deltas against the bounds
//! afmm-benchmark manifest                                                   print BENCHMARK.json
//! ```

mod check;
mod compare;
mod inputs;
mod loops;
mod probes;
mod report;
mod run;
mod spec;
mod stats;
mod trace;

use run::RunArgs;
use spec::{Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::path::Path;
use std::process::{Command, ExitCode};

struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        runs: 1,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek().filter(|a| !a.starts_with("--")) {
        cli.command = first.to_string();
        it.next();
    }
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            cli.positional.push(arg.clone());
            continue;
        }
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{arg} {value}: not a whole number"))
        };
        match arg.as_str() {
            "--workload" => {
                cli.workload = Some(spec::workload(value).ok_or(format!(
                    "unknown workload {value}; known: {}",
                    WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => cli.seed = number()?,
            "--seconds" => cli.seconds = number()?.clamp(1, 60),
            "--runs" => cli.runs = number()?.max(1) as usize,
            "--trace" => {
                cli.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {arg}")),
        }
    }
    Ok(cli)
}

/// One run in this process: print it, write its files, fail on any failed step.
fn run_one(cli: &Cli) -> Result<bool, String> {
    let workload = cli.workload.ok_or("--workload is required")?;
    let result = run::run(RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
        check: false,
    })?;
    report::write_files(&result)
        .map_err(|e| format!("writing under {}: {e}", report::out_dir().display()))?;
    report::print(&result);
    Ok(result.correct)
}

fn first_line_of(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The header line of `result.json`: what ran, where, on which commit.
fn set_header(cli: &Cli) -> String {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    report::Line::new("set")
        .str("cpu", &cpu)
        .str("rustc", &first_line_of("rustc", &["--version"], here))
        .str(
            "commit",
            &first_line_of("git", &["rev-parse", "HEAD"], here),
        )
        .int("nproc", nproc as u64)
        .int("seed", cli.seed)
        .int("seconds", cli.seconds)
        .int("runs", cli.runs as u64)
        .end()
}

/// The full set: every workload untraced then traced, each in a fresh
/// process so `peak_rss_mb` is that workload's own, merged into `result.json`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut lines = vec![set_header(cli)];
    let mut all_correct = true;
    for _ in 0..cli.runs {
        for w in WORKLOADS
            .iter()
            .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
        {
            for traced in [false, true] {
                let status = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &cli.seed.to_string()])
                    .args(["--seconds", &cli.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .status()
                    .map_err(|e| format!("starting {}: {e}", exe.display()))?;
                all_correct &= status.success();
                lines.extend(report::read_json_array(&report::records_path(
                    w.name, traced,
                ))?);
            }
        }
    }
    let path = report::out_dir().join("result.json");
    report::write_json_array(&path, &lines).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn dispatch(cli: &Cli) -> Result<bool, String> {
    match (cli.command.as_str(), cli.positional.as_slice()) {
        ("run", []) => run_one(cli),
        ("all", []) => run_all(cli),
        ("check", []) => {
            let problems = check::run();
            for p in &problems {
                eprintln!("check: {p}");
            }
            println!("check: {} problem(s)", problems.len());
            Ok(problems.is_empty())
        }
        ("compare", [a, b]) => compare::run(Path::new(a), Path::new(b)),
        ("manifest", []) => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        _ => Err("usage: [--workload W --seed N --seconds S --trace 0|1] | all | check | compare A.json B.json | manifest".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| dispatch(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("afmm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
