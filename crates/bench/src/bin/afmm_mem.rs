//! **afmm-mem** — the memory observatory's CLI: runs the same seeded
//! steady-state workload as the `memory_profile` perf-lab scenario and
//! renders what the two measurement systems see:
//!
//! * the **allocator view** (requires the `memprof` feature, which installs
//!   [`telemetry::CountingAlloc`] here as the global allocator): process
//!   totals, peak live bytes, and the per-scope attribution table built by
//!   [`telemetry::AllocScope`];
//! * the **structural view** (always available): `heap_bytes()` walks over
//!   bodies, octree, execution plan, and recorder — capacity-granular
//!   accounting that works with the stock allocator.
//!
//! ```text
//! afmm-mem report    [n] [steps]   # both views + zero-alloc gate, writes BENCH_mem.json
//! afmm-mem scopes    [n] [steps]   # per-scope allocation table only
//! afmm-mem footprint [n]           # structural footprint breakdown only
//! ```
//!
//! `report` enforces the steady-state invariant the perf lab gates on: a
//! warm cached-plan step performs **zero** allocations inside the `rebin`
//! and `plan.refresh` scopes. Like the `memory_profile` scenario, the
//! gate is measured over frozen-position steps (guaranteed cached-plan
//! path at any scale) after a motion phase that reports the dynamic
//! allocation profile. Exit codes follow the suite convention:
//! 0 = ok, 1 = gate violation, 2 = usage or I/O error. Without the
//! `memprof` feature the allocator view reports as disabled, the gate is
//! skipped, and only the structural view is shown.

use std::fmt::Write as _;

use afmm::FmmEngine;
use afmm::FmmParams;
use fmm_math::GravityKernel;
use geom::Vec3;
use telemetry::memprof;

/// Install the counting allocator so `memprof::counting()` lights up.
#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

/// Leaf capacity, matching the `memory_profile` scenario.
const S: usize = 96;
/// Workload seed, matching the perf lab's `cfg.seed + 9` for `memory_profile`.
const SEED: u64 = 7 + 9;

/// A warm engine plus the positions its plan was warmed on.
struct Workload {
    engine: FmmEngine<GravityKernel>,
    pos: Vec<Vec3>,
    mass: Vec<f64>,
}

/// Build the steady-state workload: a Plummer sphere under a uniform
/// contraction mild enough that no visible cell flips emptiness, so every
/// plan refresh takes the allocation-free patch path once warm.
fn warm_workload(n: usize, warmup: usize) -> Workload {
    let b = nbody::plummer(n, 1.0, 1.0, SEED);
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &b.pos, S);
    let mut pos = b.pos.clone();
    for _ in 0..warmup.max(2) {
        step(&mut engine, &mut pos, &b.mass);
    }
    Workload {
        engine,
        pos,
        mass: b.mass,
    }
}

fn step(engine: &mut FmmEngine<GravityKernel>, pos: &mut [Vec3], mass: &[f64]) {
    for p in pos.iter_mut() {
        *p *= 0.9995;
    }
    engine.rebin(pos);
    std::hint::black_box(engine.solve(pos, mass));
}

/// `1234567` → `"1.18 MiB"` — a human-scaled byte count.
fn human(bytes: u64) -> String {
    const UNITS: [&str; 4] = ["B", "KiB", "MiB", "GiB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

/// Run `steps` measured iterations with scope/peak counters reset at the
/// start; returns the measured global stats.
fn measure(w: &mut Workload, steps: usize) -> telemetry::GlobalStats {
    memprof::reset_scopes();
    memprof::reset_peak();
    for _ in 0..steps.max(1) {
        step(&mut w.engine, &mut w.pos, &w.mass);
    }
    memprof::global()
}

fn print_scope_table(steps: usize) {
    let scopes = memprof::scopes();
    if scopes.is_empty() {
        println!("  (no scope activations recorded)");
        return;
    }
    println!(
        "  {:<14} {:>10} {:>14} {:>14} {:>14}",
        "scope", "allocs", "alloc bytes", "freed bytes", "peak live"
    );
    for (name, sc) in scopes {
        println!(
            "  {:<14} {:>10} {:>14} {:>14} {:>14}",
            name,
            sc.allocs,
            human(sc.alloc_bytes),
            human(sc.free_bytes),
            human(sc.peak_live_bytes),
        );
    }
    println!("  ({steps} measured steps; counts are totals across all of them)");
}

/// Structural footprint rows: (label, bytes). The divisor trio for the
/// per-unit lines is returned alongside.
fn footprint_rows(w: &Workload) -> (Vec<(&'static str, usize)>, usize, usize, usize) {
    let tree_bytes = w.engine.tree().heap_bytes();
    let bodies_bytes = w.pos.capacity() * std::mem::size_of::<Vec3>()
        + w.mass.capacity() * std::mem::size_of::<f64>();
    let plan_bytes = w.engine.heap_bytes() - tree_bytes;
    let rows = vec![
        ("bodies", bodies_bytes),
        ("octree", tree_bytes),
        ("plan+solve", plan_bytes),
    ];
    let nodes = w.engine.tree().num_nodes();
    let entries = w.engine.lists().num_m2l() + w.engine.lists().num_p2p_pairs();
    (rows, w.pos.len(), nodes, entries)
}

fn print_footprint(w: &Workload) {
    let (rows, bodies, nodes, entries) = footprint_rows(w);
    let total: usize = rows.iter().map(|(_, b)| b).sum();
    println!("# structural footprint (capacity granularity)");
    for (label, bytes) in &rows {
        println!("  {label:<12} {:>12}", human(*bytes as u64));
    }
    println!("  {:<12} {:>12}", "total", human(total as u64));
    println!(
        "  per body {:.1} B ({bodies} bodies), per node {:.1} B ({nodes} nodes), \
         per list entry {:.1} B ({entries} entries)",
        total as f64 / bodies.max(1) as f64,
        w.engine.tree().heap_bytes() as f64 / nodes.max(1) as f64,
        (w.engine.heap_bytes() - w.engine.tree().heap_bytes()) as f64 / entries.max(1) as f64,
    );
    if memprof::counting() {
        let live = memprof::global().live_bytes;
        println!(
            "  allocator live bytes: {} (structural total covers {:.0}% of process live)",
            human(live),
            100.0 * total as f64 / live.max(1) as f64
        );
    }
}

fn cmd_report(n: usize, steps: usize) -> i32 {
    let mut w = warm_workload(n, 2);
    let g = measure(&mut w, steps);
    println!("# afmm-mem report: n={n}, s={S}, {steps} steady-state steps");
    if memprof::counting() {
        println!(
            "# allocator view: {} allocs / {} frees, {} allocated, peak live {}",
            g.allocs,
            g.frees,
            human(g.alloc_bytes),
            human(g.peak_live_bytes)
        );
        print_scope_table(steps);
    } else {
        println!("# allocator view disabled (build with --features memprof); gate skipped");
    }
    print_footprint(&w);

    // Gate phase: frozen positions, so every refresh provably stays on the
    // cached-plan Clean path (under motion a legitimate emptiness-flip
    // rebuild would allocate). Rebin still re-sorts every body.
    memprof::reset_scopes();
    for _ in 0..steps.max(1) {
        w.engine.rebin(&w.pos);
        std::hint::black_box(w.engine.solve(&w.pos, &w.mass));
    }
    let rebin = memprof::scope_stats("rebin").unwrap_or_default();
    let refresh = memprof::scope_stats("plan.refresh").unwrap_or_default();
    let gate_allocs = rebin.allocs + refresh.allocs;
    let (rows, bodies, nodes, entries) = footprint_rows(&w);
    let total: usize = rows.iter().map(|(_, b)| b).sum();
    let mut doc = String::new();
    let _ = write!(
        doc,
        "{{\n  \"config\": {{\"n\": {n}, \"s\": {S}, \"steps\": {steps}}},\n  \
         \"counting\": {},\n  \
         \"global\": {{\"allocs\": {}, \"frees\": {}, \"alloc_bytes\": {}, \
         \"peak_live_bytes\": {}}},\n  \
         \"gate\": {{\"steady_gate_allocs\": {gate_allocs}}},\n  \"scopes\": {{",
        memprof::counting(),
        g.allocs,
        g.frees,
        g.alloc_bytes,
        g.peak_live_bytes,
    );
    for (i, (name, sc)) in memprof::scopes().iter().enumerate() {
        let _ = write!(
            doc,
            "{}\n    \"{name}\": {{\"allocs\": {}, \"alloc_bytes\": {}, \
             \"free_bytes\": {}, \"peak_live_bytes\": {}}}",
            if i == 0 { "" } else { "," },
            sc.allocs,
            sc.alloc_bytes,
            sc.free_bytes,
            sc.peak_live_bytes,
        );
    }
    let _ = write!(
        doc,
        "\n  }},\n  \"footprint\": {{\"bodies_bytes\": {}, \"tree_bytes\": {}, \
         \"plan_bytes\": {}, \"total_bytes\": {total}, \"bodies\": {bodies}, \
         \"nodes\": {nodes}, \"list_entries\": {entries}}}\n}}\n",
        rows[0].1, rows[1].1, rows[2].1,
    );
    let path = bench::out_path("BENCH_mem.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("# FAIL: write {}: {e}", path.display());
        return 2;
    }
    println!("# report: {}", path.display());

    if memprof::counting() {
        if gate_allocs > 0 {
            eprintln!(
                "# GATE FAIL: {gate_allocs} allocation(s) inside rebin/plan.refresh \
                 during steady state (expected 0: warm scratch buffers cover both)"
            );
            return 1;
        }
        println!("# zero-alloc steady-state gate holds (rebin + plan.refresh: 0 allocs)");
    }
    0
}

fn cmd_scopes(n: usize, steps: usize) -> i32 {
    if !memprof::counting() {
        eprintln!("# allocator view disabled: build with --features memprof to see scopes");
        return 0;
    }
    let mut w = warm_workload(n, 2);
    measure(&mut w, steps);
    println!("# afmm-mem scopes: n={n}, {steps} steady-state steps");
    print_scope_table(steps);
    0
}

fn cmd_footprint(n: usize) -> i32 {
    let w = warm_workload(n, 2);
    println!("# afmm-mem footprint: n={n}, s={S} (warm steady state)");
    print_footprint(&w);
    0
}

fn main() {
    const USAGE: &str = "<report|scopes|footprint> [n] [steps]";
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprintln!("afmm-mem: missing subcommand\nusage: afmm-mem {USAGE}");
        std::process::exit(2);
    };
    let mut args = bench::cli::Args::from_vec("afmm-mem", USAGE, raw[1..].to_vec());
    let n = args.opt_usize_or_exit("n", 2000);
    // Allocation scopes are per thread: measure the width-1 schedule, like
    // the `memory_profile` scenario.
    let code = bench::one_worker(|| match cmd.as_str() {
        "report" => {
            let steps = args.opt_usize_or_exit("steps", 8);
            args.finish_or_exit();
            cmd_report(n, steps)
        }
        "scopes" => {
            let steps = args.opt_usize_or_exit("steps", 8);
            args.finish_or_exit();
            cmd_scopes(n, steps)
        }
        "footprint" => {
            args.finish_or_exit();
            cmd_footprint(n)
        }
        other => {
            eprintln!("afmm-mem: unknown subcommand \"{other}\"\nusage: afmm-mem {USAGE}");
            std::process::exit(2);
        }
    });
    std::process::exit(code);
}
