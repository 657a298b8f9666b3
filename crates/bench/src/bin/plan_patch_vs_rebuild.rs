//! **Plan-layer economics** (no paper figure — engineering validation): how
//! much cheaper is patching a live [`octree::IncrementalLists`] through a
//! single Collapse/PushDown than re-deriving the interaction lists and op
//! counts from scratch, across the S range the balancer sweeps?
//!
//! Thin wrapper over [`bench::harness::measure_plan_economy`] — the same
//! measurement the perf-lab's `plan_patch_vs_rebuild` scenario runs at one
//! fixed S, swept here over the balancer's S range for the table. The
//! perf-lab (`afmm-perf run`) is what gates regressions; this bin keeps the
//! historical `BENCH_plan.json` artifact and its S-sweep shape.
//!
//! Output: `BENCH_plan.json` (in `$BENCH_OUT_DIR` when set, CWD otherwise;
//! also echoed to stdout). Override scale:
//! `plan_patch_vs_rebuild [bodies] [edits_per_s]`.

use bench::harness::measure_plan_economy;
use octree::{build_adaptive, BuildParams, Mac};
use telemetry::json::{obj, Json};

struct Row {
    s: usize,
    rebuild_us: f64,
    patch_us_per_edit: f64,
    edits: usize,
}

fn main() {
    let mut args = bench::cli::Args::parse("plan_patch_vs_rebuild", "[bodies] [edits_per_s]");
    let n = args.opt_usize_or_exit("bodies", 120_000);
    let edits_per_s = args.opt_usize_or_exit("edits_per_s", 48);
    args.finish_or_exit();

    let b = nbody::plummer(n, 1.0, 1.0, 777);
    let mac = Mac::default();
    let s_values = [64usize, 128, 256, 512, 1024];
    let reps = 3;

    let mut rows = Vec::new();
    for &s in &s_values {
        let mut tree = build_adaptive(&b.pos, BuildParams::with_s(s));
        // Average `reps` measurements on the same tree; every collapse is
        // reverted by its push-down, so the passes are identical work.
        let (mut rebuild_us, mut patch_us, mut edits) = (0.0, 0.0, 0);
        for _ in 0..reps {
            let e = measure_plan_economy(&mut tree, mac, edits_per_s);
            rebuild_us += e.rebuild_us / reps as f64;
            patch_us += e.patch_us_per_edit / reps as f64;
            edits = e.edits;
        }
        rows.push(Row {
            s,
            rebuild_us,
            patch_us_per_edit: patch_us,
            edits,
        });
    }

    let steps = rows
        .iter()
        .map(|r| {
            obj(vec![
                ("s", Json::U64(r.s as u64)),
                ("rebuild_us", Json::F64(r.rebuild_us)),
                ("patch_us_per_edit", Json::F64(r.patch_us_per_edit)),
                ("edits", Json::U64(r.edits as u64)),
                ("speedup", Json::F64(r.rebuild_us / r.patch_us_per_edit)),
            ])
        })
        .collect();
    let config = obj(vec![
        ("bodies", Json::U64(n as u64)),
        ("mac_theta", Json::F64(mac.theta)),
        ("edits_per_s", Json::U64(edits_per_s as u64)),
        ("rebuild_reps", Json::U64(reps as u64)),
    ]);
    let mut doc = obj(vec![("config", config), ("steps", Json::Arr(steps))]).to_json();
    doc.push('\n');

    let path = bench::out_path("BENCH_plan.json");
    std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    print!("{doc}");

    let worst = rows
        .iter()
        .map(|r| r.rebuild_us / r.patch_us_per_edit)
        .fold(f64::INFINITY, f64::min);
    eprintln!("# worst-case patch speedup over the S sweep: {worst:.1}x");
}
