//! Memory-observatory properties, run with the counting allocator installed
//! (`cargo test --features memprof --test memprof`):
//!
//! * **zero-alloc steady state** — once a tree's rebin scratch and a plan's
//!   refresh scratch are warm, `Octree::rebin` on one worker performs no
//!   allocations at all, and `IncrementalLists::refresh_counts` performs
//!   none when no visible cell emptied or filled (a flip patch may grow the
//!   lists it links into);
//! * **a forked rebin allocates for its forks only** — with more workers and
//!   bodies enough for two runs the `rebin` scope holds the calling thread's
//!   share of two fork-joins: the same few allocations at any body count;
//! * **a rebuild refills in place** — a warm plan rebuilt over an unchanged
//!   tree allocates nothing on one worker and only its forks' bookkeeping on
//!   more;
//! * **a warm pricing allocates nothing** — `Octree::price` at the paper's
//!   N, on one worker, once its scratch has held as large a candidate;
//! * **structural/allocator agreement** — the `heap_bytes()` walks over
//!   bodies + octree + plan land within 15% of what the allocator says is
//!   actually live for those structures.
//!
//! Without the `memprof` feature the counting hooks compile to no-ops and
//! `memprof::counting()` stays false, so every test passes vacuously. The
//! allocator counters are process-global, so every test here serializes on
//! one lock. Allocation *scopes* are per thread: a forked worker's scratch
//! reaches the global counters but no named scope, so the first and last
//! properties are measured on one worker (any host then counts the same).

use std::sync::Mutex;

use afmm::{FmmEngine, FmmParams};
use fmm_math::GravityKernel;
use geom::Vec3;
use octree::{build_adaptive, BuildParams, IncrementalLists, Mac, PlanRefresh, PriceScratch};
use proptest::prelude::*;
use telemetry::memprof;

/// The hooks only count once the wrapper is the global allocator, which a
/// test binary has to opt into itself.
#[cfg(feature = "memprof")]
#[global_allocator]
static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;

/// Allocator counters are process-global; concurrent test bodies would
/// bleed into each other's deltas.
static LOCK: Mutex<()> = Mutex::new(());

fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool is only a width")
        .install(op)
}

fn plummer_points(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>) {
    let b = nbody::plummer(n, 1.0, 1.0, seed);
    (b.pos, b.mass)
}

/// Scope-tagged allocation counts for the two gated scopes.
fn gate_counts() -> (u64, u64) {
    let rebin = memprof::scope_stats("rebin").unwrap_or_default();
    let refresh = memprof::scope_stats("plan.refresh").unwrap_or_default();
    (rebin.allocs, refresh.allocs)
}

/// One case of the steady-state property: warm tree + warm plan, then
/// `steps` of contraction by `factor`.
fn steady_state_case(seed: u64, n: usize, factor: f64, steps: usize) {
    let (mut pos, _) = plummer_points(n, seed);
    let mut tree = build_adaptive(&pos, BuildParams::with_s(48));
    let mut plan = IncrementalLists::build(&tree, Mac::default());

    // Warmup pays the one-time scratch allocations: the rebin's pair
    // buffer and per-leaf tables, and the refresh walk stack.
    for p in pos.iter_mut() {
        *p *= factor;
    }
    tree.rebin(&pos);
    let _ = plan.refresh_counts(&tree);

    // The Patched path recounts into the per-node counts it holds, so even
    // the refresh right after one that patched flips allocates nothing.
    for _ in 0..steps {
        for p in pos.iter_mut() {
            *p *= factor;
        }
        let (rebin0, refresh0) = gate_counts();
        tree.rebin(&pos);
        let outcome = plan.refresh_counts(&tree);
        let (rebin1, refresh1) = gate_counts();
        assert_eq!(rebin1, rebin0, "rebin allocated while warm");
        if !matches!(outcome, PlanRefresh::Patched { flips: 1.., .. }) {
            assert_eq!(
                refresh1, refresh0,
                "{outcome:?} refresh allocated while warm"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Warm tree + warm plan, then several steps of mild uniform
    /// contraction: rebin must never allocate, and any refresh that finds
    /// no emptiness flip must not either.
    #[test]
    fn steady_state_is_allocation_free(
        seed in 0u64..1000,
        n in 600usize..2000,
        factor in 0.9990f64..0.9999,
        steps in 2usize..6,
    ) {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        if !memprof::counting() {
            return Ok(()); // feature off: nothing to measure
        }
        at_width(1, || steady_state_case(seed, n, factor, steps));
    }
}

/// The engine's whole warm step with workers forking under the solve.
/// 2 000 bodies make fewer than the 1 024 arena nodes from which
/// `plan.refresh` recounts through workers, and one run to `rebin`, so
/// neither forks, and no worker, item list or spawn
/// bookkeeping may show up in either — the perf lab's
/// `steady_gate_allocs == 0`, here at the host's own width and at 3.
#[test]
fn gated_scopes_stay_allocation_free_with_workers_forking() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let (pos, mass) = plummer_points(2000, 5);
    let mut engine = FmmEngine::new(GravityKernel::default(), FmmParams::default(), &pos, 48);
    let warm_step = |engine: &mut FmmEngine<GravityKernel>| {
        engine.rebin(&pos);
        std::hint::black_box(engine.solve(&pos, &mass));
    };
    for width in [rayon::current_num_threads(), 3] {
        at_width(width, || {
            warm_step(&mut engine);
            warm_step(&mut engine);
            let before = gate_counts();
            let global0 = memprof::global().allocs;
            warm_step(&mut engine);
            assert_eq!(gate_counts(), before, "width {width}");
            assert!(
                memprof::global().allocs > global0,
                "the solve itself allocates"
            );
        });
    }
}

/// What one warm `rebin` of `n` bodies adds to the `rebin` scope.
fn warm_rebin_allocs(n: usize) -> (u64, u64) {
    let (mut pos, _) = plummer_points(n, 7);
    let mut tree = build_adaptive(&pos, BuildParams::with_s(48));
    let mut measured = (0, 0);
    for _ in 0..3 {
        for p in pos.iter_mut() {
            *p *= 0.9995;
        }
        let before = memprof::scope_stats("rebin").unwrap_or_default();
        tree.rebin(&pos);
        let after = memprof::scope_stats("rebin").unwrap_or_default();
        measured = (
            after.allocs - before.allocs,
            after.alloc_bytes - before.alloc_bytes,
        );
    }
    measured
}

/// With bodies enough for one run per worker, `rebin` forks twice (sift the
/// leaves' bodies, place them) and the calling thread's share of a fork — the handle
/// list, its own batch buffer, what `thread::spawn` allocates — lands in the
/// `rebin` scope. That is all that may: the same allocations at 70 000 bodies
/// and at 140 000 (eight runs' worth either way), a few KB, so a buffer that
/// grows with N cannot hide among them. On one worker there is no fork and
/// the count is zero.
#[test]
fn forked_rebin_allocates_only_the_forks_bookkeeping() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    for width in [1, 2, 3, 8] {
        let (small, large) = at_width(width, || {
            (warm_rebin_allocs(70_000), warm_rebin_allocs(140_000))
        });
        assert_eq!(small, large, "width {width}: allocations grow with N");
        assert_eq!(small.0 == 0, width == 1, "width {width}: {small:?}");
        assert!(small.1 < 4096, "width {width}: {small:?}");
    }
}

/// What a warm `IncrementalLists::rebuild` of an unchanged tree of `n`
/// bodies adds to a scope of its own on the calling thread.
fn warm_rebuild_allocs(n: usize) -> (u64, u64) {
    let (pos, _) = plummer_points(n, 17);
    let tree = build_adaptive(&pos, BuildParams::with_s(16));
    let mut plan = IncrementalLists::build(&tree, Mac::default());
    let mut measured = (0, 0);
    for _ in 0..2 {
        let before = memprof::scope_stats("test.rebuild").unwrap_or_default();
        {
            let _mem = telemetry::AllocScope::enter("test.rebuild");
            plan.rebuild(&tree);
        }
        let after = memprof::scope_stats("test.rebuild").unwrap_or_default();
        measured = (
            after.allocs - before.allocs,
            after.alloc_bytes - before.alloc_bytes,
        );
    }
    measured
}

/// A rebuild refills the plan's own lists, counts and stamps in place, so
/// on one worker a rebuild of a tree that did not change allocates nothing.
/// With more workers its two forks (traversal, counts) put their
/// bookkeeping in the scope, as `rebin`'s do: the same allocations for a
/// tree twice the size, a few KB, so no list or buffer can hide among them.
#[test]
fn rebuild_of_an_unchanged_tree_allocates_nothing_at_one_worker() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    for width in [1, 2, 3, 8] {
        let (small, large) = at_width(width, || {
            (warm_rebuild_allocs(20_000), warm_rebuild_allocs(40_000))
        });
        assert_eq!(small, large, "width {width}: allocations grow with N");
        assert_eq!(small.0 == 0, width == 1, "width {width}: {small:?}");
        assert!(small.1 < 8192, "width {width}: {small:?}");
    }
}

/// `Octree::price` cuts a candidate's nodes into its scratch and tallies
/// the traversal in locals, so at 1M bodies on one worker a pricing whose
/// scratch has held a candidate as large allocates nothing — whatever S it
/// priced last.
#[test]
fn warm_price_allocates_nothing_at_one_worker() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let (pos, _) = plummer_points(1_000_000, 19);
    at_width(1, || {
        let tree = build_adaptive(&pos, BuildParams::with_s(64));
        let mut scratch = PriceScratch::default();
        tree.price(181, Mac::default(), &mut scratch);
        for s in [181, 861, 435, 181] {
            let before = memprof::scope_stats("test.price").unwrap_or_default();
            {
                let _mem = telemetry::AllocScope::enter("test.price");
                tree.price(s, Mac::default(), &mut scratch);
            }
            let after = memprof::scope_stats("test.price").unwrap_or_default();
            assert_eq!(
                after.allocs, before.allocs,
                "S {s}: a warm pricing allocated"
            );
        }
    });
}

/// A restored tree carries no scratch: its first `rebin` re-warms the pair
/// buffer and the walk stack, its second allocates nothing.
#[test]
fn restored_tree_rewarms_on_its_first_rebin_only() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let (pos, _) = plummer_points(3000, 13);
    at_width(1, || {
        let snapshot = build_adaptive(&pos, BuildParams::with_s(48)).snapshot();
        let mut tree = octree::Octree::from_snapshot(snapshot).expect("own snapshot");
        let allocs = || memprof::scope_stats("rebin").unwrap_or_default().allocs;
        let cold = allocs();
        tree.rebin(&pos);
        let warm = allocs();
        assert!(warm > cold, "the first rebin has scratch to allocate");
        tree.rebin(&pos);
        assert_eq!(allocs(), warm, "the second rebin allocated");
    });
}

/// `heap_bytes()` is a structural estimate (capacity-granular Vec walks);
/// the allocator's live-byte delta around construction is ground truth.
/// They must agree within 15% for the paper-scale working set.
#[test]
fn structural_heap_bytes_tracks_allocator_live_bytes() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    if !memprof::counting() {
        return; // feature off: nothing to measure
    }
    let live0 = memprof::global().live_bytes;
    let (b, tree, plan) = at_width(1, || {
        let b = nbody::plummer(3000, 1.0, 1.0, 11);
        let tree = build_adaptive(&b.pos, BuildParams::with_s(48));
        let plan = IncrementalLists::build(&tree, Mac::default());
        (b, tree, plan)
    });
    let live1 = memprof::global().live_bytes;

    let measured = (live1 - live0) as f64;
    let structural = (b.heap_bytes() + tree.heap_bytes() + plan.heap_bytes()) as f64;
    std::hint::black_box((&b, &tree, &plan));

    let ratio = structural / measured;
    assert!(
        (0.85..=1.15).contains(&ratio),
        "structural {structural} B vs allocator-live {measured} B (ratio {ratio:.3}): \
         the heap_bytes() walks drifted from what is actually allocated"
    );
}
