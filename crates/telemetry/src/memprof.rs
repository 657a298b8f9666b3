//! Scoped allocation profiling: a counting [`std::alloc::GlobalAlloc`]
//! wrapper plus a thread-local RAII [`AllocScope`] tag stack that
//! attributes allocation counts, bytes, and peak-live-bytes to named scopes.
//!
//! Two accounting systems coexist in the workspace and answer different
//! questions (see DESIGN.md §12):
//!
//! * **Allocator accounting** (this module, feature `memprof`): *how many
//!   times did we hit the allocator, and from where?* Exact counts from a
//!   `CountingAlloc` installed as the `#[global_allocator]` by bins and
//!   test harnesses. Deterministic on a fixed workload, so CI can gate the
//!   steady-state solve path at **zero** allocations with no noise band.
//! * **Structural accounting** (`heap_bytes()` on `Bodies`, `Octree`,
//!   `IncrementalLists`, `FmmEngine`, [`Recorder`](crate::Recorder)):
//!   *how big are the load-bearing structures?* Computed from container
//!   capacities, available with or without the feature, and attributable
//!   to bytes-per-body / bytes-per-node ratios.
//!
//! Attribution is **exclusive** (innermost frame only): an allocation made
//! while scopes `A` → `B` are both live is charged to `B` alone, never to
//! `A`. This is what makes the zero-alloc gate composable — the
//! `"telemetry"` scope wrapped around `Recorder::push` absorbs observer
//! allocations so they never pollute the `"rebin"`/`"plan.refresh"` scopes
//! that the gate covers.
//!
//! With the feature **off**, [`AllocScope::enter`] is an inline no-op unit
//! guard and every query returns zeros: call sites stay unconditional, the
//! build carries no allocator wrapping, and the only residue is a dead
//! `#[must_use]` unit struct.

#[cfg(feature = "memprof")]
use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(feature = "memprof")]
use std::cell::UnsafeCell;
#[cfg(feature = "memprof")]
use std::collections::BTreeMap;
#[cfg(feature = "memprof")]
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(feature = "memprof")]
use std::sync::Mutex;

/// Whole-process allocation totals since start (or the last [`reset`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalStats {
    pub allocs: u64,
    pub frees: u64,
    pub alloc_bytes: u64,
    pub free_bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since start / last [`reset_peak`].
    pub peak_live_bytes: u64,
}

/// Per-scope totals accumulated across every activation of a scope name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopeStats {
    pub allocs: u64,
    pub frees: u64,
    pub alloc_bytes: u64,
    pub free_bytes: u64,
    /// Maximum net live bytes attributable to this scope within a single
    /// activation (allocations minus frees made *while innermost*).
    pub peak_live_bytes: u64,
}

// ---------------------------------------------------------------------------
// Feature ON: the real implementation.
// ---------------------------------------------------------------------------

/// Global counters. Only [`CountingAlloc`] advances them, so
/// `ALLOCS > 0` doubles as "the wrapper is installed in this process".
#[cfg(feature = "memprof")]
static ALLOCS: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "memprof")]
static FREES: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "memprof")]
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "memprof")]
static FREE_BYTES: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "memprof")]
static LIVE: AtomicU64 = AtomicU64::new(0);
#[cfg(feature = "memprof")]
static PEAK: AtomicU64 = AtomicU64::new(0);

/// Accumulated per-scope totals, folded in on [`AllocScope`] drop (the
/// fold may allocate — it runs *outside* the allocator hook, attributed to
/// the parent frame if any).
#[cfg(feature = "memprof")]
static SCOPES: Mutex<BTreeMap<&'static str, ScopeStats>> = Mutex::new(BTreeMap::new());

/// Deepest scope nesting tracked per thread. Scopes entered beyond this
/// depth merge their attribution into the `MAX_DEPTH`-th frame — the
/// workspace nests at most 3 deep (solve → phase → telemetry).
#[cfg(feature = "memprof")]
const MAX_DEPTH: usize = 16;

#[cfg(feature = "memprof")]
#[derive(Clone, Copy)]
struct Frame {
    name: &'static str,
    allocs: u64,
    frees: u64,
    alloc_bytes: u64,
    free_bytes: u64,
    /// Net live bytes from allocations made while this frame was innermost;
    /// signed because a frame may free more than it allocates.
    net_live: i64,
    peak_net: i64,
}

#[cfg(feature = "memprof")]
const EMPTY_FRAME: Frame = Frame {
    name: "",
    allocs: 0,
    frees: 0,
    alloc_bytes: 0,
    free_bytes: 0,
    net_live: 0,
    peak_net: 0,
};

#[cfg(feature = "memprof")]
struct FrameStack {
    /// Logical depth; may exceed `MAX_DEPTH`, in which case the extra
    /// scopes alias the last frame.
    depth: usize,
    frames: [Frame; MAX_DEPTH],
}

// SAFETY of every `STACK.with` below: the stack is thread-local and each
// access is a short, non-reentrant read-modify-write. The allocator hooks
// (`on_alloc`/`on_dealloc`) perform no allocation and call nothing that
// could re-enter the TLS; `AllocScope::enter`/`drop` touch the stack only
// outside any allocating call. `try_with` tolerates TLS teardown during
// thread exit (allocations there simply go unattributed to any scope).
#[cfg(feature = "memprof")]
thread_local! {
    static STACK: UnsafeCell<FrameStack> = const {
        UnsafeCell::new(FrameStack { depth: 0, frames: [EMPTY_FRAME; MAX_DEPTH] })
    };
}

/// Counting allocator wrapper around [`System`]. Install from a **bin or
/// test crate** (the workspace libraries never install it themselves):
///
/// ```ignore
/// #[cfg(feature = "memprof")]
/// #[global_allocator]
/// static ALLOC: telemetry::CountingAlloc = telemetry::CountingAlloc;
/// ```
#[cfg(feature = "memprof")]
pub struct CountingAlloc;

#[cfg(feature = "memprof")]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as one free + one alloc: a realloc that grows a
            // buffer on a "zero-alloc" path is exactly the event the gate
            // exists to catch, so it must not be invisible.
            on_dealloc(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Hook body shared by `alloc`/`alloc_zeroed`/`realloc`. Must not allocate.
#[cfg(feature = "memprof")]
#[inline]
fn on_alloc(size: u64) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    // CAS-loop peak update; contention is rare and bounded.
    let mut peak = PEAK.load(Ordering::Relaxed);
    while live > peak {
        match PEAK.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(p) => peak = p,
        }
    }
    let _ = STACK.try_with(|s| {
        // SAFETY: see the comment on `STACK`.
        let st = unsafe { &mut *s.get() };
        if st.depth > 0 {
            let f = &mut st.frames[st.depth.min(MAX_DEPTH) - 1];
            f.allocs += 1;
            f.alloc_bytes += size;
            f.net_live += size as i64;
            f.peak_net = f.peak_net.max(f.net_live);
        }
    });
}

/// Must not allocate.
#[cfg(feature = "memprof")]
#[inline]
fn on_dealloc(size: u64) {
    FREES.fetch_add(1, Ordering::Relaxed);
    FREE_BYTES.fetch_add(size, Ordering::Relaxed);
    LIVE.fetch_sub(size, Ordering::Relaxed);
    let _ = STACK.try_with(|s| {
        // SAFETY: see the comment on `STACK`.
        let st = unsafe { &mut *s.get() };
        if st.depth > 0 {
            let f = &mut st.frames[st.depth.min(MAX_DEPTH) - 1];
            f.frees += 1;
            f.free_bytes += size;
            f.net_live -= size as i64;
        }
    });
}

/// RAII scope tag: allocations made while this guard is the innermost one
/// on its thread are attributed to `name`. Mirrors
/// [`SpanGuard`](crate::SpanGuard), but tracks bytes instead of time.
#[cfg(feature = "memprof")]
#[must_use = "an AllocScope attributes allocations only while it is alive"]
pub struct AllocScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

#[cfg(feature = "memprof")]
impl AllocScope {
    /// Push `name` onto this thread's scope stack.
    #[inline]
    pub fn enter(name: &'static str) -> AllocScope {
        let _ = STACK.try_with(|s| {
            // SAFETY: see the comment on `STACK`.
            let st = unsafe { &mut *s.get() };
            st.depth += 1;
            if st.depth <= MAX_DEPTH {
                st.frames[st.depth - 1] = Frame {
                    name,
                    ..EMPTY_FRAME
                };
            }
        });
        AllocScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

#[cfg(feature = "memprof")]
impl Drop for AllocScope {
    fn drop(&mut self) {
        let folded = STACK.try_with(|s| {
            // SAFETY: see the comment on `STACK`.
            let st = unsafe { &mut *s.get() };
            if st.depth == 0 {
                return None;
            }
            let popped = (st.depth <= MAX_DEPTH).then(|| st.frames[st.depth - 1]);
            st.depth -= 1;
            popped
        });
        if let Ok(Some(f)) = folded {
            // The map insert may allocate; that lands in the *parent*
            // frame (or unattributed), never in the frame just popped.
            let mut scopes = SCOPES.lock().unwrap_or_else(|e| e.into_inner());
            let e = scopes.entry(f.name).or_default();
            e.allocs += f.allocs;
            e.frees += f.frees;
            e.alloc_bytes += f.alloc_bytes;
            e.free_bytes += f.free_bytes;
            e.peak_live_bytes = e.peak_live_bytes.max(f.peak_net.max(0) as u64);
        }
    }
}

/// Whether a [`CountingAlloc`] is live in this process. Allocation counts
/// are only meaningful when this returns `true` — a `memprof`-built *lib*
/// linked into a bin that did not install the wrapper sees all zeros.
#[cfg(feature = "memprof")]
pub fn counting() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

/// Snapshot the process-wide totals.
#[cfg(feature = "memprof")]
pub fn global() -> GlobalStats {
    GlobalStats {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        free_bytes: FREE_BYTES.load(Ordering::Relaxed),
        live_bytes: LIVE.load(Ordering::Relaxed),
        peak_live_bytes: PEAK.load(Ordering::Relaxed),
    }
}

/// Zero every counter and drop all accumulated scope totals. Live-byte
/// tracking restarts from zero, so call this only between workloads (any
/// buffer allocated before the reset and freed after it will underflow
/// into a huge `free_bytes`; the gate scenarios reset *before* measuring
/// and only read deltas).
#[cfg(feature = "memprof")]
pub fn reset() {
    SCOPES.lock().unwrap_or_else(|e| e.into_inner()).clear();
    ALLOCS.store(0, Ordering::Relaxed);
    FREES.store(0, Ordering::Relaxed);
    ALLOC_BYTES.store(0, Ordering::Relaxed);
    FREE_BYTES.store(0, Ordering::Relaxed);
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
}

/// Collapse the high-water mark to the current live figure, so the next
/// peak reading covers only the workload that follows.
#[cfg(feature = "memprof")]
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Drop the accumulated per-scope totals without touching the global
/// counters — the scenario-local reset used between measured sections.
#[cfg(feature = "memprof")]
pub fn reset_scopes() {
    SCOPES.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Accumulated totals for every scope name seen so far, sorted by name.
#[cfg(feature = "memprof")]
pub fn scopes() -> Vec<(&'static str, ScopeStats)> {
    SCOPES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&k, &v)| (k, v))
        .collect()
}

/// Totals for one scope name, if it has been entered at least once.
#[cfg(feature = "memprof")]
pub fn scope_stats(name: &str) -> Option<ScopeStats> {
    SCOPES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .find(|(k, _)| **k == name)
        .map(|(_, &v)| v)
}

// ---------------------------------------------------------------------------
// Feature OFF: inert stand-ins with identical signatures.
// ---------------------------------------------------------------------------

/// Inert scope guard (feature `memprof` disabled).
#[cfg(not(feature = "memprof"))]
#[must_use = "an AllocScope attributes allocations only while it is alive"]
pub struct AllocScope;

#[cfg(not(feature = "memprof"))]
impl AllocScope {
    /// No-op: compiles to nothing without the `memprof` feature.
    #[inline(always)]
    pub fn enter(_name: &'static str) -> AllocScope {
        AllocScope
    }
}

#[cfg(not(feature = "memprof"))]
pub fn counting() -> bool {
    false
}

#[cfg(not(feature = "memprof"))]
pub fn global() -> GlobalStats {
    GlobalStats::default()
}

#[cfg(not(feature = "memprof"))]
pub fn reset() {}

#[cfg(not(feature = "memprof"))]
pub fn reset_peak() {}

#[cfg(not(feature = "memprof"))]
pub fn reset_scopes() {}

#[cfg(not(feature = "memprof"))]
pub fn scopes() -> Vec<(&'static str, ScopeStats)> {
    Vec::new()
}

#[cfg(not(feature = "memprof"))]
pub fn scope_stats(_name: &str) -> Option<ScopeStats> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters are process-global and the test harness runs threads
    /// concurrently; every test that resets or asserts on them serializes
    /// here so they cannot observe each other's traffic.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn no_alloc_wrapper_means_inert_api() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        // Without a CountingAlloc installed (lib tests never install one)
        // both builds agree: no counting, zero stats, inert guards.
        assert!(!counting());
        assert_eq!(global(), GlobalStats::default());
        assert!(scope_stats("nope").is_none());
        let _g = AllocScope::enter("x");
        reset_peak();
        reset_scopes();
    }

    #[cfg(feature = "memprof")]
    #[test]
    fn scope_guard_nests_and_folds() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // Simulate hook traffic directly — the lib test binary does not
        // install CountingAlloc, so drive on_alloc/on_dealloc by hand.
        reset();
        {
            let _outer = AllocScope::enter("outer");
            on_alloc(100);
            {
                let _inner = AllocScope::enter("inner");
                on_alloc(64);
                on_dealloc(16);
            }
            on_alloc(8);
        }
        let outer = scope_stats("outer").expect("outer folded");
        let inner = scope_stats("inner").expect("inner folded");
        // Exclusive attribution: inner's 64/16 never reach outer.
        assert_eq!(outer.allocs, 2);
        assert_eq!(outer.alloc_bytes, 108);
        assert_eq!(inner.allocs, 1);
        assert_eq!(inner.frees, 1);
        assert_eq!(inner.alloc_bytes, 64);
        assert_eq!(inner.peak_live_bytes, 64);
        let g = global();
        assert_eq!(g.allocs, 3);
        assert_eq!(g.live_bytes, 100 + 64 - 16 + 8);
        assert_eq!(g.peak_live_bytes, 164); // high-water at 100+64
        reset();
        assert_eq!(global(), GlobalStats::default());
    }

    #[cfg(feature = "memprof")]
    #[test]
    fn peak_reset_collapses_to_live() {
        let _l = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        on_alloc(1000);
        on_dealloc(900);
        assert_eq!(global().peak_live_bytes, 1000);
        reset_peak();
        assert_eq!(global().peak_live_bytes, 100);
        reset();
    }
}
