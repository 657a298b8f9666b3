//! Offline stand-in for `rayon`, exposing the API slice this workspace uses
//! with **fork-join** execution on `std::thread::scope`.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the surface it needs: `par_iter()` / `into_par_iter()` / `par_chunks_mut()`
//! pipelines through `zip` / `enumerate` into `for_each[_init]`, [`join`],
//! and `ThreadPoolBuilder` → `ThreadPool::install` / `current_num_threads()`
//! to fix the width. Signatures carry rayon's own bounds, so upstream rayon
//! stays a one-line `Cargo.toml` swap.
//!
//! A terminal op forks `k − 1` scoped workers, the caller working as worker
//! 0, and joins them before it returns; nothing outlives the call and
//! nothing spins between calls. Workers claim batches of consecutive items
//! off one shared cursor — dynamic scheduling, like the OpenMP tasks of the
//! paper's CPU half — so *which* worker runs an item, and with whose `init`
//! scratch, varies from run to run. Callers must therefore keep every item's
//! result independent of both (disjoint writes, scratch that carries no
//! state between items); under that rule a result's bits are the same at
//! any width. `k` is `available_parallelism()`, read once, unless
//! [`ThreadPool::install`] overrides it for the calling thread. With `k = 1`,
//! fewer than two items, or a call made from inside a worker, the op runs
//! inline on the caller's thread and spawns nothing.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// This thread's width override: set by [`ThreadPool::install`], and to
    /// 1 inside a worker so nested `par_*` calls run inline.
    static WIDTH: Cell<Option<usize>> = const { Cell::new(None) };
}

fn host_width() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// How many workers a `par_*` call made from this thread would use: the
/// installed pool's width, else the host's `available_parallelism()`.
/// Inside a worker it is 1 (upstream reports the pool's width there).
pub fn current_num_threads() -> usize {
    WIDTH.get().unwrap_or_else(host_width)
}

/// rayon's `join`: runs `oper_a` and `oper_b`, potentially in parallel, and
/// returns both results. With width 2 or more `oper_b` runs on one forked
/// worker while the caller runs `oper_a`, and the worker is joined before
/// this returns; both run as workers, so `par_*` calls inside either run
/// inline. At width 1, or from inside a worker, both run on the caller's
/// thread, `oper_a` first, and nothing is spawned. A panic reaches the
/// caller after the forked worker is joined; when both sides panic,
/// `oper_a`'s does.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() < 2 {
        return (oper_a(), oper_b());
    }
    #[cfg(test)]
    tests::SPAWNS.set(tests::SPAWNS.get() + 1);
    std::thread::scope(|s| {
        let b = s.spawn(|| {
            let _inline = WidthGuard::set(1);
            oper_b()
        });
        let a = {
            let _inline = WidthGuard::set(1);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(oper_a))
        };
        let b = b.join();
        match (a, b) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(payload), _) | (_, Err(payload)) => std::panic::resume_unwind(payload),
        }
    })
}

/// Overrides this thread's width until dropped, so also on unwind.
struct WidthGuard(Option<usize>);

impl WidthGuard {
    fn set(width: usize) -> Self {
        WidthGuard(WIDTH.replace(Some(width)))
    }
}

impl Drop for WidthGuard {
    fn drop(&mut self) {
        WIDTH.set(self.0);
    }
}

/// rayon's pool builder; only the width is configurable.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Never produced by this stand-in (it has no threads to fail to start);
/// present so `build()` has upstream's signature.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl ThreadPoolBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Width of the pool; 0 (the default) means the host's.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let width = match self.num_threads {
            0 => host_width(),
            n => n,
        };
        Ok(ThreadPool { width })
    }
}

/// A width, not a set of threads: [`ThreadPool::install`] makes every
/// `par_*` call its closure makes fork that many workers.
pub struct ThreadPool {
    width: usize,
}

impl ThreadPool {
    /// Runs `op` on the calling thread with this pool's width in force; the
    /// previous width comes back when `op` returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        let _width = WidthGuard::set(self.width);
        op()
    }
}

pub mod iter {
    use crate::{current_num_threads, WidthGuard};
    use std::sync::Mutex;

    /// A parallel pipeline: an exact-size iterator whose items the terminal
    /// op hands out to workers.
    pub struct ParIter<I>(pub(crate) I);

    impl<I> ParIter<I>
    where
        I: ExactSizeIterator + Send,
        I::Item: Send,
    {
        /// rayon's indexed `zip`: pairs two pipelines, truncating to the
        /// shorter.
        pub fn zip<J>(self, other: ParIter<J>) -> ParIter<std::iter::Zip<I, J>>
        where
            J: ExactSizeIterator + Send,
            J::Item: Send,
        {
            ParIter(self.0.zip(other.0))
        }

        /// rayon's indexed `enumerate`: pairs each item with its position.
        pub fn enumerate(self) -> ParIter<std::iter::Enumerate<I>> {
            ParIter(self.0.enumerate())
        }

        pub fn for_each<F>(self, f: F)
        where
            F: Fn(I::Item) + Sync + Send,
        {
            self.for_each_init(|| (), |(), x| f(x))
        }

        /// rayon's `for_each_init`: `for_each` with per-worker scratch
        /// state — `init` runs once per worker per call, so at most
        /// [`current_num_threads`] times.
        pub fn for_each_init<T, INIT, F>(self, init: INIT, f: F)
        where
            INIT: Fn() -> T + Sync + Send,
            F: Fn(&mut T, I::Item) + Sync + Send,
        {
            let len = self.0.len();
            let k = current_num_threads().min(len);
            if k < 2 {
                let mut scratch = init();
                return self.0.for_each(|x| f(&mut scratch, x));
            }
            // Small enough that a slow batch cannot leave the others idle
            // for long, large enough that the lock is taken a few dozen
            // times per worker.
            let batch = (len / (16 * k)).max(1);
            let cursor = Mutex::new(self.0);
            let work = || {
                let _inline = WidthGuard::set(1);
                let mut scratch = init();
                let mut claimed = Vec::with_capacity(batch);
                loop {
                    claimed.extend(
                        cursor
                            .lock()
                            .expect("a pipeline's iterator panicked under the cursor lock")
                            .by_ref()
                            .take(batch),
                    );
                    if claimed.is_empty() {
                        break;
                    }
                    for x in claimed.drain(..) {
                        f(&mut scratch, x);
                    }
                }
            };
            #[cfg(test)]
            crate::tests::SPAWNS.set(crate::tests::SPAWNS.get() + k - 1);
            std::thread::scope(|s| {
                let workers: Vec<_> = (1..k).map(|_| s.spawn(&work)).collect();
                work();
                // Joined by hand so the caller sees the worker's own panic
                // payload, not the scope's generic one.
                for worker in workers {
                    if let Err(payload) = worker.join() {
                        std::panic::resume_unwind(payload);
                    }
                }
            });
        }
    }

    /// `.par_iter()` on slices (and anything that derefs to one, e.g. `Vec`).
    pub trait IntoParallelRefIterator<'data> {
        type Item: 'data;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, Self::Item>>;
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, T>> {
            ParIter(self.iter())
        }
    }

    impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, T>> {
            ParIter(self.as_slice().iter())
        }
    }

    /// `.into_par_iter()` on owned collections.
    pub trait IntoParallelIterator {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> ParIter<Self::Iter>;
    }

    impl<T: Send> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = std::vec::IntoIter<T>;
        fn into_par_iter(self) -> ParIter<Self::Iter> {
            ParIter(self.into_iter())
        }
    }
}

pub mod slice {
    use crate::iter::ParIter;

    /// rayon's mutable chunking on slices.
    pub trait ParallelSliceMut<T: Send> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T];

        /// Disjoint `&mut` chunks of `chunk_size` elements (the last may be
        /// shorter), as a pipeline.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
            ParIter(self.as_parallel_slice_mut().chunks_mut(chunk_size))
        }
    }

    impl<T: Send> ParallelSliceMut<T> for [T] {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self
        }
    }

    impl<T: Send> ParallelSliceMut<T> for Vec<T> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self.as_mut_slice()
        }
    }
}

pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator};
    pub use crate::slice::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::{current_num_threads, host_width, ThreadPoolBuilder};
    use std::cell::Cell;
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    thread_local! {
        /// Threads this (test) thread's `par_*` calls have spawned.
        pub(crate) static SPAWNS: Cell<usize> = const { Cell::new(0) };
    }

    fn at_width<R: Send>(width: usize, op: impl FnOnce() -> R + Send) -> R {
        let pool = ThreadPoolBuilder::new().num_threads(width).build();
        pool.expect("the stand-in's build cannot fail").install(op)
    }

    #[test]
    fn every_item_visited_exactly_once() {
        for k in [1usize, 2, 3, 8] {
            for len in [0, 1, k - 1, k, 10 * k + 1] {
                let ids: Vec<usize> = (0..len).collect();
                let visits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let mut out = vec![usize::MAX; 2 * len];
                at_width(k, || {
                    out.par_chunks_mut(2).zip(ids.par_iter()).for_each_init(
                        Vec::<usize>::new,
                        |scratch, (chunk, &id)| {
                            scratch.push(id);
                            visits[id].fetch_add(1, Ordering::Relaxed);
                            chunk.fill(id);
                        },
                    );
                });
                assert!(
                    visits.iter().all(|v| v.load(Ordering::Relaxed) == 1),
                    "width {k}, len {len}"
                );
                let expect: Vec<usize> = (0..len).flat_map(|id| [id, id]).collect();
                assert_eq!(out, expect, "width {k}, len {len}");
            }
        }
    }

    #[test]
    fn zip_truncates_to_the_shorter_side() {
        for k in [1, 3] {
            let ids = vec![3usize, 1, 2];
            let mut buf = vec![0usize; 10];
            at_width(k, || {
                buf.par_chunks_mut(2)
                    .zip(ids.par_iter())
                    .for_each(|(chunk, &id)| chunk.fill(id));
            });
            assert_eq!(buf, vec![3, 3, 1, 1, 2, 2, 0, 0, 0, 0]);
        }
    }

    #[test]
    fn owned_items_move_into_workers() {
        let work: Vec<(usize, String)> = (0..50).map(|i| (i, i.to_string())).collect();
        let seen = Mutex::new(Vec::new());
        at_width(3, || {
            work.into_par_iter().for_each(|(i, s)| {
                assert_eq!(s, i.to_string());
                seen.lock().unwrap().push(i);
            });
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forks_real_threads_and_inits_once_per_worker() {
        // Every item waits for the other two, so the call returns only if
        // three threads hold one item each at the same time.
        let ids = [0usize, 1, 2];
        let all_here = Barrier::new(3);
        let inits = AtomicUsize::new(0);
        let threads = Mutex::new(HashSet::<ThreadId>::new());
        let before = SPAWNS.get();
        at_width(3, || {
            ids.par_iter().for_each_init(
                || inits.fetch_add(1, Ordering::Relaxed),
                |_, _| {
                    all_here.wait();
                    threads.lock().unwrap().insert(std::thread::current().id());
                },
            );
        });
        assert_eq!(threads.into_inner().unwrap().len(), 3);
        assert_eq!(inits.load(Ordering::Relaxed), 3);
        assert_eq!(SPAWNS.get() - before, 2, "the caller is worker 0");

        // Many items, few workers: still at most one `init` per worker.
        let ids: Vec<usize> = (0..1000).collect();
        let inits = AtomicUsize::new(0);
        at_width(8, || {
            ids.par_iter()
                .for_each_init(|| inits.fetch_add(1, Ordering::Relaxed), |_, _| {});
        });
        assert!((1..=8).contains(&inits.load(Ordering::Relaxed)));
    }

    #[test]
    fn width_one_and_short_lists_spawn_nothing() {
        let ids: Vec<usize> = (0..1000).collect();
        let before = SPAWNS.get();
        let me = std::thread::current().id();
        at_width(1, || {
            ids.par_iter()
                .for_each(|_| assert_eq!(std::thread::current().id(), me));
        });
        at_width(8, || {
            ids[..1]
                .par_iter()
                .for_each(|_| assert_eq!(std::thread::current().id(), me));
        });
        assert_eq!(SPAWNS.get(), before);
    }

    #[test]
    fn nested_call_runs_inline_on_its_worker() {
        let outer = [0usize, 1];
        let inner: Vec<usize> = (0..64).collect();
        let both_here = Barrier::new(2);
        let visits = AtomicUsize::new(0);
        at_width(2, || {
            outer.par_iter().for_each(|_| {
                both_here.wait();
                let me = std::thread::current().id();
                let spawned = SPAWNS.get();
                assert_eq!(current_num_threads(), 1);
                inner.par_iter().for_each(|_| {
                    assert_eq!(std::thread::current().id(), me);
                    visits.fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(SPAWNS.get(), spawned);
            });
            assert_eq!(current_num_threads(), 2, "worker 0's width is restored");
        });
        assert_eq!(visits.load(Ordering::Relaxed), 128);
    }

    #[test]
    fn panic_in_a_batch_reaches_the_caller_and_the_next_call_works() {
        let ids: Vec<usize> = (0..200).collect();
        for k in [1, 2, 3] {
            let outside = current_num_threads();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                at_width(k, || {
                    ids.par_iter().for_each(|&id| {
                        if id == 137 {
                            panic!("item 137");
                        }
                    })
                })
            }));
            let payload = caught.expect_err("the panic must not be swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 137"));
            assert_eq!(current_num_threads(), outside, "install restores on unwind");

            let sum = AtomicUsize::new(0);
            at_width(k, || {
                ids.par_iter().for_each(|&id| {
                    sum.fetch_add(id, Ordering::Relaxed);
                })
            });
            assert_eq!(sum.load(Ordering::Relaxed), 199 * 200 / 2);
        }
    }

    #[test]
    fn join_forks_one_worker_and_returns_both_results() {
        // Each side waits for the other, so the call returns only if they
        // run at the same time, on two threads.
        let both_here = Barrier::new(2);
        let side = || {
            both_here.wait();
            (std::thread::current().id(), current_num_threads())
        };
        let before = SPAWNS.get();
        let (a, b) = at_width(2, || crate::join(side, side));
        assert_eq!(SPAWNS.get() - before, 1);
        assert_ne!(a.0, b.0);
        assert_eq!(a.0, std::thread::current().id(), "the caller runs `oper_a`");
        assert_eq!((a.1, b.1), (1, 1), "nested calls inside either run inline");
        assert_eq!(current_num_threads(), host_width());
    }

    #[test]
    fn join_at_width_one_or_inside_a_worker_spawns_nothing() {
        let me = std::thread::current().id();
        let before = SPAWNS.get();
        let order = Mutex::new(Vec::new());
        let (a, b) = at_width(1, || {
            crate::join(
                || order.lock().unwrap().push('a'),
                || order.lock().unwrap().push('b'),
            );
            crate::join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        });
        assert_eq!((a, b), (me, me));
        assert_eq!(order.into_inner().unwrap(), ['a', 'b']);
        at_width(2, || {
            [0usize, 1].par_iter().for_each(|_| {
                let spawned = SPAWNS.get();
                let worker = std::thread::current().id();
                let (a, b) = crate::join(
                    || std::thread::current().id(),
                    || std::thread::current().id(),
                );
                assert_eq!((a, b), (worker, worker));
                assert_eq!(SPAWNS.get(), spawned);
            })
        });
        assert_eq!(SPAWNS.get() - before, 1, "only the pipeline's own fork");
    }

    #[test]
    fn join_panics_reach_the_caller() {
        for k in [1, 2] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                at_width(k, || {
                    crate::join(|| ran.fetch_add(1, Ordering::SeqCst), || panic!("side b"))
                })
            }));
            let payload = caught.expect_err("the panic must not be swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"side b"), "width {k}");
            assert_eq!(ran.load(Ordering::SeqCst), 1, "width {k}");
            let caught = catch_unwind(AssertUnwindSafe(|| {
                at_width(k, || crate::join(|| panic!("side a"), || panic!("side b")))
            }));
            let payload = caught.expect_err("the panic must not be swallowed");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"side a"), "width {k}");
            assert_eq!(current_num_threads(), host_width());
        }
    }

    #[test]
    fn install_nests_and_restores() {
        let host = current_num_threads();
        at_width(5, || {
            assert_eq!(current_num_threads(), 5);
            at_width(2, || assert_eq!(current_num_threads(), 2));
            assert_eq!(current_num_threads(), 5);
            let unset = ThreadPoolBuilder::new().build().unwrap();
            unset.install(|| assert_eq!(current_num_threads(), host, "0 means the host's"));
            assert_eq!(current_num_threads(), 5);
        });
        assert_eq!(current_num_threads(), host);
    }
}
