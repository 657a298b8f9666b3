//! Offline stand-in for `rayon`, exposing the API slice this workspace uses
//! with **sequential** execution.
//!
//! The build environment cannot reach crates.io, so the workspace vendors
//! the surface it needs: `par_iter()` pipelines (`filter`, `map`,
//! `map_init`, `zip`, `collect`), `par_chunks_mut()` and
//! `par_sort_unstable()`. Everything the AFMM
//! reproduction *measures* comes from the virtual-node models (`sched-sim`,
//! `gpu-sim`), never from host wall-clock parallelism, so sequential
//! execution changes no observable result — solves are bit-identical
//! (sequential reduction order is a fixed, valid schedule of the same
//! disjoint-write loops).

pub mod iter {
    /// A "parallel" iterator: a plain iterator with rayon's method names.
    pub struct ParIter<I>(pub(crate) I);

    impl<I: Iterator> ParIter<I> {
        pub fn filter<P>(self, predicate: P) -> ParIter<std::iter::Filter<I, P>>
        where
            P: FnMut(&I::Item) -> bool,
        {
            ParIter(self.0.filter(predicate))
        }

        pub fn map<R, F>(self, f: F) -> ParIter<std::iter::Map<I, F>>
        where
            F: FnMut(I::Item) -> R,
        {
            ParIter(self.0.map(f))
        }

        /// rayon's `map_init`: per-worker scratch state. Sequentially there
        /// is exactly one worker, so `init` runs once and the scratch is
        /// threaded through every element — the same reuse rayon guarantees
        /// per split.
        pub fn map_init<T, R, INIT, F>(
            self,
            mut init: INIT,
            mut f: F,
        ) -> ParIter<std::vec::IntoIter<R>>
        where
            INIT: FnMut() -> T,
            F: FnMut(&mut T, I::Item) -> R,
        {
            let mut scratch = init();
            let out: Vec<R> = self.0.map(|x| f(&mut scratch, x)).collect();
            ParIter(out.into_iter())
        }

        /// rayon's indexed `zip`: pair up two equally long pipelines.
        pub fn zip<J: Iterator>(self, other: ParIter<J>) -> ParIter<std::iter::Zip<I, J>> {
            ParIter(self.0.zip(other.0))
        }

        pub fn for_each<F>(self, f: F)
        where
            F: FnMut(I::Item),
        {
            self.0.for_each(f)
        }

        /// rayon's `for_each_init`: `for_each` with per-worker scratch
        /// state (one worker here, so one `init`).
        pub fn for_each_init<T, INIT, F>(self, mut init: INIT, mut f: F)
        where
            INIT: FnMut() -> T,
            F: FnMut(&mut T, I::Item),
        {
            let mut scratch = init();
            self.0.for_each(|x| f(&mut scratch, x))
        }

        pub fn collect<C>(self) -> C
        where
            C: FromIterator<I::Item>,
        {
            self.0.collect()
        }
    }

    /// `.par_iter()` on slices (and anything that derefs to one, e.g. `Vec`).
    pub trait IntoParallelRefIterator<'data> {
        type Item: 'data;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, Self::Item>>;
    }

    impl<'data, T: 'data> IntoParallelRefIterator<'data> for [T] {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, T>> {
            ParIter(self.iter())
        }
    }

    impl<'data, T: 'data> IntoParallelRefIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter(&'data self) -> ParIter<std::slice::Iter<'data, T>> {
            ParIter(self.as_slice().iter())
        }
    }

    /// `.par_iter_mut()` on slices.
    pub trait IntoParallelRefMutIterator<'data> {
        type Item: 'data;
        fn par_iter_mut(&'data mut self) -> ParIter<std::slice::IterMut<'data, Self::Item>>;
    }

    impl<'data, T: 'data> IntoParallelRefMutIterator<'data> for [T] {
        type Item = T;
        fn par_iter_mut(&'data mut self) -> ParIter<std::slice::IterMut<'data, T>> {
            ParIter(self.iter_mut())
        }
    }

    impl<'data, T: 'data> IntoParallelRefMutIterator<'data> for Vec<T> {
        type Item = T;
        fn par_iter_mut(&'data mut self) -> ParIter<std::slice::IterMut<'data, T>> {
            ParIter(self.as_mut_slice().iter_mut())
        }
    }

    /// `.into_par_iter()` on owned collections and ranges.
    pub trait IntoParallelIterator {
        type Item;
        type Iter: Iterator<Item = Self::Item>;
        fn into_par_iter(self) -> ParIter<Self::Iter>;
    }

    impl<T> IntoParallelIterator for Vec<T> {
        type Item = T;
        type Iter = std::vec::IntoIter<T>;
        fn into_par_iter(self) -> ParIter<Self::Iter> {
            ParIter(self.into_iter())
        }
    }

    impl IntoParallelIterator for std::ops::Range<usize> {
        type Item = usize;
        type Iter = std::ops::Range<usize>;
        fn into_par_iter(self) -> ParIter<Self::Iter> {
            ParIter(self)
        }
    }
}

pub mod slice {
    use crate::iter::ParIter;

    /// rayon's parallel in-place slice sorts and mutable chunking,
    /// sequentially.
    pub trait ParallelSliceMut<T> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T];

        /// Disjoint `&mut` chunks of `chunk_size` elements (the last may be
        /// shorter), as a pipeline.
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParIter<std::slice::ChunksMut<'_, T>> {
            ParIter(self.as_parallel_slice_mut().chunks_mut(chunk_size))
        }

        fn par_sort_unstable(&mut self)
        where
            T: Ord,
        {
            self.as_parallel_slice_mut().sort_unstable()
        }

        fn par_sort_unstable_by_key<K: Ord, F: FnMut(&T) -> K>(&mut self, key: F)
        where
            T: Ord,
        {
            self.as_parallel_slice_mut().sort_unstable_by_key(key)
        }

        fn par_sort_by<F: FnMut(&T, &T) -> std::cmp::Ordering>(&mut self, cmp: F) {
            self.as_parallel_slice_mut().sort_by(cmp)
        }
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self
        }
    }

    impl<T> ParallelSliceMut<T> for Vec<T> {
        fn as_parallel_slice_mut(&mut self) -> &mut [T] {
            self.as_mut_slice()
        }
    }
}

pub mod prelude {
    pub use crate::iter::{
        IntoParallelIterator, IntoParallelRefIterator, IntoParallelRefMutIterator,
    };
    pub use crate::slice::ParallelSliceMut;
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn pipeline_matches_sequential() {
        let v: Vec<usize> = (0..100).collect();
        let out: Vec<usize> = v
            .par_iter()
            .filter(|&&x| x % 2 == 0)
            .map(|&x| x * 3)
            .collect();
        let expect: Vec<usize> = (0..100).filter(|x| x % 2 == 0).map(|x| x * 3).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_init_reuses_scratch() {
        let v = vec![1usize, 2, 3, 4];
        let mut inits = 0;
        let out: Vec<usize> = v
            .par_iter()
            .map_init(
                || {
                    inits += 1;
                    Vec::<usize>::new()
                },
                |scratch, &x| {
                    scratch.push(x);
                    scratch.len()
                },
            )
            .collect();
        // One worker: scratch grows across elements, init ran once.
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(inits, 1);
    }

    #[test]
    fn chunks_zip_writes_disjoint_windows() {
        let ids = vec![3usize, 1, 2];
        let mut buf = vec![0usize; 6];
        buf.par_chunks_mut(2)
            .zip(ids.par_iter())
            .for_each(|(chunk, &id)| chunk.fill(id));
        assert_eq!(buf, vec![3, 3, 1, 1, 2, 2]);
    }

    #[test]
    fn par_sort_sorts() {
        let mut v = vec![5u64, 1, 4, 2, 3];
        v.par_sort_unstable();
        assert_eq!(v, vec![1, 2, 3, 4, 5]);
    }
}
