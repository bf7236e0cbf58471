//! Offline stand-in for `rayon`: every parallel iterator degenerates to
//! the serial one, so each rank computes on exactly one thread. Mirrors
//! the surface `.claude/skills/verify/stubs/rayon.rs` provides, which is
//! all the workspace uses.
pub fn current_num_threads() -> usize {
    1
}

pub struct SerIter<I>(pub I);

impl<I: Iterator> Iterator for SerIter<I> {
    type Item = I::Item;
    fn next(&mut self) -> Option<I::Item> {
        self.0.next()
    }
}

impl<I: Iterator> SerIter<I> {
    pub fn zip<J: Iterator>(self, other: SerIter<J>) -> SerIter<std::iter::Zip<I, J>> {
        SerIter(self.0.zip(other.0))
    }
    pub fn for_each(self, f: impl FnMut(I::Item)) {
        self.0.for_each(f)
    }
    pub fn enumerate(self) -> SerIter<std::iter::Enumerate<I>> {
        SerIter(self.0.enumerate())
    }
    pub fn map<B, F: FnMut(I::Item) -> B>(self, f: F) -> SerIter<std::iter::Map<I, F>> {
        SerIter(self.0.map(f))
    }
    pub fn reduce(
        self,
        identity: impl Fn() -> I::Item,
        op: impl Fn(I::Item, I::Item) -> I::Item,
    ) -> I::Item {
        self.0.fold(identity(), op)
    }
}

pub mod prelude {
    pub use super::SerIter;

    pub trait IntoParallelIterator {
        type Iter: Iterator;
        fn into_par_iter(self) -> SerIter<Self::Iter>;
    }
    impl<T> IntoParallelIterator for Vec<T> {
        type Iter = std::vec::IntoIter<T>;
        fn into_par_iter(self) -> SerIter<Self::Iter> {
            SerIter(self.into_iter())
        }
    }

    pub trait ParSlice<T> {
        fn par_iter(&self) -> SerIter<std::slice::Iter<'_, T>>;
    }
    impl<T> ParSlice<T> for [T] {
        fn par_iter(&self) -> SerIter<std::slice::Iter<'_, T>> {
            SerIter(self.iter())
        }
    }

    pub trait ParSliceMut<T> {
        fn par_chunks_exact_mut(&mut self, n: usize) -> SerIter<std::slice::ChunksExactMut<'_, T>>;
        fn par_iter_mut(&mut self) -> SerIter<std::slice::IterMut<'_, T>>;
    }
    impl<T> ParSliceMut<T> for [T] {
        fn par_chunks_exact_mut(&mut self, n: usize) -> SerIter<std::slice::ChunksExactMut<'_, T>> {
            SerIter(self.chunks_exact_mut(n))
        }
        fn par_iter_mut(&mut self) -> SerIter<std::slice::IterMut<'_, T>> {
            SerIter(self.iter_mut())
        }
    }
}
