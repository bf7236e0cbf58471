//! Conventional lexicographic *ijk* array storage with ghost cells.
//!
//! This is the layout the paper's baseline (and HPGMG) uses: a single
//! contiguous allocation covering the valid region plus a symmetric ghost
//! shell, indexed with `x` fastest. A radius-1 stencil sweeping an `Array3`
//! touches `2·ny·nz + ...` distinct address streams — the data-movement
//! behaviour fine-grain data blocking (`gmg-brick`) is designed to avoid.

use crate::box3::Box3;
use crate::point::Point3;

/// Target z-slab count of [`Array3::reduce`] (`split_slabs` caps it at the
/// region's z extent). A fixed constant: the slab partition sets the
/// association of float reductions, which pinned residual histories
/// depend on.
pub const SLABS: usize = 64;

/// A dense 3D array over a half-open box, with an optional ghost shell.
///
/// The *valid* region is the caller's logical domain; storage covers
/// `valid.grow(ghost)`. Indexing is by global (absolute) [`Point3`]
/// coordinates, so subdomain arrays in a decomposition use their global
/// index ranges directly.
#[derive(Clone, Debug)]
pub struct Array3<T> {
    valid: Box3,
    storage: Box3,
    ghost: i64,
    /// Extents of the storage box, cached for indexing.
    ext: [i64; 3],
    data: Vec<T>,
}

impl<T: Copy + Default> Array3<T> {
    /// Allocate an array over `valid` with a ghost shell of depth `ghost`,
    /// filled with `T::default()`.
    pub fn new(valid: Box3, ghost: i64) -> Self {
        assert!(ghost >= 0, "ghost depth must be non-negative");
        assert!(!valid.is_empty(), "valid region must be non-empty");
        let storage = valid.grow(ghost);
        let e = storage.extent();
        let n = storage.volume();
        Self {
            valid,
            storage,
            ghost,
            ext: [e.x, e.y, e.z],
            data: vec![T::default(); n],
        }
    }

    /// Allocate and initialize every storage cell (including ghosts) from a
    /// function of the global index.
    pub fn from_fn(valid: Box3, ghost: i64, mut f: impl FnMut(Point3) -> T) -> Self {
        let mut a = Self::new(valid, ghost);
        let sb = a.storage;
        sb.for_each(|p| {
            let i = a.offset(p);
            a.data[i] = f(p);
        });
        a
    }

    /// The valid (non-ghost) region.
    #[inline]
    pub fn valid(&self) -> Box3 {
        self.valid
    }

    /// The full storage region (valid + ghost shell).
    #[inline]
    pub fn storage_box(&self) -> Box3 {
        self.storage
    }

    /// Ghost depth.
    #[inline]
    pub fn ghost(&self) -> i64 {
        self.ghost
    }

    /// Total allocated cells (valid + ghosts).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no cells are allocated (never, for a constructed array).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Linear offset of global point `p` in storage. Debug-asserted in
    /// bounds; use [`Array3::get`] for checked access.
    #[inline]
    pub fn offset(&self, p: Point3) -> usize {
        debug_assert!(self.storage.contains(p), "{p:?} outside {:?}", self.storage);
        let r = p - self.storage.lo;
        ((r.z * self.ext[1] + r.y) * self.ext[0] + r.x) as usize
    }

    /// Checked element access; `None` outside the storage box.
    #[inline]
    pub fn get(&self, p: Point3) -> Option<&T> {
        if self.storage.contains(p) {
            Some(&self.data[self.offset(p)])
        } else {
            None
        }
    }

    /// Raw storage slice (x fastest, then y, then z over the storage box).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Strides (in elements) per axis for manual pointer arithmetic in
    /// kernels: `[1, sx, sx*sy]`.
    #[inline]
    pub fn strides(&self) -> [usize; 3] {
        [
            1,
            self.ext[0] as usize,
            (self.ext[0] * self.ext[1]) as usize,
        ]
    }

    /// Fill every cell of `region ∩ storage` with `v`.
    pub fn fill_region(&mut self, region: Box3, v: T) {
        let r = region.intersect(&self.storage);
        r.for_each(|p| {
            let i = self.offset(p);
            self.data[i] = v;
        });
    }

    /// Fill the whole storage (including ghosts) with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Serialize `region` into a flat buffer in lexicographic order
    /// (the *pack* step of a conventional ghost exchange).
    pub fn pack(&self, region: Box3, buf: &mut Vec<T>) {
        assert!(
            self.storage.contains_box(&region),
            "pack region not covered"
        );
        buf.clear();
        buf.reserve(region.volume());
        region.for_each(|p| buf.push(self.data[self.offset(p)]));
    }

    /// Deserialize a flat buffer into `region` (the *unpack* step).
    pub fn unpack(&mut self, region: Box3, buf: &[T]) {
        assert!(
            self.storage.contains_box(&region),
            "unpack region not covered"
        );
        assert_eq!(buf.len(), region.volume(), "buffer/region size mismatch");
        let mut it = buf.iter();
        region.for_each(|p| {
            let i = self.offset(p);
            self.data[i] = *it.next().expect("buffer length checked");
        });
    }

    /// Apply `f(point, &mut value)` over `region ∩ storage`, sequentially.
    pub fn for_each_mut(&mut self, region: Box3, mut f: impl FnMut(Point3, &mut T)) {
        let r = region.intersect(&self.storage);
        r.for_each(|p| {
            let i = self.offset(p);
            f(p, &mut self.data[i]);
        });
    }

    /// Reduce over `region ∩ storage` with `f` mapping each value and
    /// `combine` folding: every z-slab of the fixed [`SLABS`] partition
    /// folds its cells from `identity`, and the slab partials fold in slab
    /// order — one association whatever runs it, so float reductions are
    /// bit-identical run to run.
    pub fn reduce<R: Copy>(
        &self,
        region: Box3,
        identity: R,
        f: impl Fn(Point3, T) -> R,
        combine: impl Fn(R, R) -> R,
    ) -> R {
        let r = region.intersect(&self.storage);
        if r.is_empty() {
            return identity;
        }
        let partial = |s: Box3| {
            let mut acc = identity;
            s.for_each(|p| acc = combine(acc, f(p, self.data[self.offset(p)])));
            acc
        };
        r.split_slabs(2, SLABS)
            .into_iter()
            .map(partial)
            .fold(identity, &combine)
    }
}

impl<T: Copy + Default> std::ops::Index<Point3> for Array3<T> {
    type Output = T;
    #[inline]
    fn index(&self, p: Point3) -> &T {
        &self.data[self.offset(p)]
    }
}

impl<T: Copy + Default> std::ops::IndexMut<Point3> for Array3<T> {
    #[inline]
    fn index_mut(&mut self, p: Point3) -> &mut T {
        let i = self.offset(p);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: i64, y: i64, z: i64) -> Point3 {
        Point3::new(x, y, z)
    }

    #[test]
    fn allocation_and_indexing() {
        let v = Box3::cube(4);
        let a: Array3<f64> = Array3::new(v, 1);
        assert_eq!(a.valid(), v);
        assert_eq!(a.storage_box(), v.grow(1));
        assert_eq!(a.len(), 6 * 6 * 6);
        assert_eq!(a.ghost(), 1);
        assert_eq!(a[pt(0, 0, 0)], 0.0);
        assert_eq!(a[pt(-1, -1, -1)], 0.0); // ghost corner reachable
    }

    #[test]
    fn offset_is_x_fastest() {
        let a: Array3<f64> = Array3::new(Box3::cube(4), 0);
        assert_eq!(a.offset(pt(0, 0, 0)), 0);
        assert_eq!(a.offset(pt(1, 0, 0)), 1);
        assert_eq!(a.offset(pt(0, 1, 0)), 4);
        assert_eq!(a.offset(pt(0, 0, 1)), 16);
        assert_eq!(a.strides(), [1, 4, 16]);
    }

    #[test]
    fn from_fn_covers_ghosts() {
        let a = Array3::from_fn(Box3::cube(2), 1, |p| (p.x + 10 * p.y + 100 * p.z) as f64);
        assert_eq!(a[pt(-1, -1, -1)], -111.0);
        assert_eq!(a[pt(1, 1, 1)], 111.0);
        assert_eq!(a[pt(2, 0, 0)], 2.0);
    }

    #[test]
    fn get_checked() {
        let a: Array3<f64> = Array3::new(Box3::cube(2), 0);
        assert!(a.get(pt(0, 0, 0)).is_some());
        assert!(a.get(pt(2, 0, 0)).is_none());
        assert!(a.get(pt(-1, 0, 0)).is_none());
    }

    #[test]
    fn fill_region_respects_bounds() {
        let mut a: Array3<f64> = Array3::new(Box3::cube(4), 1);
        a.fill_region(Box3::new(pt(2, 2, 2), pt(10, 10, 10)), 7.0);
        assert_eq!(a[pt(3, 3, 3)], 7.0);
        assert_eq!(a[pt(4, 4, 4)], 7.0); // ghost included
        assert_eq!(a[pt(1, 1, 1)], 0.0);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let a = Array3::from_fn(Box3::cube(4), 1, |p| (p.x + 8 * p.y + 64 * p.z) as f64);
        let region = Box3::cube(4).face_region(pt(1, 0, 0), 2);
        let mut buf = Vec::new();
        a.pack(region, &mut buf);
        assert_eq!(buf.len(), region.volume());
        let mut b: Array3<f64> = Array3::new(Box3::cube(4), 1);
        b.unpack(region, &buf);
        region.for_each(|p| assert_eq!(b[p], a[p]));
        // Pack reuses the buffer allocation.
        let cap = buf.capacity();
        a.pack(region, &mut buf);
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn reduce_visits_every_cell_of_the_region_once() {
        let v = Box3::cube(16);
        let mut a: Array3<f64> = Array3::new(v, 2);
        a.for_each_mut(v, |_, x| *x += 1.0);
        let total = a.reduce(v, 0.0, |_, x| x, |a, b| a + b);
        assert_eq!(total, v.volume() as f64);
        // Ghosts untouched, and not counted.
        assert_eq!(a[pt(-1, 0, 0)], 0.0);
        a.fill(1.0);
        assert_eq!(a.reduce(v, 0.0, |_, x| x, |a, b| a + b), total);
    }

    #[test]
    fn reduce_max() {
        let v = Box3::cube(8);
        let a = Array3::from_fn(v, 0, |p| (p.x + p.y + p.z) as f64);
        let m = a.reduce(v, f64::NEG_INFINITY, |_, x| x, f64::max);
        assert_eq!(m, 21.0);
    }

    #[test]
    #[should_panic]
    fn pack_outside_storage_panics() {
        let a: Array3<f64> = Array3::new(Box3::cube(2), 0);
        let mut buf = Vec::new();
        a.pack(Box3::cube(3), &mut buf);
    }
}
