//! Axis-aligned boxes (rectangular index regions).

use crate::point::Point3;
use std::fmt;

/// A half-open axis-aligned box in index space: `lo` inclusive, `hi`
/// exclusive. Empty boxes (any `hi[a] <= lo[a]`) are representable and have
/// zero volume.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Box3 {
    pub lo: Point3,
    pub hi: Point3,
}

impl Box3 {
    /// Construct the box `[lo, hi)`.
    #[inline]
    pub const fn new(lo: Point3, hi: Point3) -> Self {
        Self { lo, hi }
    }

    /// The cube `[0, n)^3`.
    #[inline]
    pub fn cube(n: i64) -> Self {
        Self::new(Point3::zero(), Point3::splat(n))
    }

    /// A box at the origin with the given extent per axis.
    #[inline]
    pub fn from_extent(extent: Point3) -> Self {
        Self::new(Point3::zero(), extent)
    }

    /// Extent (size) per axis; clamped at zero for empty boxes.
    #[inline]
    pub fn extent(&self) -> Point3 {
        (self.hi - self.lo).max(Point3::zero())
    }

    /// Number of cells contained.
    #[inline]
    pub fn volume(&self) -> usize {
        let e = self.extent();
        (e.x as usize) * (e.y as usize) * (e.z as usize)
    }

    /// True if the box contains no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        let e = self.hi - self.lo;
        e.x <= 0 || e.y <= 0 || e.z <= 0
    }

    /// True if `p` lies inside the box.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        self.lo.all_le(p) && p.all_lt(self.hi)
    }

    /// True if `other` is entirely inside `self`. Empty boxes are contained
    /// in everything.
    #[inline]
    pub fn contains_box(&self, other: &Box3) -> bool {
        other.is_empty() || (self.lo.all_le(other.lo) && other.hi.all_le(self.hi))
    }

    /// Intersection of two boxes (possibly empty).
    #[inline]
    #[must_use]
    pub fn intersect(&self, other: &Box3) -> Box3 {
        Box3::new(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Translate the box by `d`.
    #[inline]
    #[must_use]
    pub fn shift(&self, d: Point3) -> Box3 {
        Box3::new(self.lo + d, self.hi + d)
    }

    /// Grow symmetrically by `g` cells in every direction (a ghost shell).
    #[inline]
    #[must_use]
    pub fn grow(&self, g: i64) -> Box3 {
        Box3::new(self.lo - Point3::splat(g), self.hi + Point3::splat(g))
    }

    /// Shrink symmetrically by `g` cells in every direction.
    #[inline]
    #[must_use]
    pub fn shrink(&self, g: i64) -> Box3 {
        self.grow(-g)
    }

    /// Coarsen by a factor of `r` per axis (finite-volume convention: a
    /// coarse cell covers `r^3` fine cells). `lo` is floor-divided and `hi`
    /// is ceil-divided so the coarse box covers the fine box.
    #[must_use]
    pub fn coarsen(&self, r: i64) -> Box3 {
        assert!(r > 0);
        let d = Point3::splat(r);
        let hi_round_up = Point3::new(
            (self.hi.x + r - 1).div_euclid(r),
            (self.hi.y + r - 1).div_euclid(r),
            (self.hi.z + r - 1).div_euclid(r),
        );
        Box3::new(self.lo.div_floor(d), hi_round_up)
    }

    /// Refine by a factor of `r` per axis (inverse of [`Box3::coarsen`] for
    /// aligned boxes).
    #[inline]
    #[must_use]
    pub fn refine(&self, r: i64) -> Box3 {
        assert!(r > 0);
        Box3::new(self.lo * r, self.hi * r)
    }

    /// Iterate every point in the box in lexicographic order with `x`
    /// fastest (matching the storage order of [`crate::Array3`]).
    pub fn iter(&self) -> impl Iterator<Item = Point3> + '_ {
        let b = *self;
        (b.lo.z..b.hi.z).flat_map(move |z| {
            (b.lo.y..b.hi.y).flat_map(move |y| (b.lo.x..b.hi.x).map(move |x| Point3::new(x, y, z)))
        })
    }

    /// Call `f` for every point in the box, `x` fastest. This compiles to a
    /// tight triple loop and is the preferred sequential traversal.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(Point3)) {
        for z in self.lo.z..self.hi.z {
            for y in self.lo.y..self.hi.y {
                for x in self.lo.x..self.hi.x {
                    f(Point3::new(x, y, z));
                }
            }
        }
    }

    /// Split the box into `n` roughly equal slabs along `axis`. Slabs are
    /// non-overlapping, cover the box, and empty slabs are omitted.
    pub fn split_slabs(&self, axis: usize, n: usize) -> Vec<Box3> {
        assert!(n > 0);
        let len = self.extent()[axis];
        let mut out = Vec::with_capacity(n.min(len.max(0) as usize));
        let n_i = n as i64;
        for s in 0..n_i {
            let a0 = self.lo[axis] + len * s / n_i;
            let a1 = self.lo[axis] + len * (s + 1) / n_i;
            if a1 > a0 {
                let mut b = *self;
                b.lo[axis] = a0;
                b.hi[axis] = a1;
                out.push(b);
            }
        }
        out
    }

    /// The subregion of `self` selected by a halo direction `dir ∈ {-1,0,1}³`
    /// with thickness `d`: the `d`-thick layer of cells *inside* `self`
    /// adjacent to the face/edge/corner indicated by `dir`. Axes with
    /// `dir[a] == 0` span the full box.
    #[must_use]
    pub fn face_region(&self, dir: Point3, d: i64) -> Box3 {
        assert!(d >= 0);
        let mut b = *self;
        for axis in 0..3 {
            match dir[axis] {
                -1 => b.hi[axis] = b.lo[axis] + d,
                0 => {}
                1 => b.lo[axis] = b.hi[axis] - d,
                _ => panic!("direction components must be -1, 0, or 1"),
            }
        }
        b
    }

    /// The `d`-thick layer of cells *outside* `self` in halo direction `dir`
    /// (the matching receive/ghost region for [`Box3::face_region`]).
    #[must_use]
    pub fn halo_region(&self, dir: Point3, d: i64) -> Box3 {
        assert!(d >= 0);
        let mut b = *self;
        for axis in 0..3 {
            match dir[axis] {
                -1 => {
                    b.hi[axis] = b.lo[axis];
                    b.lo[axis] -= d;
                }
                0 => {}
                1 => {
                    b.lo[axis] = b.hi[axis];
                    b.hi[axis] += d;
                }
                _ => panic!("direction components must be -1, 0, or 1"),
            }
        }
        b
    }
}

impl fmt::Debug for Box3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:?} .. {:?})", self.lo, self.hi)
    }
}

impl fmt::Display for Box3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_volume() {
        let b = Box3::new(Point3::new(1, 2, 3), Point3::new(4, 6, 8));
        assert_eq!(b.extent(), Point3::new(3, 4, 5));
        assert_eq!(b.volume(), 60);
        assert!(!b.is_empty());
        assert_eq!(Box3::cube(8).volume(), 512);
    }

    #[test]
    fn empty_boxes() {
        let b = Box3::new(Point3::new(2, 0, 0), Point3::new(1, 5, 5));
        assert!(b.is_empty());
        assert_eq!(b.volume(), 0);
        assert_eq!(b.extent(), Point3::new(0, 5, 5));
        assert_eq!(b.iter().count(), 0);
    }

    #[test]
    fn contains() {
        let b = Box3::cube(4);
        assert!(b.contains(Point3::zero()));
        assert!(b.contains(Point3::splat(3)));
        assert!(!b.contains(Point3::splat(4)));
        assert!(!b.contains(Point3::new(-1, 0, 0)));
        assert!(b.contains_box(&Box3::cube(4)));
        assert!(b.contains_box(&Box3::new(Point3::splat(1), Point3::splat(3))));
        assert!(!b.contains_box(&Box3::cube(5)));
    }

    #[test]
    fn intersect() {
        let a = Box3::cube(4);
        let b = Box3::new(Point3::splat(2), Point3::splat(6));
        let c = a.intersect(&b);
        assert_eq!(c, Box3::new(Point3::splat(2), Point3::splat(4)));
        let d = a.intersect(&Box3::new(Point3::splat(10), Point3::splat(12)));
        assert!(d.is_empty());
    }

    #[test]
    fn shift_grow_shrink() {
        let b = Box3::cube(4);
        assert_eq!(
            b.shift(Point3::new(1, 0, -1)),
            Box3::new(Point3::new(1, 0, -1), Point3::new(5, 4, 3))
        );
        assert_eq!(b.grow(2), Box3::new(Point3::splat(-2), Point3::splat(6)));
        assert_eq!(b.grow(2).shrink(2), b);
    }

    #[test]
    fn coarsen_refine() {
        let b = Box3::cube(16);
        assert_eq!(b.coarsen(2), Box3::cube(8));
        assert_eq!(b.coarsen(2).refine(2), b);
        // Unaligned boxes coarsen to a covering box.
        let u = Box3::new(Point3::new(1, 1, 1), Point3::new(3, 3, 3));
        assert_eq!(u.coarsen(2), Box3::new(Point3::zero(), Point3::splat(2)));
        // Negative coordinates floor correctly.
        let n = Box3::new(Point3::splat(-4), Point3::splat(4));
        assert_eq!(n.coarsen(4), Box3::new(Point3::splat(-1), Point3::splat(1)));
    }

    #[test]
    fn iter_order_is_x_fastest() {
        let b = Box3::new(Point3::zero(), Point3::new(2, 2, 1));
        let pts: Vec<_> = b.iter().collect();
        assert_eq!(
            pts,
            vec![
                Point3::new(0, 0, 0),
                Point3::new(1, 0, 0),
                Point3::new(0, 1, 0),
                Point3::new(1, 1, 0),
            ]
        );
        let mut via_for_each = Vec::new();
        b.for_each(|p| via_for_each.push(p));
        assert_eq!(pts, via_for_each);
    }

    #[test]
    fn split_slabs_covers_without_overlap() {
        let b = Box3::cube(10);
        let slabs = b.split_slabs(2, 3);
        assert_eq!(slabs.len(), 3);
        let total: usize = slabs.iter().map(Box3::volume).sum();
        assert_eq!(total, b.volume());
        for w in slabs.windows(2) {
            assert!(w[0].intersect(&w[1]).is_empty());
            assert_eq!(w[0].hi.z, w[1].lo.z);
        }
        // More slabs than cells: empties dropped.
        let tiny = Box3::cube(2);
        assert_eq!(tiny.split_slabs(0, 5).len(), 2);
    }

    #[test]
    fn face_and_halo_regions() {
        let b = Box3::cube(8);
        // -x face, depth 2: the 2-thick interior layer at x ∈ [0,2).
        let send = b.face_region(Point3::new(-1, 0, 0), 2);
        assert_eq!(send, Box3::new(Point3::zero(), Point3::new(2, 8, 8)));
        // Matching ghost region outside.
        let recv = b.halo_region(Point3::new(-1, 0, 0), 2);
        assert_eq!(recv, Box3::new(Point3::new(-2, 0, 0), Point3::new(0, 8, 8)));
        // Corner direction, depth 1: single cell regions.
        let c = b.face_region(Point3::splat(1), 1);
        assert_eq!(c.volume(), 1);
        assert_eq!(c.lo, Point3::splat(7));
        let ch = b.halo_region(Point3::splat(1), 1);
        assert_eq!(ch.volume(), 1);
        assert_eq!(ch.lo, Point3::splat(8));
    }

    #[test]
    fn halo_and_face_shift_correspondence() {
        // The halo region of my neighbor in direction d, shifted by the
        // neighbor's offset, is my face region: this is the identity the
        // exchange relies on.
        let b = Box3::cube(8);
        for dir in crate::ghost::DIRECTIONS_26 {
            let d = 3;
            let my_send = b.face_region(dir, d);
            let nbr_box = b.shift(dir.hadamard(b.extent()));
            let nbr_recv_from_me = nbr_box.halo_region(-dir, d);
            assert_eq!(my_send, nbr_recv_from_me, "dir {dir:?}");
        }
    }
}
