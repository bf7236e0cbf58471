//! Integer 3D index points.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

/// A point (or offset) in 3D integer index space.
///
/// `x` is the fastest-varying (unit-stride) dimension in every storage layout
/// of this workspace, matching the *ijk* convention of the paper: `i → x`,
/// `j → y`, `k → z`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Point3 {
    pub x: i64,
    pub y: i64,
    pub z: i64,
}

impl Point3 {
    /// Construct a point from its three components.
    #[inline]
    pub const fn new(x: i64, y: i64, z: i64) -> Self {
        Self { x, y, z }
    }

    /// The origin, `(0, 0, 0)`.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0, 0, 0)
    }

    /// The point with all components equal to `v`.
    #[inline]
    pub const fn splat(v: i64) -> Self {
        Self::new(v, v, v)
    }

    /// Component along `axis` (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn get(&self, axis: usize) -> i64 {
        match axis {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            _ => panic!("axis out of range: {axis}"),
        }
    }

    /// Set the component along `axis`, returning the updated point.
    #[inline]
    #[must_use]
    pub fn with(mut self, axis: usize, v: i64) -> Self {
        self[axis] = v;
        self
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, o: Self) -> Self {
        Self::new(self.x.min(o.x), self.y.min(o.y), self.z.min(o.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, o: Self) -> Self {
        Self::new(self.x.max(o.x), self.y.max(o.y), self.z.max(o.z))
    }

    /// Component-wise product (Hadamard product).
    #[inline]
    pub fn hadamard(self, o: Self) -> Self {
        Self::new(self.x * o.x, self.y * o.y, self.z * o.z)
    }

    /// Component-wise Euclidean (floor) division.
    #[inline]
    pub fn div_floor(self, d: Self) -> Self {
        Self::new(
            self.x.div_euclid(d.x),
            self.y.div_euclid(d.y),
            self.z.div_euclid(d.z),
        )
    }

    /// Component-wise Euclidean remainder; always non-negative for positive
    /// divisors, which makes it suitable for periodic wrapping.
    #[inline]
    pub fn rem_euclid(self, d: Self) -> Self {
        Self::new(
            self.x.rem_euclid(d.x),
            self.y.rem_euclid(d.y),
            self.z.rem_euclid(d.z),
        )
    }

    /// Product of all components. Panics in debug builds on overflow.
    #[inline]
    pub fn product(self) -> i64 {
        self.x * self.y * self.z
    }

    /// Sum of all components.
    #[inline]
    pub fn sum(self) -> i64 {
        self.x + self.y + self.z
    }

    /// Number of non-zero components; the "codimension" of a halo direction
    /// (1 = face, 2 = edge, 3 = corner).
    #[inline]
    pub fn codim(self) -> usize {
        (self.x != 0) as usize + (self.y != 0) as usize + (self.z != 0) as usize
    }

    /// True if every component of `self` is strictly less than that of `o`.
    #[inline]
    pub fn all_lt(self, o: Self) -> bool {
        self.x < o.x && self.y < o.y && self.z < o.z
    }

    /// True if every component of `self` is less than or equal to that of `o`.
    #[inline]
    pub fn all_le(self, o: Self) -> bool {
        self.x <= o.x && self.y <= o.y && self.z <= o.z
    }

    /// Iterate over each axis component in `(axis, value)` pairs.
    pub fn components(self) -> impl Iterator<Item = (usize, i64)> {
        [(0usize, self.x), (1, self.y), (2, self.z)].into_iter()
    }
}

impl fmt::Debug for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl From<[i64; 3]> for Point3 {
    #[inline]
    fn from(a: [i64; 3]) -> Self {
        Self::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [i64; 3] {
    #[inline]
    fn from(p: Point3) -> Self {
        [p.x, p.y, p.z]
    }
}

impl Index<usize> for Point3 {
    type Output = i64;
    #[inline]
    fn index(&self, axis: usize) -> &i64 {
        match axis {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("axis out of range: {axis}"),
        }
    }
}

impl IndexMut<usize> for Point3 {
    #[inline]
    fn index_mut(&mut self, axis: usize) -> &mut i64 {
        match axis {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("axis out of range: {axis}"),
        }
    }
}

impl Add for Point3 {
    type Output = Self;
    #[inline]
    fn add(self, o: Self) -> Self {
        Self::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, o: Self) {
        *self = *self + o;
    }
}

impl Sub for Point3 {
    type Output = Self;
    #[inline]
    fn sub(self, o: Self) -> Self {
        Self::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Point3 {
    #[inline]
    fn sub_assign(&mut self, o: Self) {
        *self = *self - o;
    }
}

impl Neg for Point3 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<i64> for Point3 {
    type Output = Self;
    #[inline]
    fn mul(self, s: i64) -> Self {
        Self::new(self.x * s, self.y * s, self.z * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Point3::zero(), Point3::new(0, 0, 0));
        assert_eq!(Point3::splat(3), Point3::new(3, 3, 3));
        let p: Point3 = [1, 2, 3].into();
        assert_eq!(p, Point3::new(1, 2, 3));
        let a: [i64; 3] = p.into();
        assert_eq!(a, [1, 2, 3]);
    }

    #[test]
    fn arithmetic() {
        let a = Point3::new(1, 2, 3);
        let b = Point3::new(4, 5, 6);
        assert_eq!(a + b, Point3::new(5, 7, 9));
        assert_eq!(b - a, Point3::new(3, 3, 3));
        assert_eq!(-a, Point3::new(-1, -2, -3));
        assert_eq!(a * 2, Point3::new(2, 4, 6));
        assert_eq!(a.hadamard(b), Point3::new(4, 10, 18));
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn axis_access() {
        let mut p = Point3::new(7, 8, 9);
        assert_eq!(p[0], 7);
        assert_eq!(p[1], 8);
        assert_eq!(p[2], 9);
        assert_eq!(p.get(2), 9);
        p[1] = 42;
        assert_eq!(p.y, 42);
        assert_eq!(p.with(0, 5).x, 5);
    }

    #[test]
    #[should_panic]
    fn axis_out_of_range_panics() {
        let _ = Point3::zero()[3];
    }

    #[test]
    fn min_max_product() {
        let a = Point3::new(1, 5, 3);
        let b = Point3::new(4, 2, 6);
        assert_eq!(a.min(b), Point3::new(1, 2, 3));
        assert_eq!(a.max(b), Point3::new(4, 5, 6));
        assert_eq!(a.product(), 15);
        assert_eq!(a.sum(), 9);
    }

    #[test]
    fn euclid_division_wraps_negatives() {
        let p = Point3::new(-1, 8, -9);
        let d = Point3::splat(8);
        assert_eq!(p.div_floor(d), Point3::new(-1, 1, -2));
        assert_eq!(p.rem_euclid(d), Point3::new(7, 0, 7));
    }

    #[test]
    fn codim_counts_nonzero() {
        assert_eq!(Point3::zero().codim(), 0);
        assert_eq!(Point3::new(1, 0, 0).codim(), 1);
        assert_eq!(Point3::new(1, -1, 0).codim(), 2);
        assert_eq!(Point3::new(1, 1, 1).codim(), 3);
    }

    #[test]
    fn comparisons() {
        assert!(Point3::zero().all_lt(Point3::splat(1)));
        assert!(!Point3::zero().all_lt(Point3::new(1, 0, 1)));
        assert!(Point3::zero().all_le(Point3::new(1, 0, 1)));
    }
}
