//! The per-brick neighbour view stencil kernels read through.
//!
//! A stencil application on a brick reads cells from the brick itself and —
//! near brick faces — from neighbouring bricks. [`BrickFaces`] resolves the
//! face neighbours once per brick through the layout's adjacency table, so
//! kernels never perform global index arithmetic in their inner loops.

use crate::field::BrickedField;
use crate::layout::{dir27, NO_BRICK};
use gmg_mesh::Point3;

/// The cells of one `B³` brick as a fixed-size block, indexed `[z][y][x]`
/// (x fastest, as bricks store them): cell `[z][y][x]` is the flat offset
/// `(z·B + y)·B + x`.
pub type Cube<const B: usize> = [[[f64; B]; B]; B];

/// View a brick's `B³` cells as a [`Cube`]. The one length check is here:
/// every index into the view is then checked against the constant `B`
/// only, which the compiler resolves for const loop bounds. Panics, naming
/// both lengths, if `cells` is not exactly `B³` long.
#[inline(always)]
pub fn cube<const B: usize>(cells: &[f64]) -> &Cube<B> {
    check_len::<B>(cells.len());
    let (planes, _) = cells.as_chunks::<B>().0.as_chunks::<B>();
    planes.try_into().expect("B³ cells are B planes")
}

/// Mutable [`cube`].
#[inline(always)]
pub fn cube_mut<const B: usize>(cells: &mut [f64]) -> &mut Cube<B> {
    check_len::<B>(cells.len());
    let (planes, _) = cells.as_chunks_mut::<B>().0.as_chunks_mut::<B>();
    planes.try_into().expect("B³ cells are B planes")
}

#[inline(always)]
fn check_len<const B: usize>(len: usize) {
    assert!(
        len == B * B * B,
        "a {B}³ brick view needs {} cells, got a slice of length {len}",
        B * B * B
    );
}

/// Base slices of one brick and its six *face* neighbors, resolved once
/// per brick.
///
/// A star-shaped (face-connected) stencil of radius ≤ B never reads edge
/// or corner bricks, so resolving the ±x/±y/±z slices up front lets a
/// kernel stream whole rows with **zero per-point adjacency lookups**:
/// every neighbor value is a fixed offset into one of these seven
/// contiguous slices. This is what collapses the old `brick_boundary`
/// per-cell indirection pass into the streamed interior loop.
///
/// A face slice is `None` when that brick lies outside the storage shell;
/// kernels whose region-validity precondition holds (`region.grow(r)`
/// inside the storage cell box) never dereference a missing face.
pub struct BrickFaces<'a> {
    /// The center brick's contiguous cells (`B³`, x fastest).
    pub center: &'a [f64],
    /// The −x face neighbor's cells.
    pub xm: Option<&'a [f64]>,
    /// The +x face neighbor's cells.
    pub xp: Option<&'a [f64]>,
    /// The −y face neighbor's cells.
    pub ym: Option<&'a [f64]>,
    /// The +y face neighbor's cells.
    pub yp: Option<&'a [f64]>,
    /// The −z face neighbor's cells.
    pub zm: Option<&'a [f64]>,
    /// The +z face neighbor's cells.
    pub zp: Option<&'a [f64]>,
}

impl<'a> BrickFaces<'a> {
    /// Resolve the center and six face-neighbor base slices for `slot`
    /// from its adjacency row.
    #[inline]
    pub fn new(field: &'a BrickedField, slot: u32) -> Self {
        let layout = field.layout();
        let adjacency = layout.adjacency(slot);
        let (data, bvol) = (field.as_slice(), layout.brick_volume());
        let brick = |s: u32| &data[s as usize * bvol..(s as usize + 1) * bvol];
        let face = |d: Point3| {
            let s = adjacency[dir27(d)];
            (s != NO_BRICK).then(|| brick(s))
        };
        BrickFaces {
            center: brick(adjacency[13]),
            xm: face(Point3::new(-1, 0, 0)),
            xp: face(Point3::new(1, 0, 0)),
            ym: face(Point3::new(0, -1, 0)),
            yp: face(Point3::new(0, 1, 0)),
            zm: face(Point3::new(0, 0, -1)),
            zp: face(Point3::new(0, 0, 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{BrickLayout, BrickOrdering};
    use gmg_mesh::Box3;
    use std::sync::Arc;

    /// `[z][y][x]` of a view is the flat offset `(z·B + y)·B + x`, both
    /// ways, at every brick width.
    fn check_cube<const B: usize>() {
        let mut cells: Vec<f64> = (0..B * B * B).map(|i| i as f64).collect();
        for (z, plane) in cube::<B>(&cells).iter().enumerate() {
            for (y, row) in plane.iter().enumerate() {
                for (x, &v) in row.iter().enumerate() {
                    assert_eq!(v, ((z * B + y) * B + x) as f64, "B={B}");
                }
            }
        }
        cube_mut::<B>(&mut cells)[B - 1][0][B - 1] = -1.0;
        assert_eq!(cells[((B - 1) * B) * B + B - 1], -1.0, "B={B}");
    }

    #[test]
    fn cube_index_is_the_flat_offset() {
        check_cube::<1>();
        check_cube::<2>();
        check_cube::<4>();
        check_cube::<8>();
    }

    #[test]
    #[should_panic(expected = "a 4³ brick view needs 64 cells, got a slice of length 65")]
    fn cube_of_the_wrong_length_panics() {
        cube::<4>(&[0.0; 65]);
    }

    #[test]
    #[should_panic(expected = "a 2³ brick view needs 8 cells, got a slice of length 7")]
    fn cube_mut_of_the_wrong_length_panics() {
        cube_mut::<2>(&mut [0.0; 7]);
    }

    #[test]
    fn faces_match_neighbor_slices() {
        let l = Arc::new(BrickLayout::new(
            Box3::cube(8),
            4,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        let f = BrickedField::from_fn(l.clone(), |p| (p.x + 10 * p.y + 100 * p.z) as f64);
        let slot = l.slot_of_brick(Point3::splat(1));
        let faces = BrickFaces::new(&f, slot);
        let at = |b: Point3| Some(f.brick(l.slot_of_brick(b)));
        assert_eq!(faces.center, f.brick(slot));
        assert_eq!(faces.xm, at(Point3::new(0, 1, 1)));
        assert_eq!(faces.xp, at(Point3::new(2, 1, 1)));
        assert_eq!(faces.ym, at(Point3::new(1, 0, 1)));
        assert_eq!(faces.yp, at(Point3::new(1, 2, 1)));
        assert_eq!(faces.zm, at(Point3::new(1, 1, 0)));
        assert_eq!(faces.zp, at(Point3::new(1, 1, 2)));
        // A ghost brick's outward face does not exist.
        let gslot = l.slot_of_brick(Point3::new(-1, 0, 0));
        let gf = BrickFaces::new(&f, gslot);
        assert!(gf.xm.is_none());
        assert!(gf.xp.is_some());
    }
}
