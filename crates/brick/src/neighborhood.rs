//! The per-brick neighbour view stencil kernels read through.
//!
//! A stencil application on a brick reads cells from the brick itself and —
//! near brick faces — from neighbouring bricks. [`BrickFaces`] resolves the
//! face neighbours once per brick through the layout's adjacency table, so
//! kernels never perform global index arithmetic in their inner loops.

use crate::field::BrickedField;
use crate::layout::{dir27, NO_BRICK};
use gmg_mesh::Point3;

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
