//! Message planning: subdomain geometry → per-neighbor message sizes.
//!
//! The network model consumes byte counts. For an all-halo subdomain they
//! are pure geometry: per direction, the face, edge or corner region as
//! deep as the ghost shell ([`message_bytes`]). A brick shell one brick
//! deep over a brick-aligned subdomain holds exactly those cells, so no
//! brick layout is built to count them; the contiguous-run structure of a
//! brick ordering is read from [`gmg_brick::BrickLayout`] itself.

use gmg_brick::BrickOrdering;
use gmg_mesh::ghost::DIRECTIONS_26;
use gmg_mesh::{Box3, Point3};

/// Bytes per message of a ghost exchange `depth` cells deep around a
/// subdomain of `extent` cells, one per direction ([`DIRECTIONS_26`]
/// order): the face, edge or corner region of that depth, in doubles.
pub fn message_bytes(extent: Point3, depth: i64) -> [usize; 26] {
    let b = Box3::from_extent(extent);
    DIRECTIONS_26.map(|dir| b.face_region(dir, depth).volume() * 8)
}

/// Message plan for a conventional-array ghost exchange at depth `d`.
#[derive(Clone, Debug)]
pub struct ArrayExchangePlan {
    message_bytes: [usize; 26],
}

impl ArrayExchangePlan {
    /// Plan a 26-neighbor exchange for a subdomain of `sub_extent` cells
    /// with ghost depth `depth` (doubles).
    pub fn new(sub_extent: Point3, depth: i64) -> Self {
        Self {
            message_bytes: message_bytes(sub_extent, depth),
        }
    }

    /// Total payload bytes of one exchange.
    pub fn total_bytes(&self) -> usize {
        self.message_bytes.iter().sum()
    }
}

/// Message plan for a bricked ghost exchange (ghost shell = whole bricks).
#[derive(Clone, Debug)]
pub struct BrickExchangePlan {
    message_bytes: [usize; 26],
}

impl BrickExchangePlan {
    /// Plan the exchange for a brick-aligned subdomain: a shell
    /// `ghost_bricks` bricks deep. No ordering changes a message's size,
    /// so `ordering` has no effect.
    pub fn new(
        sub_extent: Point3,
        brick_dim: i64,
        ghost_bricks: i64,
        _ordering: BrickOrdering,
    ) -> Self {
        assert!(brick_dim >= 1, "brick dimension must be >= 1");
        assert!(
            (0..3).all(|a| sub_extent[a] >= 1 && sub_extent[a] % brick_dim == 0),
            "extent {sub_extent:?} not aligned to brick dim {brick_dim}"
        );
        Self {
            message_bytes: message_bytes(sub_extent, brick_dim * ghost_bricks),
        }
    }

    /// Total payload bytes of one exchange.
    pub fn total_bytes(&self) -> usize {
        self.message_bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_brick::BrickLayout;

    #[test]
    fn array_plan_volumes() {
        let p = ArrayExchangePlan::new(Point3::splat(8), 1);
        // 6 faces of 64, 12 edges of 8, 8 corners of 1.
        assert_eq!(p.total_bytes() / 8, 6 * 64 + 12 * 8 + 8);
        assert_eq!(p.message_bytes.len(), 26);
    }

    #[test]
    fn array_plan_scales_with_depth() {
        let p1 = ArrayExchangePlan::new(Point3::splat(64), 1);
        let p2 = ArrayExchangePlan::new(Point3::splat(64), 2);
        assert!(p2.total_bytes() > 2 * p1.total_bytes() - 8 * 64);
    }

    #[test]
    fn brick_plan_bytes_match_shell() {
        let p = BrickExchangePlan::new(Point3::splat(64), 8, 1, BrickOrdering::SurfaceMajor);
        // Shell of bricks: (8+2)³ − 8³ bricks of 512 cells.
        let shell_bricks = 10 * 10 * 10 - 8 * 8 * 8;
        assert_eq!(p.total_bytes(), shell_bricks * 512 * 8);
        // One brick deep: 8 cells.
        let depth8: usize = message_bytes(Point3::splat(64), 8).iter().sum();
        assert_eq!(p.total_bytes(), depth8);
    }

    /// The closed form against the layout the solver exchanges over: per
    /// direction, a brick shell's send and receive slot counts times the
    /// brick's bytes — every brick dim, both shell depths and orderings,
    /// non-cubic extents of 1–4 bricks per axis (a lone brick is the
    /// coarse-level case).
    #[test]
    fn closed_form_counts_the_brick_shell() {
        let mut bricks_per_axis = Vec::new();
        Box3::cube(4).for_each(|n| bricks_per_axis.push(n + Point3::splat(1)));
        let mut shapes = 0;
        for bd in [1i64, 2, 4, 8] {
            for ghost_bricks in [1i64, 2] {
                for ordering in [BrickOrdering::SurfaceMajor, BrickOrdering::Lexicographic] {
                    for &n in &bricks_per_axis {
                        let extent = n * bd;
                        let layout =
                            BrickLayout::new(Box3::from_extent(extent), bd, ghost_bricks, ordering);
                        let brick_bytes = layout.brick_volume() * 8;
                        let bytes = message_bytes(extent, bd * ghost_bricks);
                        for (dir, &b) in DIRECTIONS_26.into_iter().zip(&bytes) {
                            let (send, recv) = (layout.send_slots(dir), layout.ghost_slots(dir));
                            assert_eq!(
                                [b, b],
                                [send.len() * brick_bytes, recv.len() * brick_bytes],
                                "send, recv: {extent:?} bd {bd} x{ghost_bricks} {dir:?}"
                            );
                        }
                        let plan = BrickExchangePlan::new(extent, bd, ghost_bricks, ordering);
                        assert_eq!(plan.total_bytes(), bytes.iter().sum::<usize>());
                        shapes += 1;
                    }
                }
            }
        }
        assert_eq!(shapes, 4 * 2 * 2 * 64);
    }

    #[test]
    #[should_panic(expected = "not aligned to brick dim")]
    fn unaligned_brick_plan_panics() {
        BrickExchangePlan::new(Point3::new(12, 8, 8), 8, 1, BrickOrdering::SurfaceMajor);
    }

    #[test]
    fn brick_exchange_moves_more_bytes_but_less_often() {
        // The CA trade-off: a depth-8 brick exchange moves more data than a
        // depth-1 array exchange, but supports 8 smooth steps.
        let brick = BrickExchangePlan::new(Point3::splat(64), 8, 1, BrickOrdering::SurfaceMajor);
        let array = ArrayExchangePlan::new(Point3::splat(64), 1);
        assert!(brick.total_bytes() > array.total_bytes());
        let ghost_cells = 8;
        let per_smooth_brick = brick.total_bytes() as f64 / ghost_cells as f64;
        // Per smooth step the brick exchange is within ~2.5× of the array
        // bytes while eliminating 7 of 8 latency hits.
        assert!(per_smooth_brick < 2.5 * array.total_bytes() as f64);
    }
}
