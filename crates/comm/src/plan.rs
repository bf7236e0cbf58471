//! Message planning: subdomain geometry → per-neighbor message sizes.
//!
//! The network model consumes byte counts; this module derives them from
//! level geometry, ghost depth, and layout. Brick plans also expose the
//! contiguous-run structure that quantifies the pack-free property of the
//! surface-major ordering.

use gmg_brick::{BrickLayout, BrickOrdering};
use gmg_mesh::ghost::DIRECTIONS_26;
use gmg_mesh::{Box3, Point3};

/// Message plan for a conventional-array ghost exchange at depth `d`.
#[derive(Clone, Debug)]
pub struct ArrayExchangePlan {
    /// Subdomain extent.
    pub sub_extent: Point3,
    /// Ghost depth in cells.
    pub depth: i64,
    /// Bytes per message, one per direction ([`DIRECTIONS_26`] order).
    pub message_bytes: Vec<usize>,
}

impl ArrayExchangePlan {
    /// Plan a 26-neighbor exchange for a subdomain of `sub_extent` cells
    /// with ghost depth `depth` (doubles).
    pub fn new(sub_extent: Point3, depth: i64) -> Self {
        let b = Box3::from_extent(sub_extent);
        let message_bytes = DIRECTIONS_26
            .iter()
            .map(|&dir| b.face_region(dir, depth).volume() * 8)
            .collect();
        Self {
            sub_extent,
            depth,
            message_bytes,
        }
    }

    /// Total payload bytes of one exchange.
    pub fn total_bytes(&self) -> usize {
        self.message_bytes.iter().sum()
    }

    /// Cells that must be packed/unpacked per exchange (all of them — the
    /// conventional layout has no contiguous ghost regions beyond single
    /// faces).
    pub fn packed_cells(&self) -> usize {
        self.total_bytes() / 8
    }
}

/// Message plan for a bricked ghost exchange (ghost shell = whole bricks).
#[derive(Clone, Debug)]
pub struct BrickExchangePlan {
    pub sub_extent: Point3,
    pub brick_dim: i64,
    pub ghost_bricks: i64,
    /// Bytes per message, per direction.
    pub message_bytes: Vec<usize>,
    /// Contiguous slot runs needed to *send* each direction's bricks.
    pub send_runs: Vec<usize>,
    /// Contiguous slot runs needed to *receive* each direction's bricks.
    pub recv_runs: Vec<usize>,
}

impl BrickExchangePlan {
    /// Plan the exchange for a brick-aligned subdomain.
    pub fn new(
        sub_extent: Point3,
        brick_dim: i64,
        ghost_bricks: i64,
        ordering: BrickOrdering,
    ) -> Self {
        let layout = BrickLayout::new(
            Box3::from_extent(sub_extent),
            brick_dim,
            ghost_bricks,
            ordering,
        );
        let bvol_bytes = layout.brick_volume() * 8;
        let mut message_bytes = Vec::with_capacity(26);
        let mut send_runs = Vec::with_capacity(26);
        let mut recv_runs = Vec::with_capacity(26);
        for dir in DIRECTIONS_26 {
            let send = layout.send_slots(dir);
            let recv = layout.ghost_slots(dir);
            message_bytes.push(send.len() * bvol_bytes);
            send_runs.push(BrickLayout::contiguous_runs(&send).len());
            recv_runs.push(BrickLayout::contiguous_runs(&recv).len());
        }
        Self {
            sub_extent,
            brick_dim,
            ghost_bricks,
            message_bytes,
            send_runs,
            recv_runs,
        }
    }

    /// Total payload bytes of one exchange.
    pub fn total_bytes(&self) -> usize {
        self.message_bytes.iter().sum()
    }

    /// Total memcpy operations one exchange needs on the send + receive
    /// sides (the pack-free figure of merit; 26 receives = 26 runs with
    /// surface-major ordering).
    pub fn total_runs(&self) -> usize {
        self.send_runs.iter().sum::<usize>() + self.recv_runs.iter().sum::<usize>()
    }

    /// Ghost depth in cells — the number of smooth steps one exchange
    /// supports in communication-avoiding mode.
    pub fn ghost_cells(&self) -> i64 {
        self.brick_dim * self.ghost_bricks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_plan_volumes() {
        let p = ArrayExchangePlan::new(Point3::splat(8), 1);
        // 6 faces of 64, 12 edges of 8, 8 corners of 1.
        assert_eq!(p.total_bytes() / 8, 6 * 64 + 12 * 8 + 8);
        assert_eq!(p.message_bytes.len(), 26);
        assert_eq!(p.packed_cells(), p.total_bytes() / 8);
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
        assert_eq!(p.ghost_cells(), 8);
    }

    #[test]
    fn surface_major_is_pack_free_on_receive() {
        let p = BrickExchangePlan::new(Point3::splat(64), 8, 1, BrickOrdering::SurfaceMajor);
        assert!(p.recv_runs.iter().all(|&r| r == 1), "{:?}", p.recv_runs);
        // Sends need at most 9 runs (face gathers).
        assert!(p.send_runs.iter().all(|&r| r <= 9));
        let lex = BrickExchangePlan::new(Point3::splat(64), 8, 1, BrickOrdering::Lexicographic);
        assert!(
            lex.total_runs() > 3 * p.total_runs(),
            "lex {} vs surface {}",
            lex.total_runs(),
            p.total_runs()
        );
    }

    #[test]
    fn brick_exchange_moves_more_bytes_but_less_often() {
        // The CA trade-off: a depth-8 brick exchange moves more data than a
        // depth-1 array exchange, but supports 8 smooth steps.
        let brick = BrickExchangePlan::new(Point3::splat(64), 8, 1, BrickOrdering::SurfaceMajor);
        let array = ArrayExchangePlan::new(Point3::splat(64), 1);
        assert!(brick.total_bytes() > array.total_bytes());
        let per_smooth_brick = brick.total_bytes() as f64 / brick.ghost_cells() as f64;
        // Per smooth step the brick exchange is within ~2.5× of the array
        // bytes while eliminating 7 of 8 latency hits.
        assert!(per_smooth_brick < 2.5 * array.total_bytes() as f64);
    }
}
