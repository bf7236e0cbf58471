//! Brick geometry, storage orderings, and the adjacency indirection table.
//!
//! A [`BrickLayout`] describes how a brick-aligned subdomain (plus a ghost
//! shell of bricks) maps onto a linear sequence of *slots*. Because every
//! access goes through the `brick → slot` indirection, the physical order of
//! slots is a free optimization knob:
//!
//! * [`BrickOrdering::Lexicographic`] — bricks stored in global index order,
//!   like a conventional array of tiles. Ghost regions are scattered, so a
//!   halo exchange needs gather/scatter (packing).
//! * [`BrickOrdering::SurfaceMajor`] — ghost bricks first, grouped by their
//!   halo direction; then surface bricks grouped by their face/edge/corner
//!   class; interior bricks last. Every receive region is then **one
//!   contiguous slot range** and every send region is at most a few runs —
//!   this is the "packing- and unpacking-free communication buffers"
//!   optimization from the paper (Section V) and the PPoPP'21 BrickLib work.

use gmg_mesh::ghost::{direction_index, DIRECTIONS_26};
use gmg_mesh::{Box3, Point3};
use std::ops::Range;

/// Sentinel slot id for "no brick" (outside the storage shell).
pub const NO_BRICK: u32 = u32::MAX;

/// Physical storage order of bricks within a layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrickOrdering {
    /// Bricks in lexicographic order of their global brick index.
    Lexicographic,
    /// Ghost bricks (grouped per direction), then surface bricks (grouped
    /// per face/edge/corner class), then interior bricks.
    SurfaceMajor,
}

/// Compile-time specialization class of a brick dimension.
///
/// The hot stencil kernels in `gmg-stencil` monomorphize their inner loops
/// for the brick shapes the solver and perfgate actually exercise (4³ and
/// 8³), so the compiler sees the row length as a constant and unrolls /
/// vectorizes accordingly; every other dimension takes the runtime-dim
/// generic path, which computes identical bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BrickShape {
    /// 4³ bricks (the paper's Sunspot configuration).
    B4,
    /// 8³ bricks (the paper's Perlmutter/Frontier configuration).
    B8,
    /// Any other dimension: runtime-dim fallback kernel.
    Generic(i64),
}

impl BrickShape {
    /// Classify a brick dimension.
    pub fn of(brick_dim: i64) -> Self {
        match brick_dim {
            4 => BrickShape::B4,
            8 => BrickShape::B8,
            d => BrickShape::Generic(d),
        }
    }

    /// The brick side length this shape describes.
    pub fn dim(self) -> i64 {
        match self {
            BrickShape::B4 => 4,
            BrickShape::B8 => 8,
            BrickShape::Generic(d) => d,
        }
    }
}

/// Classification of a brick within a layout's storage shell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotClass {
    /// Ghost brick, with its halo direction.
    Ghost(Point3),
    /// Owned brick on the subdomain surface, with its sign-pattern class
    /// (`-1`/`+1` where the brick touches the low/high boundary).
    Surface(Point3),
    /// Owned brick with no face on the subdomain boundary.
    Interior,
}

/// Geometry and indirection tables for a bricked subdomain.
///
/// Cell coordinates are *global* (the subdomain's position inside the
/// decomposed domain), so neighboring ranks agree on brick indices, which is
/// what lets the exchange map slots directly between layouts.
#[derive(Clone, Debug)]
pub struct BrickLayout {
    cell_box: Box3,
    brick_dim: i64,
    ghost_bricks: i64,
    ordering: BrickOrdering,
    brick_box: Box3,
    storage_brick_box: Box3,
    slot_to_brick: Vec<Point3>,
    /// Indexed by linear position in `storage_brick_box`, x fastest.
    brick_to_slot: Vec<u32>,
    /// `adjacency[slot][dir27]` = slot of the neighboring brick, or
    /// [`NO_BRICK`] outside the storage shell. `dir27` indexes offsets
    /// `(dz+1)*9 + (dy+1)*3 + (dx+1)`; index 13 is the brick itself.
    adjacency: Vec<[u32; 27]>,
}

/// Index into the 27-point adjacency row for offset `d ∈ {-1,0,1}³`.
#[inline]
pub(crate) fn dir27(d: Point3) -> usize {
    debug_assert!(d.x.abs() <= 1 && d.y.abs() <= 1 && d.z.abs() <= 1);
    ((d.z + 1) * 9 + (d.y + 1) * 3 + (d.x + 1)) as usize
}

impl BrickLayout {
    /// Build a layout over the brick-aligned cell region `cell_box` with
    /// cubic bricks of side `brick_dim`, a ghost shell `ghost_bricks` bricks
    /// deep, and the given physical ordering.
    pub fn new(cell_box: Box3, brick_dim: i64, ghost_bricks: i64, ordering: BrickOrdering) -> Self {
        assert!(brick_dim >= 1, "brick dimension must be >= 1");
        assert!(ghost_bricks >= 0, "ghost depth must be >= 0");
        assert!(!cell_box.is_empty(), "cell region must be non-empty");
        for a in 0..3 {
            assert_eq!(
                cell_box.lo[a].rem_euclid(brick_dim),
                0,
                "cell_box.lo {:?} not aligned to brick dim {brick_dim}",
                cell_box.lo
            );
            assert_eq!(
                cell_box.hi[a].rem_euclid(brick_dim),
                0,
                "cell_box.hi {:?} not aligned to brick dim {brick_dim}",
                cell_box.hi
            );
        }
        let brick_box = cell_box.coarsen(brick_dim);
        let storage_brick_box = brick_box.grow(ghost_bricks);
        let nslots = storage_brick_box.volume();
        assert!(nslots < NO_BRICK as usize, "too many bricks");

        // Enumerate bricks in physical order.
        let mut slot_to_brick = Vec::with_capacity(nslots);
        match ordering {
            BrickOrdering::Lexicographic => {
                storage_brick_box.for_each(|b| slot_to_brick.push(b));
            }
            BrickOrdering::SurfaceMajor => {
                // 1. Ghost bricks grouped by halo direction, in
                //    DIRECTIONS_26 order, lexicographic within each group.
                for dir in DIRECTIONS_26 {
                    storage_brick_box.for_each(|b| {
                        if classify(b, brick_box) == SlotClass::Ghost(dir) {
                            slot_to_brick.push(b);
                        }
                    });
                }
                // 2. Surface bricks grouped by sign class.
                for class in DIRECTIONS_26 {
                    storage_brick_box.for_each(|b| {
                        if classify(b, brick_box) == SlotClass::Surface(class) {
                            slot_to_brick.push(b);
                        }
                    });
                }
                // 3. Interior bricks.
                storage_brick_box.for_each(|b| {
                    if classify(b, brick_box) == SlotClass::Interior {
                        slot_to_brick.push(b);
                    }
                });
            }
        }
        debug_assert_eq!(slot_to_brick.len(), nslots);

        // Inverse map.
        let mut brick_to_slot = vec![NO_BRICK; nslots];
        let ext = storage_brick_box.extent();
        let lin = |b: Point3| -> usize {
            let r = b - storage_brick_box.lo;
            ((r.z * ext.y + r.y) * ext.x + r.x) as usize
        };
        for (slot, &b) in slot_to_brick.iter().enumerate() {
            brick_to_slot[lin(b)] = slot as u32;
        }

        // Adjacency rows.
        let mut adjacency = vec![[NO_BRICK; 27]; nslots];
        for (slot, &b) in slot_to_brick.iter().enumerate() {
            for dz in -1..=1 {
                for dy in -1..=1 {
                    for dx in -1..=1 {
                        let d = Point3::new(dx, dy, dz);
                        let nb = b + d;
                        adjacency[slot][dir27(d)] = if storage_brick_box.contains(nb) {
                            brick_to_slot[lin(nb)]
                        } else {
                            NO_BRICK
                        };
                    }
                }
            }
        }

        Self {
            cell_box,
            brick_dim,
            ghost_bricks,
            ordering,
            brick_box,
            storage_brick_box,
            slot_to_brick,
            brick_to_slot,
            adjacency,
        }
    }

    /// The valid (owned) cell region.
    #[inline]
    pub fn cell_box(&self) -> Box3 {
        self.cell_box
    }

    /// The full cell region covered by storage (owned + ghost shell).
    #[inline]
    pub fn storage_cell_box(&self) -> Box3 {
        self.cell_box.grow(self.ghost_bricks * self.brick_dim)
    }

    /// Brick side length `B`.
    #[inline]
    pub fn brick_dim(&self) -> i64 {
        self.brick_dim
    }

    /// Specialization class of this layout's brick dimension.
    #[inline]
    pub fn shape(&self) -> BrickShape {
        BrickShape::of(self.brick_dim)
    }

    /// Ghost shell depth in bricks.
    #[inline]
    pub fn ghost_bricks(&self) -> i64 {
        self.ghost_bricks
    }

    /// Ghost shell depth in cells (`ghost_bricks × brick_dim`) — the number
    /// of communication-avoiding smooth steps one exchange supports.
    #[inline]
    pub fn ghost_cells(&self) -> i64 {
        self.ghost_bricks * self.brick_dim
    }

    /// Physical ordering in use.
    #[inline]
    pub fn ordering(&self) -> BrickOrdering {
        self.ordering
    }

    /// The owned brick-index region.
    #[inline]
    pub fn brick_box(&self) -> Box3 {
        self.brick_box
    }

    /// The full brick-index region including the ghost shell.
    #[inline]
    pub fn storage_brick_box(&self) -> Box3 {
        self.storage_brick_box
    }

    /// Cells per brick (`B³`).
    #[inline]
    pub fn brick_volume(&self) -> usize {
        (self.brick_dim * self.brick_dim * self.brick_dim) as usize
    }

    /// Total slots (owned + ghost bricks).
    #[inline]
    pub fn num_slots(&self) -> usize {
        self.slot_to_brick.len()
    }

    /// Total cells of storage (`num_slots × brick_volume`).
    #[inline]
    pub fn storage_cells(&self) -> usize {
        self.num_slots() * self.brick_volume()
    }

    /// Global brick index stored in `slot`.
    #[inline]
    pub fn brick_of_slot(&self, slot: u32) -> Point3 {
        self.slot_to_brick[slot as usize]
    }

    /// Slot of global brick index `b`, or [`NO_BRICK`] outside storage.
    #[inline]
    pub fn slot_of_brick(&self, b: Point3) -> u32 {
        if !self.storage_brick_box.contains(b) {
            return NO_BRICK;
        }
        let r = b - self.storage_brick_box.lo;
        let e = self.storage_brick_box.extent();
        self.brick_to_slot[((r.z * e.y + r.y) * e.x + r.x) as usize]
    }

    /// Brick index containing global cell `p`.
    #[inline]
    pub fn brick_of_cell(&self, p: Point3) -> Point3 {
        p.div_floor(Point3::splat(self.brick_dim))
    }

    /// Intra-brick linear offset of global cell `p` (x fastest within the
    /// brick).
    #[inline]
    pub fn offset_in_brick(&self, p: Point3) -> usize {
        let r = p.rem_euclid(Point3::splat(self.brick_dim));
        ((r.z * self.brick_dim + r.y) * self.brick_dim + r.x) as usize
    }

    /// `(slot, intra-brick offset)` of a global cell, or `None` outside
    /// storage.
    #[inline]
    pub fn locate(&self, p: Point3) -> Option<(u32, usize)> {
        let slot = self.slot_of_brick(self.brick_of_cell(p));
        if slot == NO_BRICK {
            None
        } else {
            Some((slot, self.offset_in_brick(p)))
        }
    }

    /// Adjacency row of `slot`: the 27 neighboring slots indexed by
    /// [`dir27`]-style offsets.
    #[inline]
    pub fn adjacency(&self, slot: u32) -> &[u32; 27] {
        &self.adjacency[slot as usize]
    }

    /// Neighbor slot of `slot` in brick-offset `d ∈ {-1,0,1}³`.
    #[inline]
    pub fn neighbor_slot(&self, slot: u32, d: Point3) -> u32 {
        self.adjacency[slot as usize][dir27(d)]
    }

    /// Classification of the brick held in `slot`.
    pub fn class_of_slot(&self, slot: u32) -> SlotClass {
        classify(self.slot_to_brick[slot as usize], self.brick_box)
    }

    /// Slots of all owned bricks (any order is the physical slot order,
    /// restricted to owned bricks).
    pub fn owned_slots(&self) -> Vec<u32> {
        (0..self.num_slots() as u32)
            .filter(|&s| self.brick_box.contains(self.slot_to_brick[s as usize]))
            .collect()
    }

    /// Slots of ghost bricks in halo direction `dir`, in receive order
    /// (lexicographic by global brick index).
    pub fn ghost_slots(&self, dir: Point3) -> Vec<u32> {
        let mut v: Vec<u32> = (0..self.num_slots() as u32)
            .filter(|&s| self.class_of_slot(s) == SlotClass::Ghost(dir))
            .collect();
        v.sort_by_key(|&s| {
            let b = self.slot_to_brick[s as usize];
            (b.z, b.y, b.x)
        });
        v
    }

    /// Slots of owned bricks that a neighbor in direction `dir` needs (the
    /// send set): the depth-`ghost_bricks` layer of owned bricks adjacent to
    /// that face/edge/corner, in lexicographic (receive-matching) order.
    pub fn send_slots(&self, dir: Point3) -> Vec<u32> {
        let region = self.brick_box.face_region(dir, self.ghost_bricks);
        let mut v = Vec::with_capacity(region.volume());
        region.for_each(|b| {
            let s = self.slot_of_brick(b);
            debug_assert_ne!(s, NO_BRICK);
            v.push(s);
        });
        v
    }

    /// Contiguous slot runs covering `slots` (which need not be sorted; runs
    /// are computed on the sorted set). The run count is the number of
    /// memcpy/MPI operations a zero-packing exchange needs for this set —
    /// the figure of merit for the surface-major ordering.
    pub fn contiguous_runs(slots: &[u32]) -> Vec<Range<u32>> {
        if slots.is_empty() {
            return Vec::new();
        }
        let mut sorted: Vec<u32> = slots.to_vec();
        sorted.sort_unstable();
        let mut runs = Vec::new();
        let mut start = sorted[0];
        let mut prev = sorted[0];
        for &s in &sorted[1..] {
            debug_assert_ne!(s, prev, "duplicate slot in run computation");
            if s != prev + 1 {
                runs.push(start..prev + 1);
                start = s;
            }
            prev = s;
        }
        runs.push(start..prev + 1);
        runs
    }

    /// `(slot, cell sub-box)` pairs for every brick whose cells intersect
    /// `region` (clipped to the storage shell). This is the traversal driver
    /// for stencil kernels operating on shrinking communication-avoiding
    /// regions.
    pub fn slots_intersecting(&self, region: Box3) -> Vec<(u32, Box3)> {
        let clipped = region.intersect(&self.storage_cell_box());
        if clipped.is_empty() {
            return Vec::new();
        }
        let bb = clipped.coarsen(self.brick_dim);
        let mut out = Vec::with_capacity(bb.volume());
        bb.for_each(|b| {
            let slot = self.slot_of_brick(b);
            if slot != NO_BRICK {
                let cells = Box3::new(b * self.brick_dim, (b + Point3::splat(1)) * self.brick_dim);
                let sub = cells.intersect(&clipped);
                if !sub.is_empty() {
                    out.push((slot, sub));
                }
            }
        });
        out
    }

    /// The cell box of the brick in `slot`.
    #[inline]
    pub fn cells_of_slot(&self, slot: u32) -> Box3 {
        let b = self.slot_to_brick[slot as usize];
        Box3::new(b * self.brick_dim, (b + Point3::splat(1)) * self.brick_dim)
    }
}

/// Classify a brick against the owned brick box.
fn classify(b: Point3, brick_box: Box3) -> SlotClass {
    if !brick_box.contains(b) {
        let mut d = Point3::zero();
        for a in 0..3 {
            if b[a] < brick_box.lo[a] {
                d[a] = -1;
            } else if b[a] >= brick_box.hi[a] {
                d[a] = 1;
            }
        }
        return SlotClass::Ghost(d);
    }
    let mut c = Point3::zero();
    for a in 0..3 {
        if b[a] == brick_box.lo[a] {
            c[a] = -1;
        } else if b[a] == brick_box.hi[a] - 1 {
            c[a] = 1;
        }
    }
    if c == Point3::zero() {
        SlotClass::Interior
    } else {
        SlotClass::Surface(c)
    }
}

/// Verify that `direction_index` agrees with the mesh crate's ordering for
/// all layout code that groups by direction.
#[allow(dead_code)]
fn _assert_direction_order(dir: Point3) -> usize {
    direction_index(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(n: i64, b: i64, g: i64, ord: BrickOrdering) -> BrickLayout {
        BrickLayout::new(Box3::cube(n), b, g, ord)
    }

    #[test]
    fn geometry_basics() {
        let l = layout(32, 8, 1, BrickOrdering::SurfaceMajor);
        assert_eq!(l.brick_box(), Box3::cube(4));
        assert_eq!(l.storage_brick_box(), Box3::cube(4).grow(1));
        assert_eq!(l.num_slots(), 216);
        assert_eq!(l.brick_volume(), 512);
        assert_eq!(l.ghost_cells(), 8);
        assert_eq!(l.storage_cell_box(), Box3::cube(32).grow(8));
        assert_eq!(l.storage_cells(), 216 * 512);
    }

    #[test]
    fn slot_brick_bijection() {
        for ord in [BrickOrdering::Lexicographic, BrickOrdering::SurfaceMajor] {
            let l = layout(16, 4, 1, ord);
            let mut seen = std::collections::HashSet::new();
            for s in 0..l.num_slots() as u32 {
                let b = l.brick_of_slot(s);
                assert!(l.storage_brick_box().contains(b));
                assert!(seen.insert(b), "brick {b:?} appears twice");
                assert_eq!(l.slot_of_brick(b), s);
            }
            assert_eq!(seen.len(), l.num_slots());
        }
    }

    #[test]
    fn out_of_storage_is_no_brick() {
        let l = layout(16, 4, 1, BrickOrdering::SurfaceMajor);
        assert_eq!(l.slot_of_brick(Point3::splat(-2)), NO_BRICK);
        assert_eq!(l.slot_of_brick(Point3::splat(5)), NO_BRICK);
        assert!(l.locate(Point3::splat(-5)).is_none());
        assert!(l.locate(Point3::splat(-4)).is_some());
    }

    #[test]
    fn cell_location() {
        let l = layout(16, 4, 0, BrickOrdering::Lexicographic);
        // Cell (0,0,0): first brick, offset 0.
        assert_eq!(l.locate(Point3::zero()), Some((0, 0)));
        // Cell (1,0,0): same brick, offset 1 (x fastest intra-brick).
        assert_eq!(l.locate(Point3::new(1, 0, 0)), Some((0, 1)));
        // Cell (0,1,0): offset 4.
        assert_eq!(l.locate(Point3::new(0, 1, 0)), Some((0, 4)));
        // Cell (0,0,1): offset 16.
        assert_eq!(l.locate(Point3::new(0, 0, 1)), Some((0, 16)));
        // Cell (4,0,0): next brick in x.
        let (slot, off) = l.locate(Point3::new(4, 0, 0)).unwrap();
        assert_eq!(off, 0);
        assert_eq!(l.brick_of_slot(slot), Point3::new(1, 0, 0));
    }

    #[test]
    fn negative_cell_coordinates_locate_correctly() {
        let l = layout(16, 4, 1, BrickOrdering::SurfaceMajor);
        let (slot, off) = l.locate(Point3::new(-1, 0, 0)).unwrap();
        assert_eq!(l.brick_of_slot(slot), Point3::new(-1, 0, 0));
        assert_eq!(off, 3); // x = -1 mod 4 = 3
    }

    #[test]
    fn adjacency_consistency() {
        for ord in [BrickOrdering::Lexicographic, BrickOrdering::SurfaceMajor] {
            let l = layout(16, 4, 1, ord);
            for s in 0..l.num_slots() as u32 {
                let b = l.brick_of_slot(s);
                assert_eq!(l.neighbor_slot(s, Point3::zero()), s, "self adjacency");
                for dz in -1..=1 {
                    for dy in -1..=1 {
                        for dx in -1..=1 {
                            let d = Point3::new(dx, dy, dz);
                            let expect = l.slot_of_brick(b + d);
                            assert_eq!(l.neighbor_slot(s, d), expect);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn owned_bricks_have_full_adjacency() {
        // With a ghost shell >= 1, every owned brick has all 27 neighbors.
        let l = layout(16, 4, 1, BrickOrdering::SurfaceMajor);
        for s in l.owned_slots() {
            for &n in l.adjacency(s) {
                assert_ne!(n, NO_BRICK);
            }
        }
    }

    #[test]
    fn classification_census() {
        let l = layout(32, 8, 1, BrickOrdering::SurfaceMajor);
        let mut ghost = 0;
        let mut surface = 0;
        let mut interior = 0;
        for s in 0..l.num_slots() as u32 {
            match l.class_of_slot(s) {
                SlotClass::Ghost(_) => ghost += 1,
                SlotClass::Surface(_) => surface += 1,
                SlotClass::Interior => interior += 1,
            }
        }
        // 4³ owned bricks: 2³ interior, 4³-2³ surface; shell = 6³-4³ ghost.
        assert_eq!(interior, 8);
        assert_eq!(surface, 64 - 8);
        assert_eq!(ghost, 216 - 64);
    }

    #[test]
    fn surface_major_ghost_regions_are_single_runs() {
        let l = layout(32, 8, 1, BrickOrdering::SurfaceMajor);
        for dir in DIRECTIONS_26 {
            let slots = l.ghost_slots(dir);
            assert!(!slots.is_empty());
            let runs = BrickLayout::contiguous_runs(&slots);
            assert_eq!(runs.len(), 1, "ghost region {dir:?} not contiguous");
        }
    }

    #[test]
    fn lexicographic_ghost_regions_are_fragmented() {
        let l = layout(32, 8, 1, BrickOrdering::Lexicographic);
        // A face ghost region in lexicographic order spans many
        // non-adjacent rows; count total runs over all directions and
        // check it is much worse than surface-major's 26.
        let total: usize = DIRECTIONS_26
            .iter()
            .map(|&d| BrickLayout::contiguous_runs(&l.ghost_slots(d)).len())
            .sum();
        assert!(total > 26 * 2, "expected fragmentation, got {total} runs");
    }

    #[test]
    fn send_slots_match_neighbor_ghost_count() {
        let l = layout(32, 8, 1, BrickOrdering::SurfaceMajor);
        for dir in DIRECTIONS_26 {
            let send = l.send_slots(dir);
            let ghost = l.ghost_slots(dir);
            // Congruent subdomains: my send set to dir has the same shape
            // as my ghost set from dir.
            assert_eq!(send.len(), ghost.len(), "dir {dir:?}");
            // Send sets lie inside the owned box.
            for &s in &send {
                assert!(l.brick_box().contains(l.brick_of_slot(s)));
            }
        }
    }

    #[test]
    fn surface_major_send_runs_are_few() {
        let l = layout(64, 8, 1, BrickOrdering::SurfaceMajor);
        for dir in DIRECTIONS_26 {
            let runs = BrickLayout::contiguous_runs(&l.send_slots(dir));
            let max_runs = match dir.codim() {
                1 => 9, // face send gathers up to 9 surface classes
                2 => 3, // edge send: up to 3 classes
                3 => 1, // corner send: exactly the corner class
                _ => unreachable!(),
            };
            assert!(
                runs.len() <= max_runs,
                "dir {dir:?}: {} runs > {max_runs}",
                runs.len()
            );
        }
    }

    #[test]
    fn slots_intersecting_covers_region_exactly() {
        let l = layout(16, 4, 1, BrickOrdering::SurfaceMajor);
        let region = Box3::new(Point3::new(-2, 3, 0), Point3::new(7, 9, 16));
        let pieces = l.slots_intersecting(region);
        let total: usize = pieces.iter().map(|(_, b)| b.volume()).sum();
        assert_eq!(total, region.volume());
        // Pieces are disjoint and within their brick.
        for (i, (s, b)) in pieces.iter().enumerate() {
            assert!(l.cells_of_slot(*s).contains_box(b));
            for (_, b2) in &pieces[i + 1..] {
                assert!(b.intersect(b2).is_empty());
            }
        }
    }

    #[test]
    fn slots_intersecting_clips_to_storage() {
        let l = layout(16, 4, 1, BrickOrdering::SurfaceMajor);
        let huge = Box3::cube(16).grow(100);
        let pieces = l.slots_intersecting(huge);
        let total: usize = pieces.iter().map(|(_, b)| b.volume()).sum();
        assert_eq!(total, l.storage_cell_box().volume());
    }

    #[test]
    fn contiguous_runs_merging() {
        assert_eq!(BrickLayout::contiguous_runs(&[]), vec![]);
        assert_eq!(BrickLayout::contiguous_runs(&[5]), vec![5..6]);
        assert_eq!(BrickLayout::contiguous_runs(&[1, 2, 3]), vec![1..4]);
        assert_eq!(
            BrickLayout::contiguous_runs(&[3, 1, 2, 7, 9, 8]),
            vec![1..4, 7..10]
        );
    }

    #[test]
    #[should_panic]
    fn unaligned_cell_box_panics() {
        BrickLayout::new(Box3::cube(10), 4, 1, BrickOrdering::SurfaceMajor);
    }

    #[test]
    fn brick_dim_one_degenerates_to_cells() {
        let l = layout(4, 1, 1, BrickOrdering::Lexicographic);
        assert_eq!(l.brick_volume(), 1);
        assert_eq!(l.num_slots(), 6 * 6 * 6);
        let (slot, off) = l.locate(Point3::new(2, 3, 1)).unwrap();
        assert_eq!(off, 0);
        assert_eq!(l.brick_of_slot(slot), Point3::new(2, 3, 1));
    }
}
