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

/// One halo direction of a layout's exchange plan: the ghost bricks a
/// neighbor fills and the owned bricks that neighbor's mirror direction
/// needs, both in lexicographic brick order (the wire order).
#[derive(Clone, Debug)]
pub struct HaloDir {
    /// Halo direction from this rank toward the neighbor.
    pub dir: Point3,
    /// Owned bricks the neighbor in `dir` needs: the depth-`ghost_bricks`
    /// layer adjacent to that face/edge/corner.
    pub send: Vec<u32>,
    /// Ghost bricks the neighbor in `dir` fills.
    pub recv: Vec<u32>,
    /// `recv` as one slot range when its slots are consecutive (always,
    /// under [`BrickOrdering::SurfaceMajor`]): the receive is one copy.
    pub recv_run: Option<Range<u32>>,
}

/// Geometry and indirection tables for a bricked subdomain.
///
/// Cell coordinates are *global* (the subdomain's position inside the
/// decomposed domain), so neighboring ranks agree on brick indices, which is
/// what lets the exchange map slots directly between layouts.
///
/// Every axis is either a *halo* axis — the storage carries a ghost shell
/// there, filled by an exchange — or a *wrapped* axis, on which the
/// subdomain is its own periodic neighbor: no ghost bricks, and the
/// adjacency of the first and last bricks points across the seam, so a
/// kernel reads the live periodic image instead of a copy.
#[derive(Clone, Debug)]
pub struct BrickLayout {
    cell_box: Box3,
    brick_dim: i64,
    ghost_bricks: i64,
    ordering: BrickOrdering,
    wrap: [bool; 3],
    brick_box: Box3,
    storage_brick_box: Box3,
    slot_to_brick: Vec<Point3>,
    /// Indexed by linear position in `storage_brick_box`, x fastest.
    brick_to_slot: Vec<u32>,
    /// `adjacency[slot][dir27]` = slot of the neighboring brick, or
    /// [`NO_BRICK`] outside the storage shell. `dir27` indexes offsets
    /// `(dz+1)*9 + (dy+1)*3 + (dx+1)`; index 13 is the brick itself.
    adjacency: Vec<[u32; 27]>,
    /// The exchange plan: one entry per direction that has ghost bricks,
    /// in [`DIRECTIONS_26`] order.
    halo: Vec<HaloDir>,
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
    /// deep on every axis, and the given physical ordering.
    pub fn new(cell_box: Box3, brick_dim: i64, ghost_bricks: i64, ordering: BrickOrdering) -> Self {
        Self::with_wrap(cell_box, brick_dim, ghost_bricks, ordering, [false; 3])
    }

    /// [`BrickLayout::new`] with the ghost shell on the axes `wrap` leaves
    /// `false` only: on a wrapped axis `cell_box` is periodic onto itself
    /// (the caller's rank grid is 1 wide there) and bricks reach across the
    /// seam through the adjacency.
    pub fn with_wrap(
        cell_box: Box3,
        brick_dim: i64,
        ghost_bricks: i64,
        ordering: BrickOrdering,
        wrap: [bool; 3],
    ) -> Self {
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
        let storage_brick_box = grow_axes(brick_box, ghost_bricks, wrap);
        let nslots = storage_brick_box.volume();
        assert!(nslots < NO_BRICK as usize, "too many bricks");

        // One classification pass: bricks by group, lexicographic within
        // each — ghosts per direction, surface per sign class, interior.
        let mut ghosts: [Vec<Point3>; 26] = Default::default();
        let mut surface: [Vec<Point3>; 26] = Default::default();
        let mut interior = Vec::new();
        storage_brick_box.for_each(|b| match classify(b, brick_box, wrap) {
            SlotClass::Ghost(d) => ghosts[direction_index(d)].push(b),
            SlotClass::Surface(c) => surface[direction_index(c)].push(b),
            SlotClass::Interior => interior.push(b),
        });
        let mut slot_to_brick = Vec::with_capacity(nslots);
        match ordering {
            BrickOrdering::Lexicographic => storage_brick_box.for_each(|b| slot_to_brick.push(b)),
            BrickOrdering::SurfaceMajor => {
                for group in ghosts.iter().chain(&surface).chain([&interior]) {
                    slot_to_brick.extend_from_slice(group);
                }
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
        let mut layout = Self {
            cell_box,
            brick_dim,
            ghost_bricks,
            ordering,
            wrap,
            brick_box,
            storage_brick_box,
            slot_to_brick,
            brick_to_slot,
            adjacency: Vec::new(),
            halo: Vec::new(),
        };

        // Adjacency rows from per-axis step tables: the storage coordinate
        // one brick down / at / up from each coordinate — across the seam
        // on a wrapped axis, −1 off the edge of the shell on a halo axis.
        let steps = [0, 1, 2].map(|a| -> Vec<[i64; 3]> {
            let n = ext[a];
            let step = |c: i64| match c {
                c if wrap[a] => c.rem_euclid(n),
                c if (0..n).contains(&c) => c,
                _ => -1,
            };
            (0..n).map(|c| [step(c - 1), c, step(c + 1)]).collect()
        });
        layout.adjacency = vec![[NO_BRICK; 27]; nslots];
        for (row, &b) in layout.adjacency.iter_mut().zip(&layout.slot_to_brick) {
            let r = b - storage_brick_box.lo;
            let mut entries = row.iter_mut();
            for z in steps[2][r.z as usize] {
                for y in steps[1][r.y as usize] {
                    for x in steps[0][r.x as usize] {
                        let entry = entries.next().expect("27 entries");
                        if x >= 0 && y >= 0 && z >= 0 {
                            *entry = layout.brick_to_slot[((z * ext.y + y) * ext.x + x) as usize];
                        }
                    }
                }
            }
        }

        // The exchange plan, once: every later exchange walks these lists.
        layout.halo = DIRECTIONS_26
            .into_iter()
            .zip(&ghosts)
            .filter(|(_, g)| !g.is_empty())
            .map(|(dir, g)| {
                let recv: Vec<u32> = g.iter().map(|&b| layout.slot_of_brick(b)).collect();
                let mut send = Vec::with_capacity(recv.len());
                brick_box
                    .face_region(dir, ghost_bricks)
                    .for_each(|b| send.push(layout.slot_of_brick(b)));
                let consecutive = recv.windows(2).all(|w| w[1] == w[0] + 1);
                let recv_run = consecutive.then(|| recv[0]..recv[recv.len() - 1] + 1);
                HaloDir {
                    dir,
                    send,
                    recv,
                    recv_run,
                }
            })
            .collect();
        layout
    }

    /// The valid (owned) cell region.
    #[inline]
    pub fn cell_box(&self) -> Box3 {
        self.cell_box
    }

    /// The full cell region covered by storage: the owned box plus the
    /// ghost shell on the halo axes.
    #[inline]
    pub fn storage_cell_box(&self) -> Box3 {
        self.grow_halo(self.cell_box, self.ghost_cells())
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

    /// Ghost shell depth in bricks (on the halo axes).
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

    /// Per axis: `true` where the subdomain wraps onto itself (no ghost
    /// shell), `false` on a halo axis.
    #[inline]
    pub fn wrap(&self) -> [bool; 3] {
        self.wrap
    }

    /// The exchange plan: the directions that have ghost bricks — those
    /// whose non-zero components all lie on halo axes — with their send and
    /// receive slot lists. Empty when every axis wraps.
    #[inline]
    pub fn halo(&self) -> &[HaloDir] {
        &self.halo
    }

    /// `b` grown by `k` cells (or bricks — the unit is the caller's) on the
    /// halo axes only; shrunk for negative `k`.
    #[inline]
    pub fn grow_halo(&self, b: Box3, k: i64) -> Box3 {
        grow_axes(b, k, self.wrap)
    }

    /// True when a radius-`r` stencil over `region ∩ storage` reads only
    /// cells this layout holds: on a wrapped axis every read resolves
    /// (across the seam), on a halo axis the reach must stay inside the
    /// ghost shell.
    pub fn covers_reads(&self, region: Box3, r: i64) -> bool {
        let storage = self.storage_cell_box();
        storage.contains_box(&self.grow_halo(region.intersect(&storage), r))
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

    /// Slot of global brick index `b` — of its periodic image, on a wrapped
    /// axis — or [`NO_BRICK`] outside storage.
    #[inline]
    pub fn slot_of_brick(&self, mut b: Point3) -> u32 {
        let sb = &self.storage_brick_box;
        if !sb.contains(b) {
            for a in 0..3 {
                if self.wrap[a] {
                    b[a] = sb.lo[a] + (b[a] - sb.lo[a]).rem_euclid(sb.hi[a] - sb.lo[a]);
                }
            }
            if !sb.contains(b) {
                return NO_BRICK;
            }
        }
        let r = b - sb.lo;
        let e = sb.extent();
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

    /// `(slot, intra-brick offset)` of a global cell (of its periodic
    /// image, on a wrapped axis), or `None` outside storage.
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
        classify(self.slot_to_brick[slot as usize], self.brick_box, self.wrap)
    }

    fn halo_dir(&self, dir: Point3) -> Option<&HaloDir> {
        self.halo.iter().find(|h| h.dir == dir)
    }

    /// Slots of ghost bricks in halo direction `dir`, in receive order
    /// (lexicographic by global brick index); empty when `dir` crosses a
    /// wrapped axis.
    pub fn ghost_slots(&self, dir: Point3) -> Vec<u32> {
        self.halo_dir(dir).map_or(Vec::new(), |h| h.recv.clone())
    }

    /// Slots of owned bricks that a neighbor in direction `dir` needs (the
    /// send set): the depth-`ghost_bricks` layer of owned bricks adjacent to
    /// that face/edge/corner, in lexicographic (receive-matching) order;
    /// empty when `dir` crosses a wrapped axis.
    pub fn send_slots(&self, dir: Point3) -> Vec<u32> {
        self.halo_dir(dir).map_or(Vec::new(), |h| h.send.clone())
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
    /// `region` (clipped to the storage shell), in lexicographic brick
    /// order. This is the traversal driver for stencil kernels operating on
    /// shrinking communication-avoiding regions.
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

/// `b` grown by `k` on the axes `wrap` leaves `false`.
fn grow_axes(b: Box3, k: i64, wrap: [bool; 3]) -> Box3 {
    let mut g = Point3::zero();
    for a in 0..3 {
        if !wrap[a] {
            g[a] = k;
        }
    }
    Box3::new(b.lo - g, b.hi + g)
}

/// Classify a brick against the owned brick box. A wrapped axis has neither
/// ghosts nor a surface: its first and last bricks are neighbors.
fn classify(b: Point3, brick_box: Box3, wrap: [bool; 3]) -> SlotClass {
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
        if wrap[a] {
            continue;
        }
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
        let owned = (0..l.num_slots() as u32)
            .filter(|&s| !matches!(l.class_of_slot(s), SlotClass::Ghost(_)));
        for s in owned {
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
    fn halo_directions_follow_the_wrap_mask() {
        // A halo direction is one whose non-zero components all lie on
        // halo axes: 26, 8, 2, 0 of them with 0..=3 wrapped axes, and the
        // storage grows on the halo axes only.
        for (wrap, dirs) in [
            ([false, false, false], 26),
            ([false, false, true], 8),
            ([false, true, true], 2),
            ([true, true, true], 0),
        ] {
            for ord in [BrickOrdering::Lexicographic, BrickOrdering::SurfaceMajor] {
                let l = BrickLayout::with_wrap(Box3::cube(16), 4, 1, ord, wrap);
                assert_eq!(l.halo().len(), dirs, "{wrap:?}");
                let halo_axes = wrap.iter().filter(|w| !**w).count() as u32;
                assert_eq!(
                    l.num_slots(),
                    6usize.pow(halo_axes) * 4usize.pow(3 - halo_axes)
                );
                for h in l.halo() {
                    assert!((0..3).all(|a| h.dir[a] == 0 || !wrap[a]), "{:?}", h.dir);
                    assert_eq!(h.send.len(), h.recv.len());
                    assert_eq!(h.send, l.send_slots(h.dir));
                    assert_eq!(h.recv, l.ghost_slots(h.dir));
                    if ord == BrickOrdering::SurfaceMajor {
                        let run = h.recv_run.clone().expect("one receive run");
                        assert_eq!(run.len(), h.recv.len());
                    }
                }
                // Directions across a wrapped axis have nothing to move.
                if wrap[2] {
                    assert!(l.send_slots(Point3::new(0, 0, 1)).is_empty());
                    assert!(l.ghost_slots(Point3::new(1, 0, -1)).is_empty());
                }
            }
        }
    }

    #[test]
    fn wrapped_adjacency_crosses_the_seam() {
        let l = BrickLayout::with_wrap(
            Box3::new(Point3::zero(), Point3::new(8, 4, 16)),
            4,
            1,
            BrickOrdering::SurfaceMajor,
            [false, true, true],
        );
        assert_eq!(
            l.storage_brick_box(),
            Box3::new(Point3::new(-1, 0, 0), Point3::new(3, 1, 4))
        );
        let first = l.slot_of_brick(Point3::zero());
        // z: the first brick's −z neighbor is the last one.
        assert_eq!(
            l.neighbor_slot(first, Point3::new(0, 0, -1)),
            l.slot_of_brick(Point3::new(0, 0, 3))
        );
        // y: a lone brick is its own ± neighbor.
        assert_eq!(l.neighbor_slot(first, Point3::new(0, 1, 0)), first);
        assert_eq!(l.neighbor_slot(first, Point3::new(0, -1, 0)), first);
        // x keeps its ghost brick, and the ghost slab wraps within itself.
        let ghost = l.neighbor_slot(first, Point3::new(-1, 0, 0));
        assert_eq!(
            l.class_of_slot(ghost),
            SlotClass::Ghost(Point3::new(-1, 0, 0))
        );
        assert_eq!(
            l.neighbor_slot(ghost, Point3::new(0, 0, -1)),
            l.slot_of_brick(Point3::new(-1, 0, 3))
        );
        assert_eq!(l.neighbor_slot(ghost, Point3::new(-1, 0, 0)), NO_BRICK);
        // With no halo axis every owned brick is interior: plain
        // lexicographic slots whatever the ordering.
        let torus =
            BrickLayout::with_wrap(Box3::cube(8), 4, 1, BrickOrdering::SurfaceMajor, [true; 3]);
        assert_eq!(torus.storage_cell_box(), Box3::cube(8));
        for s in 0..torus.num_slots() as u32 {
            assert_eq!(torus.class_of_slot(s), SlotClass::Interior);
        }
        assert_eq!(torus.brick_of_slot(1), Point3::new(1, 0, 0));
    }

    #[test]
    fn covers_reads_checks_halo_axes_only() {
        let l = BrickLayout::with_wrap(
            Box3::cube(16),
            4,
            1,
            BrickOrdering::SurfaceMajor,
            [false, true, true],
        );
        let owned = Box3::cube(16);
        assert!(l.covers_reads(owned, 1));
        assert!(l.covers_reads(owned.grow(3), 1)); // clipped on y/z, 3 + 1 <= 4 on x
        assert!(!l.covers_reads(owned.grow(4), 1));
        assert_eq!(
            l.grow_halo(owned, 2),
            Box3::new(Point3::new(-2, 0, 0), Point3::new(18, 16, 16))
        );
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
