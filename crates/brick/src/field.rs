//! Bricked field storage: the data companion to [`BrickLayout`].

#[cfg(test)]
use crate::layout::BrickOrdering;
use crate::layout::{BrickLayout, NO_BRICK};
use gmg_mesh::{Array3, Box3, Point3};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A scalar field stored in fine-grain data-blocked (bricked) layout.
///
/// Storage is one contiguous run of `num_slots × brick_volume` doubles
/// starting on a 64-byte boundary; slot `s` owns the sub-slice
/// `[s·brick_volume, (s+1)·brick_volume)`, so every row of an 8³ brick is
/// one cache line (and one AVX-512 register). All fields of a multigrid
/// level share one [`BrickLayout`] via `Arc`.
#[derive(Clone, Debug)]
pub struct BrickedField {
    layout: Arc<BrickLayout>,
    data: LineAligned,
}

/// Bytes in a cache line.
const LINE_BYTES: usize = 64;
/// Doubles in a cache line.
const LINE_DOUBLES: usize = LINE_BYTES / std::mem::size_of::<f64>();

/// A run of doubles that starts on a 64-byte boundary: the buffer holds at
/// most 7 doubles of padding in front of it. A clone is aligned afresh.
#[derive(Debug, Default)]
struct LineAligned {
    buf: Vec<f64>,
    /// Index in `buf` of the first double of the run.
    start: usize,
}

impl LineAligned {
    /// `len` zeros.
    fn zeroed(len: usize) -> Self {
        let mut buf = vec![0.0; len + LINE_DOUBLES - 1];
        let start = padding(&buf);
        buf.truncate(start + len);
        LineAligned { buf, start }
    }
}

/// Doubles from the start of `buf`'s allocation to its first 64-byte
/// boundary.
fn padding(buf: &[f64]) -> usize {
    (buf.as_ptr() as usize).wrapping_neg() % LINE_BYTES / std::mem::size_of::<f64>()
}

impl Clone for LineAligned {
    fn clone(&self) -> Self {
        if self.is_empty() {
            return LineAligned::default();
        }
        let mut buf = Vec::with_capacity(self.len() + LINE_DOUBLES - 1);
        let start = padding(&buf);
        buf.resize(start, 0.0);
        buf.extend_from_slice(self);
        LineAligned { buf, start }
    }
}

impl Deref for LineAligned {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        &self.buf[self.start..]
    }
}

impl DerefMut for LineAligned {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.buf[self.start..]
    }
}

impl BrickedField {
    /// Allocate a zero-filled field over `layout`.
    pub fn new(layout: Arc<BrickLayout>) -> Self {
        let n = layout.storage_cells();
        Self {
            layout,
            data: LineAligned::zeroed(n),
        }
    }

    /// A field over `layout` that holds no storage yet: it owns no cells
    /// (an empty [`BrickedField::as_slice`]) and any cell access panics. A
    /// holder that allocates on first write replaces it with
    /// [`BrickedField::new`].
    pub fn unallocated(layout: Arc<BrickLayout>) -> Self {
        Self {
            layout,
            data: LineAligned::default(),
        }
    }

    /// Whether the field holds its storage (false only for
    /// [`BrickedField::unallocated`]).
    #[inline]
    pub fn is_allocated(&self) -> bool {
        !self.data.is_empty()
    }

    /// Allocate and initialize every storage cell (owned and ghost) from a
    /// function of the global cell index.
    pub fn from_fn(layout: Arc<BrickLayout>, f: impl Fn(Point3) -> f64) -> Self {
        let mut field = Self::new(layout);
        field.fill_with(f);
        field
    }

    /// Set every storage cell (owned and ghost, i.e. all of the layout's
    /// `storage_cell_box`) from a function of the global cell index, in
    /// place.
    pub fn fill_with(&mut self, mut f: impl FnMut(Point3) -> f64) {
        let bvol = self.layout.brick_volume();
        for (slot, brick) in self.data.chunks_exact_mut(bvol).enumerate() {
            let cells = self.layout.cells_of_slot(slot as u32);
            let mut i = 0;
            for z in cells.lo.z..cells.hi.z {
                for y in cells.lo.y..cells.hi.y {
                    for x in cells.lo.x..cells.hi.x {
                        brick[i] = f(Point3::new(x, y, z));
                        i += 1;
                    }
                }
            }
            debug_assert_eq!(i, bvol);
        }
    }

    /// The shared layout.
    #[inline]
    pub fn layout(&self) -> &Arc<BrickLayout> {
        &self.layout
    }

    /// Raw storage (slot-major, x fastest within each brick).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// The cells of one brick.
    #[inline]
    pub fn brick(&self, slot: u32) -> &[f64] {
        let bvol = self.layout.brick_volume();
        &self.data[slot as usize * bvol..(slot as usize + 1) * bvol]
    }

    /// Mutable cells of one brick.
    #[inline]
    pub fn brick_mut(&mut self, slot: u32) -> &mut [f64] {
        let bvol = self.layout.brick_volume();
        &mut self.data[slot as usize * bvol..(slot as usize + 1) * bvol]
    }

    /// Value at global cell `p` (owned or ghost; the periodic image across
    /// a wrapped axis). Panics outside storage.
    #[inline]
    pub fn get(&self, p: Point3) -> f64 {
        let (slot, off) = self
            .layout
            .locate(p)
            .unwrap_or_else(|| panic!("{p:?} outside bricked storage"));
        self.data[slot as usize * self.layout.brick_volume() + off]
    }

    /// Set the value at global cell `p`. Panics outside storage.
    #[inline]
    pub fn set(&mut self, p: Point3, v: f64) {
        let (slot, off) = self
            .layout
            .locate(p)
            .unwrap_or_else(|| panic!("{p:?} outside bricked storage"));
        let bvol = self.layout.brick_volume();
        self.data[slot as usize * bvol + off] = v;
    }

    /// Visit the cells of `region` one x-row at a time (z outermost, as
    /// [`Box3::for_each`] orders them), each row brick by brick in
    /// increasing x: `visit(p, cells)` gets one brick's contiguous part of
    /// the row and the global index `p` of its first cell. Brick and
    /// in-brick coordinates advance incrementally, so a piece costs one
    /// table lookup — the row-wise alternative to per-cell
    /// [`BrickedField::get`]. Panics outside storage.
    pub fn for_each_row_piece(&self, region: Box3, mut visit: impl FnMut(Point3, &[f64])) {
        if region.is_empty() {
            return;
        }
        let bd = self.layout.brick_dim();
        let bvol = self.layout.brick_volume();
        let bricks = region.coarsen(bd);
        // (brick index, in-brick offset) of a coordinate, stepped by one.
        let split = |c: i64| (c.div_euclid(bd), c.rem_euclid(bd));
        let step = |(b, l): (i64, i64)| if l + 1 == bd { (b + 1, 0) } else { (b, l + 1) };
        let mut bz = split(region.lo.z);
        for z in region.lo.z..region.hi.z {
            let mut by = split(region.lo.y);
            for y in region.lo.y..region.hi.y {
                for bx in bricks.lo.x..bricks.hi.x {
                    let slot = self.layout.slot_of_brick(Point3::new(bx, by.0, bz.0));
                    assert_ne!(slot, NO_BRICK, "{region:?} outside bricked storage");
                    let x0 = region.lo.x.max(bx * bd);
                    let x1 = region.hi.x.min((bx + 1) * bd);
                    let base =
                        slot as usize * bvol + ((bz.1 * bd + by.1) * bd + x0 - bx * bd) as usize;
                    visit(
                        Point3::new(x0, y, z),
                        &self.data[base..base + (x1 - x0) as usize],
                    );
                }
                by = step(by);
            }
            bz = step(bz);
        }
    }

    /// Fill all storage with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Fill `region ∩ storage` with `v`.
    pub fn fill_region(&mut self, region: Box3, v: f64) {
        let bvol = self.layout.brick_volume();
        let pieces = self.layout.slots_intersecting(region);
        for (slot, sub) in pieces {
            let base = slot as usize * bvol;
            let cells = self.layout.cells_of_slot(slot);
            let bd = self.layout.brick_dim();
            for z in sub.lo.z..sub.hi.z {
                for y in sub.lo.y..sub.hi.y {
                    let row = base
                        + (((z - cells.lo.z) * bd + (y - cells.lo.y)) * bd
                            + (sub.lo.x - cells.lo.x)) as usize;
                    let w = (sub.hi.x - sub.lo.x) as usize;
                    self.data[row..row + w].fill(v);
                }
            }
        }
    }

    /// Convert the owned region to a conventional [`Array3`] with the same
    /// ghost depth in cells (across a wrapped axis the array's ghost cells
    /// get the periodic image).
    pub fn to_array3(&self) -> Array3<f64> {
        let g = self.layout.ghost_cells();
        let mut a = Array3::new(self.layout.cell_box(), g);
        a.storage_box().for_each(|p| a[p] = self.get(p));
        a
    }

    /// Build a bricked field from a conventional array. The array's valid
    /// box must equal the layout's cell box; ghost cells are copied where
    /// both representations cover them.
    pub fn from_array3(layout: Arc<BrickLayout>, a: &Array3<f64>) -> Self {
        assert_eq!(a.valid(), layout.cell_box(), "valid regions differ");
        let common = layout.storage_cell_box().intersect(&a.storage_box());
        let mut f = Self::new(layout);
        common.for_each(|p| f.set(p, a[p]));
        f
    }

    /// Visit the bricks selected by `pieces` (as produced by
    /// [`BrickLayout::slots_intersecting`]) in piece order: for each piece,
    /// `kernel(slot, sub_box, brick_out)` may write the brick's cells.
    ///
    /// Each brick is visited at most once per call: panics unless the
    /// pieces' bricks are in the strictly increasing index order
    /// `slots_intersecting` produces (z outermost), which a repeated slot
    /// breaks.
    #[inline(always)]
    pub fn update_bricks(
        &mut self,
        pieces: &[(u32, Box3)],
        mut kernel: impl FnMut(u32, Box3, &mut [f64]),
    ) {
        let mut prev = None;
        for &(slot, sub) in pieces {
            let b = self.layout.brick_of_slot(slot);
            let key = (b.z, b.y, b.x);
            assert!(
                prev < Some(key),
                "slot {slot} repeated or out of brick order in pieces"
            );
            prev = Some(key);
            kernel(slot, sub, self.brick_mut(slot));
        }
    }

    /// Reduction over `region ∩ storage` cells: every piece of
    /// [`BrickLayout::slots_intersecting`] folds its cells from `identity`,
    /// and the piece partials fold in piece order — one association
    /// whatever runs it, so float reductions are bit-identical run to run.
    pub fn reduce<R: Copy>(
        &self,
        region: Box3,
        identity: R,
        f: impl Fn(Point3, f64) -> R,
        combine: impl Fn(R, R) -> R,
    ) -> R {
        let bvol = self.layout.brick_volume();
        let bd = self.layout.brick_dim();
        let partial = |(slot, sub): (u32, Box3)| {
            let base = slot as usize * bvol;
            let cells = self.layout.cells_of_slot(slot);
            let mut acc = identity;
            for z in sub.lo.z..sub.hi.z {
                for y in sub.lo.y..sub.hi.y {
                    let row = base
                        + (((z - cells.lo.z) * bd + (y - cells.lo.y)) * bd
                            + (sub.lo.x - cells.lo.x)) as usize;
                    for (dx, &v) in self.data[row..row + (sub.hi.x - sub.lo.x) as usize]
                        .iter()
                        .enumerate()
                    {
                        acc = combine(acc, f(Point3::new(sub.lo.x + dx as i64, y, z), v));
                    }
                }
            }
            acc
        };
        self.layout
            .slots_intersecting(region)
            .into_iter()
            .map(partial)
            .fold(identity, &combine)
    }

    /// Gather the bricks of `slots` into a flat message buffer (only needed
    /// for fragmented orderings; with [`BrickOrdering::SurfaceMajor`] sends
    /// are nearly pack-free and this is a handful of `memcpy`s).
    pub fn gather_bricks(&self, slots: &[u32], buf: &mut Vec<f64>) {
        let bvol = self.layout.brick_volume();
        buf.clear();
        buf.reserve(slots.len() * bvol);
        for run in BrickLayout::contiguous_runs(slots) {
            let a = run.start as usize * bvol;
            let b = run.end as usize * bvol;
            buf.extend_from_slice(&self.data[a..b]);
        }
    }

    /// Scatter a flat message buffer into the bricks of `slots` (inverse of
    /// [`BrickedField::gather_bricks`]; run-ordered).
    pub fn scatter_bricks(&mut self, slots: &[u32], buf: &[f64]) {
        let bvol = self.layout.brick_volume();
        assert_eq!(buf.len(), slots.len() * bvol, "buffer size mismatch");
        let mut cursor = 0;
        for run in BrickLayout::contiguous_runs(slots) {
            let a = run.start as usize * bvol;
            let n = (run.end - run.start) as usize * bvol;
            self.data[a..a + n].copy_from_slice(&buf[cursor..cursor + n]);
            cursor += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighborhood::BrickFaces;
    use gmg_mesh::ghost::DIRECTIONS_26;

    fn mk(n: i64, b: i64, g: i64, ord: BrickOrdering) -> Arc<BrickLayout> {
        Arc::new(BrickLayout::new(Box3::cube(n), b, g, ord))
    }

    fn idx_fn(p: Point3) -> f64 {
        (p.x + 1000 * p.y + 1_000_000 * p.z) as f64
    }

    #[test]
    fn get_set_roundtrip() {
        let l = mk(16, 4, 1, BrickOrdering::SurfaceMajor);
        let mut f = BrickedField::new(l);
        f.set(Point3::new(3, 7, 11), 42.0);
        assert_eq!(f.get(Point3::new(3, 7, 11)), 42.0);
        f.set(Point3::new(-1, -4, 19), 7.0); // ghost cells settable
        assert_eq!(f.get(Point3::new(-1, -4, 19)), 7.0);
    }

    #[test]
    fn from_fn_matches_get() {
        let l = mk(8, 4, 1, BrickOrdering::SurfaceMajor);
        let f = BrickedField::from_fn(l.clone(), idx_fn);
        l.storage_cell_box().for_each(|p| {
            assert_eq!(f.get(p), idx_fn(p), "at {p:?}");
        });
    }

    #[test]
    fn row_pieces_cover_the_region_in_order() {
        for bd in [1, 3, 4] {
            let l = mk(4 * bd, bd, 1, BrickOrdering::SurfaceMajor);
            let f = BrickedField::from_fn(l, idx_fn);
            // From the ghost shell, across owned bricks, into the far shell.
            let region = Box3::new(
                Point3::new(-1, bd - 1, -bd),
                Point3::new(4 * bd + 1, 2 * bd + 1, 2),
            );
            let mut cells = Vec::new();
            f.for_each_row_piece(region, |p, piece| {
                assert!(!piece.is_empty() && piece.len() <= bd as usize);
                for (i, &v) in piece.iter().enumerate() {
                    let q = Point3::new(p.x + i as i64, p.y, p.z);
                    assert_eq!(v, idx_fn(q), "at {q:?} (bd={bd})");
                    cells.push(q);
                }
            });
            let mut expect = Vec::new();
            region.for_each(|q| expect.push(q));
            assert_eq!(cells, expect, "bd={bd}");
        }
    }

    #[test]
    fn array3_roundtrip() {
        let l = mk(16, 8, 1, BrickOrdering::SurfaceMajor);
        let f = BrickedField::from_fn(l.clone(), idx_fn);
        let a = f.to_array3();
        assert_eq!(a.valid(), Box3::cube(16));
        assert_eq!(a.ghost(), 8);
        let f2 = BrickedField::from_array3(l.clone(), &a);
        l.storage_cell_box()
            .for_each(|p| assert_eq!(f.get(p), f2.get(p)));
    }

    #[test]
    fn fill_region_exact() {
        let l = mk(16, 4, 1, BrickOrdering::Lexicographic);
        let mut f = BrickedField::new(l.clone());
        let region = Box3::new(Point3::new(1, 2, 3), Point3::new(9, 10, 11));
        f.fill_region(region, 5.0);
        l.storage_cell_box().for_each(|p| {
            let expect = if region.contains(p) { 5.0 } else { 0.0 };
            assert_eq!(f.get(p), expect, "at {p:?}");
        });
    }

    #[test]
    fn update_visits_each_piece_once() {
        let l = mk(16, 4, 1, BrickOrdering::SurfaceMajor);
        let mut f = BrickedField::new(l.clone());
        let region = Box3::cube(16);
        let pieces = l.slots_intersecting(region);
        let bd = l.brick_dim();
        f.update_bricks(&pieces, |slot, sub, out| {
            let cells = l.cells_of_slot(slot);
            sub.for_each(|p| {
                let r = p - cells.lo;
                out[((r.z * bd + r.y) * bd + r.x) as usize] += 1.0;
            });
        });
        let total = f.reduce(region, 0.0, |_, v| v, |a, b| a + b);
        assert_eq!(total, region.volume() as f64);
    }

    #[test]
    #[should_panic]
    fn update_duplicate_slots_panics() {
        let l = mk(8, 4, 0, BrickOrdering::Lexicographic);
        let mut f = BrickedField::new(l);
        let pieces = vec![(0u32, Box3::cube(1)), (0u32, Box3::cube(2))];
        f.update_bricks(&pieces, |_, _, _| {});
    }

    #[test]
    fn reduce_max_abs() {
        let l = mk(16, 4, 1, BrickOrdering::SurfaceMajor);
        let mut f = BrickedField::from_fn(l, |_| 1.0);
        f.set(Point3::new(5, 5, 5), -9.0);
        let m = f.reduce(Box3::cube(16), 0.0, |_, v| v.abs(), f64::max);
        assert_eq!(m, 9.0);
        // Ghost values don't contribute to owned-region reductions.
        f.set(Point3::new(-1, 0, 0), 100.0);
        let m2 = f.reduce(Box3::cube(16), 0.0, |_, v| v.abs(), f64::max);
        assert_eq!(m2, 9.0);
    }

    #[test]
    fn wrapped_axes_read_the_periodic_image() {
        // No ghost bricks on a wrapped axis: `get` and the face adjacency
        // reach the live cells across the seam, the halo axis keeps its
        // shell.
        let n = 8;
        let l = Arc::new(BrickLayout::with_wrap(
            Box3::cube(n),
            4,
            1,
            BrickOrdering::SurfaceMajor,
            [false, true, true],
        ));
        let storage = Box3::new(Point3::new(-4, 0, 0), Point3::new(n + 4, n, n));
        assert_eq!(l.storage_cell_box(), storage);
        let f = BrickedField::from_fn(l.clone(), idx_fn);
        let dom = Point3::splat(n);
        Box3::cube(n).grow(4).for_each(|p| {
            let q = Point3::new(p.x, p.y.rem_euclid(dom.y), p.z.rem_euclid(dom.z));
            assert_eq!(f.get(p), idx_fn(q), "at {p:?}");
        });
        assert!(l.locate(Point3::new(-5, 0, 0)).is_none());
        let faces = BrickFaces::new(&f, l.slot_of_brick(Point3::zero()));
        let last_y = l.slot_of_brick(Point3::new(0, n / 4 - 1, 0));
        assert_eq!(faces.ym, Some(f.brick(last_y)));
        // The array view fills its ghost cells with the same image.
        let a = f.to_array3();
        assert_eq!(
            a[Point3::new(3, -2, n + 1)],
            idx_fn(Point3::new(3, n - 2, 1))
        );
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let l = mk(16, 4, 1, BrickOrdering::SurfaceMajor);
        let f = BrickedField::from_fn(l.clone(), idx_fn);
        let mut g = BrickedField::new(l.clone());
        for dir in DIRECTIONS_26 {
            let slots = l.send_slots(dir);
            let mut buf = Vec::new();
            f.gather_bricks(&slots, &mut buf);
            assert_eq!(buf.len(), slots.len() * l.brick_volume());
            g.scatter_bricks(&slots, &buf);
            for &s in &slots {
                assert_eq!(g.brick(s), f.brick(s));
            }
        }
    }

    #[test]
    fn storage_starts_on_a_cache_line() {
        let line = |f: &BrickedField| f.as_slice().as_ptr() as usize % 64;
        for (n, b) in [(4, 1), (8, 2), (16, 4), (64, 8)] {
            let l = mk(n, b, 1, BrickOrdering::SurfaceMajor);
            let f = BrickedField::from_fn(l.clone(), idx_fn);
            assert_eq!(f.as_slice().len(), l.storage_cells());
            let c = f.clone();
            assert_eq!((line(&f), line(&c)), (0, 0), "n={n} b={b}");
            assert_eq!(c.as_slice(), f.as_slice());
        }
        let l = mk(8, 4, 1, BrickOrdering::SurfaceMajor);
        assert!(!BrickedField::unallocated(l).clone().is_allocated());
    }
}
