//! Row-streamed, shape-specialized 7-point brick kernels.
//!
//! This is the BrickLib "vector code generator" analog: instead of routing
//! face cells through a per-point 27-way adjacency lookup (the old
//! `brick_boundary` pass — 86% of bricked applyOp time in the first
//! sampled profile), the kernel resolves the center brick and its six face
//! neighbors *once* per brick ([`gmg_brick::BrickFaces`]) and then streams
//! every row of the brick with neighbor values read at fixed offsets.
//! Boundary cells cost the same handful of loads as interior cells, so the
//! separate boundary pass disappears entirely.
//!
//! The blocks stay types the compiler can see. [`stream_rows`] views the
//! center brick and each face it needs as a fixed-size
//! [`gmg_brick::Cube`] (`[[[f64; B]; B]; B]`, [`gmg_brick::cube`]): the
//! length of each is checked once, when the view is made, and the face's
//! `Option` is unwrapped once per brick — all six for a full brick, only
//! those the bounds reach for a clipped one. Every row is then
//! `&[f64; B]` at a const index, so nothing is left to check per row, and
//! the sinks write `x`, `r` and `A·x` through views of their own bricks.
//! The ±x edge operands are an `x == 0` / `x + 1 == B` select instead of
//! peeled pre/post scalar code, which the const row length resolves
//! statically: LLVM unrolls each row into packed f64 SIMD. Full bricks and
//! bricks clipped only in x (a 2×1×1 rank grid's ghost bricks) run const
//! `0..B` plane and row loops; bricks clipped in y or z run the same body
//! over runtime ranges.
//!
//! How wide that SIMD is depends on the instruction-set tier the caller
//! runs under ([`crate::isa`]): the row streamers here are
//! `#[inline(always)]`, so they are compiled into each executor's
//! `#[target_feature]` trampoline, and an 8³ row is one `zmm` register
//! under AVX-512, two `ymm` under AVX2 and four `xmm` at the x86-64
//! baseline — the same source and the same bits at every tier.
//!
//! Entry points:
//!
//! * [`stream_rows`]`::<B>` — monomorphized for every
//!   [`gmg_brick::BrickShape`] (1³, 2³, 4³, 8³; [`gmg_brick::with_brick_dim`]
//!   picks the instantiation); hands each finished row of `A·x` to a
//!   caller-supplied sink as `(z, y, &[f64; B])` while it is still in
//!   registers (the one-pass smoother of `exec_fused` updates `x` and `r`
//!   from it directly). [`stream_star7_spec`] is the sink that stores it:
//!   plain `out ← A·x`. Every executor built on it equals
//!   [`crate::interp::run_stencil`] of `ops::apply_op_def` bit for bit (see
//!   the executors' tests).
//!
//! Floating-point grouping is load-bearing: every cell is evaluated as
//! `alpha·c + beta·((xm + xp) + (ym + yp) + (zm + zp))` — the exact
//! association the array executor and the fused multi-smooth use — so
//! residual histories stay bit-identical across executors.

use gmg_brick::{cube, BrickFaces, Cube};
use gmg_mesh::{Box3, Point3};

const FACE: &str = "face brick missing: caller must guarantee region.grow(1) within storage";

/// Request a best-effort L1 prefetch of the cache line holding `line[0]`.
///
/// The face-neighbor reads are the one part of a brick's update without a
/// long unit-stride pattern the hardware prefetcher can lock onto: each
/// face contributes `B` short bursts (or `B²` single cells for ±x) at
/// strides that reset every brick. Issuing explicit prefetches for those
/// lines up front overlaps their latency with the center-plane streaming.
/// Values are never changed by a prefetch, so bit-identity is unaffected.
#[inline(always)]
fn prefetch(line: &[f64]) {
    debug_assert!(!line.is_empty());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `line` is a live, non-empty slice (every caller passes a row
    // of a face brick's view), hence its first element's address is in
    // bounds. `_mm_prefetch` is a hint that neither reads into the program
    // nor faults.
    unsafe {
        core::arch::x86_64::_mm_prefetch(
            line.as_ptr().cast::<i8>(),
            core::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
}

/// Brick-local **exclusive** bounds of the cells to update, derived from a
/// piece's cell box relative to the brick origin: each axis spans
/// `[lo, hi)` with `0 <= lo < hi <= b`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RowBounds {
    pub x0: usize,
    pub x1: usize,
    pub y0: usize,
    pub y1: usize,
    pub z0: usize,
    pub z1: usize,
}

impl RowBounds {
    /// Bounds of the cell box `sub` inside the brick whose low corner is
    /// the cell `brick_lo`.
    #[inline]
    pub fn within(sub: Box3, brick_lo: Point3) -> Self {
        let (lo, hi) = (sub.lo - brick_lo, sub.hi - brick_lo);
        RowBounds {
            x0: lo.x as usize,
            x1: hi.x as usize,
            y0: lo.y as usize,
            y1: hi.y as usize,
            z0: lo.z as usize,
            z1: hi.z as usize,
        }
    }

    /// Visit the bounded cells as index ranges into the brick's `b³`
    /// storage, longest contiguous runs first: consecutive z-planes in one
    /// range when x and y are unclipped (the whole brick if z is too),
    /// consecutive rows of a plane when only x is unclipped, otherwise
    /// one x-row at a time. Pointwise kernels loop over these slices so
    /// the compiler sees plain unit-stride loops it can vectorize.
    #[inline(always)]
    pub fn for_each_span(&self, b: usize, mut f: impl FnMut(std::ops::Range<usize>)) {
        let full_x = self.x0 == 0 && self.x1 == b;
        if full_x && self.y0 == 0 && self.y1 == b {
            return f(self.z0 * b * b..self.z1 * b * b);
        }
        for lz in self.z0..self.z1 {
            if full_x {
                f((lz * b + self.y0) * b..(lz * b + self.y1) * b);
                continue;
            }
            for ly in self.y0..self.y1 {
                let row = (lz * b + ly) * b;
                f(row + self.x0..row + self.x1);
            }
        }
    }

    /// True iff the bounds cover the whole `b³` brick.
    #[inline]
    pub fn is_full(&self, b: usize) -> bool {
        *self
            == RowBounds {
                x0: 0,
                x1: b,
                y0: 0,
                y1: b,
                z0: 0,
                z1: b,
            }
    }
}

/// A brick's six face neighbors as views. A face the caller's bounds do
/// not reach may be missing from storage; it reads as zeros instead, and
/// only into cells outside the bounds, which the sinks discard.
struct FaceCubes<'a, const B: usize> {
    xm: &'a Cube<B>,
    xp: &'a Cube<B>,
    ym: &'a Cube<B>,
    yp: &'a Cube<B>,
    zm: &'a Cube<B>,
    zp: &'a Cube<B>,
}

impl<'a, const B: usize> FaceCubes<'a, B> {
    /// View the faces `rb` reaches, each unwrapped once: all six for a full
    /// brick. A reached face is missing only when the caller broke the
    /// validity precondition (`region.grow(1)` inside the storage cell box).
    #[inline(always)]
    fn reached(faces: &BrickFaces<'a>, rb: &RowBounds) -> Self {
        let zero: &'a Cube<B> = const { &[[[0.0; B]; B]; B] };
        let view = |reached: bool, face: Option<&'a [f64]>| {
            if reached {
                cube::<B>(face.expect(FACE))
            } else {
                zero
            }
        };
        FaceCubes {
            xm: view(rb.x0 == 0, faces.xm),
            xp: view(rb.x1 == B, faces.xp),
            ym: view(rb.y0 == 0, faces.ym),
            yp: view(rb.y1 == B, faces.yp),
            zm: view(rb.z0 == 0, faces.zm),
            zp: view(rb.z1 == B, faces.zp),
        }
    }

    /// Touch every cross-brick line a whole-brick update will read before
    /// streaming it: one ±y row per z-plane, the ±z contact planes, and
    /// the per-row ±x edge cells.
    #[inline(always)]
    fn prefetch(&self) {
        for z in 0..B {
            prefetch(&self.ym[z][B - 1]);
            prefetch(&self.yp[z][0]);
            for y in 0..B {
                prefetch(&self.xm[z][y][B - 1..]);
                prefetch(&self.xp[z][y]);
            }
        }
        let rows_per_line = 64 / core::mem::size_of::<[f64; B]>();
        for y in (0..B).step_by(rows_per_line.max(1)) {
            prefetch(&self.zm[B - 1][y]);
            prefetch(&self.zp[0][y]);
        }
    }
}

/// The row streamer of every bricked star-7 executor: computes `A·x` for
/// the rows of the brick `rb` bounds, each at its full const width `B`,
/// and hands each finished row (its plane `z`, its row `y` and its `B`
/// values, still in registers) to `sink`. The cells of a row outside
/// `rb`'s x bounds are computed from zeros where their ±x face is not
/// reached: the sink discards them.
///
/// Full bricks (the common case for brick-aligned regions) prefetch their
/// faces and, like bricks clipped in x only, run with every loop bound the
/// const `B`, fully unrolled; bricks clipped in y or z run the same rows
/// over runtime bounds. Both evaluate the identical expression per cell,
/// so the split is invisible in the output.
#[inline(always)]
pub(crate) fn stream_rows<const B: usize>(
    faces: &BrickFaces<'_>,
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
    sink: impl FnMut(usize, usize, &[f64; B]),
) {
    let c = cube::<B>(faces.center);
    let f = FaceCubes::<B>::reached(faces, rb);
    if rb.y0 == 0 && rb.y1 == B && rb.z0 == 0 && rb.z1 == B {
        if rb.is_full(B) {
            f.prefetch();
        }
        rows(c, &f, alpha, beta, 0..B, 0..B, sink);
    } else {
        rows(c, &f, alpha, beta, rb.z0..rb.z1, rb.y0..rb.y1, sink);
    }
}

/// The rows `zs × ys` of [`stream_rows`]: per cell,
/// `α·c + β·((l + r) + (ym + yp) + (zm + zp))`, where the ±x operands come
/// from within the row except at the brick edges (the adjacent cells of
/// the ±x faces). The edge cases are selects, not peeled code, so with
/// const bounds the row unrolls branch-free.
#[inline(always)]
fn rows<const B: usize>(
    c: &Cube<B>,
    f: &FaceCubes<'_, B>,
    alpha: f64,
    beta: f64,
    zs: std::ops::Range<usize>,
    ys: std::ops::Range<usize>,
    mut sink: impl FnMut(usize, usize, &[f64; B]),
) {
    for z in zs {
        let below = if z > 0 { &c[z - 1] } else { &f.zm[B - 1] };
        let above = if z + 1 < B { &c[z + 1] } else { &f.zp[0] };
        for y in ys.clone() {
            let row = &c[z][y];
            let ym = if y > 0 { &c[z][y - 1] } else { &f.ym[z][B - 1] };
            let yp = if y + 1 < B { &c[z][y + 1] } else { &f.yp[z][0] };
            let (zm, zp) = (&below[y], &above[y]);
            let (xml, xpr) = (f.xm[z][y][B - 1], f.xp[z][y][0]);
            let mut ax = [0.0; B];
            for x in 0..B {
                let l = if x == 0 { xml } else { row[x - 1] };
                let r = if x + 1 == B { xpr } else { row[x + 1] };
                ax[x] = alpha * row[x] + beta * ((l + r) + (ym[x] + yp[x]) + (zm[x] + zp[x]));
            }
            sink(z, y, &ax);
        }
    }
}

/// Monomorphized `out ← A·x` over `rb` (see [`stream_rows`]). A row
/// keeps the old value of every cell outside `rb`'s x bounds; a
/// whole-width brick passes the constant all-covered mask, so its rows are
/// plain const-width stores.
#[inline(always)]
pub(crate) fn stream_star7_spec<const B: usize>(
    faces: &BrickFaces<'_>,
    out: &mut [f64],
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
) {
    let out = gmg_brick::cube_mut::<B>(out);
    if rb.x0 == 0 && rb.x1 == B {
        store_rows::<B>(faces, out, alpha, beta, rb, &[true; B]);
    } else {
        let covered = std::array::from_fn(|x| (rb.x0..rb.x1).contains(&x));
        store_rows::<B>(faces, out, alpha, beta, rb, &covered);
    }
}

#[inline(always)]
fn store_rows<const B: usize>(
    faces: &BrickFaces<'_>,
    out: &mut Cube<B>,
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
    covered: &[bool; B],
) {
    stream_rows::<B>(
        faces,
        alpha,
        beta,
        rb,
        #[inline(always)]
        |z, y, ax| {
            for (x, o) in out[z][y].iter_mut().enumerate() {
                *o = if covered[x] { ax[x] } else { *o };
            }
        },
    );
}
