//! Row-streamed, shape-specialized 7-point brick kernels.
//!
//! This is the BrickLib "vector code generator" analog: instead of routing
//! face cells through a per-point 27-way adjacency lookup (the old
//! `brick_boundary` pass — 86% of bricked applyOp time in the first
//! sampled profile), the kernel resolves the center brick and its six face
//! neighbors *once* per brick ([`gmg_brick::BrickFaces`]) and then streams
//! every row of the brick with neighbor values read at fixed offsets into
//! those seven contiguous slices. Boundary cells cost the same handful of
//! loads as interior cells, so the separate boundary pass disappears
//! entirely.
//!
//! The row body is one uniform loop: the ±x edge operands are chosen by an
//! `x == 0` / `x + 1 == b` select instead of peeled pre/post scalar code.
//! With a compile-time brick dim ([`stream_star7_rows`]) every row is
//! computed at its full const width, so LLVM unrolls it, resolves the
//! selects statically and emits packed f64 SIMD (measured ~2× over a
//! peeled edge/middle/edge formulation of the same arithmetic); for a
//! full brick the row and plane loops are const too.
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
//! * [`stream_star7_rows`]`::<B>` — monomorphized for the brick dims the
//!   perf gate exercises (4³, 8³); hands each finished row of `A·x` to a
//!   caller-supplied sink while it is still in registers (the one-pass
//!   smoother of `exec_fused` updates `x` and `r` from it directly).
//!   [`stream_star7_spec`] is the sink that stores it: plain `out ← A·x`.
//! * [`stream_star7_generic`] — the runtime-dim fallback, executing the
//!   *same* expression for every cell. Bit-identical results across the
//!   two paths are test-enforced (see `tests/proptests.rs`).
//!
//! Floating-point grouping is load-bearing: every cell is evaluated as
//! `alpha·c + beta·((xm + xp) + (ym + yp) + (zm + zp))` — the exact
//! association the array executor and the fused multi-smooth use — so
//! residual histories stay bit-identical across executors.

use gmg_brick::BrickFaces;
use gmg_mesh::{Box3, Point3};

const FACE: &str = "face brick missing: caller must guarantee region.grow(1) within storage";

/// Request a best-effort L1 prefetch of the cache line holding `line[0]`.
///
/// The face-neighbor reads are the one part of a brick's update without a
/// long unit-stride pattern the hardware prefetcher can lock onto: each
/// face contributes `B` short bursts (or `B²` single cells for ±x) at
/// strides that reset every brick. Issuing explicit prefetches for those
/// lines up front overlaps their latency with the center-plane streaming
/// (measured ~35% off the whole-brick time at `B = 8`, grid 128³).
/// Values are never changed by a prefetch, so bit-identity is unaffected.
#[inline(always)]
fn prefetch(line: &[f64]) {
    debug_assert!(!line.is_empty());
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `line` is a live, non-empty slice (every caller takes a
    // subslice of a face brick, so indexing has already bounds-checked
    // it), hence its first element's address is in bounds. `_mm_prefetch`
    // is a hint that neither reads into the program nor faults.
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

/// One row of the 7-point apply:
/// `out[x] = α·c[x] + β·((xm+xp) + (ym+yp) + (zm+zp))` for `x ∈ [x0, x1)`, where the ±x operands come from within
/// the row except at the brick edges (`xml` / `xpr`, the adjacent cells of
/// the ±x face bricks). The edge cases are selects, not peeled code, so
/// with const bounds the loop unrolls branch-free.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row7(
    crow: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
    xml: f64,
    xpr: f64,
    out: &mut [f64],
    alpha: f64,
    beta: f64,
    x0: usize,
    x1: usize,
) {
    let b = crow.len();
    for x in x0..x1 {
        let l = if x == 0 { xml } else { crow[x - 1] };
        let r = if x + 1 == b { xpr } else { crow[x + 1] };
        out[x] = alpha * crow[x] + beta * ((l + r) + (ym[x] + yp[x]) + (zm[x] + zp[x]));
    }
}

/// Const-dim row streamer: computes `A·x` for rows `zs × ys` of the brick
/// at their full const width `B` — so the row loop unrolls completely and
/// LLVM emits packed SIMD — and hands each finished row (its offset into
/// the brick and its `B` values, still in registers) to `sink`. The ±x
/// face operands are read only when the caller's bounds reach that brick
/// edge (`edge_xm` / `edge_xp`); otherwise the edge cells of the row see
/// `0.0` and the caller discards them. The `.expect()`s never fire under
/// the validity precondition (`region.grow(1)` inside the storage cell
/// box): a missing face is only dereferenced for rows whose neighbor row
/// would lie outside storage.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stream_rows<const B: usize>(
    faces: &BrickFaces<'_>,
    alpha: f64,
    beta: f64,
    zs: std::ops::Range<usize>,
    ys: std::ops::Range<usize>,
    edge_xm: bool,
    edge_xp: bool,
    mut sink: impl FnMut(usize, &[f64; B]),
) {
    let c = faces.center;
    for lz in zs {
        let plane = lz * B * B;
        let zm: &[f64] = if lz > 0 {
            &c[plane - B * B..plane]
        } else {
            &faces.zm.expect(FACE)[(B - 1) * B * B..]
        };
        let zp: &[f64] = if lz + 1 < B {
            &c[plane + B * B..]
        } else {
            faces.zp.expect(FACE)
        };
        for ly in ys.clone() {
            let row = plane + ly * B;
            let ym: &[f64] = if ly > 0 {
                &c[row - B..row]
            } else {
                &faces.ym.expect(FACE)[row + (B - 1) * B..][..B]
            };
            let yp: &[f64] = if ly + 1 < B {
                &c[row + B..row + 2 * B]
            } else {
                &faces.yp.expect(FACE)[plane..][..B]
            };
            let (zm, zp) = (&zm[ly * B..][..B], &zp[ly * B..][..B]);
            let xml = if edge_xm {
                faces.xm.expect(FACE)[row + B - 1]
            } else {
                0.0
            };
            let xpr = if edge_xp {
                faces.xp.expect(FACE)[row]
            } else {
                0.0
            };
            let mut ax = [0.0; B];
            let crow = &c[row..row + B];
            row7(crow, ym, yp, zm, zp, xml, xpr, &mut ax, alpha, beta, 0, B);
            sink(row, &ax);
        }
    }
}

/// Touch every cross-brick line a whole-brick update will read before
/// streaming it: one ±y row per z-plane, the ±z contact planes, and the
/// per-row ±x edge cells (all six faces exist for a full brick under the
/// caller's `region.grow(1)` validity precondition).
#[inline(always)]
fn prefetch_faces<const B: usize>(faces: &BrickFaces<'_>) {
    let xm = faces.xm.expect(FACE);
    let xp = faces.xp.expect(FACE);
    let ymf = faces.ym.expect(FACE);
    let ypf = faces.yp.expect(FACE);
    let zmf = faces.zm.expect(FACE);
    let zpf = faces.zp.expect(FACE);
    for lz in 0..B {
        prefetch(&ymf[(lz * B + (B - 1)) * B..]);
        prefetch(&ypf[lz * B * B..]);
        for ly in 0..B {
            let row = (lz * B + ly) * B;
            prefetch(&xm[row + B - 1..]);
            prefetch(&xp[row..]);
        }
    }
    let line = 64 / core::mem::size_of::<f64>();
    for i in (0..B * B).step_by(line.min(B * B)) {
        prefetch(&zmf[(B - 1) * B * B + i..]);
        prefetch(&zpf[i..]);
    }
}

/// Monomorphized brick streamer: `sink(row, xs, ax)` receives every
/// in-bounds row's offset into the brick, its in-bounds cell range and
/// its `A·x`. Full bricks (the common case for brick-aligned regions) run
/// with every loop bound the const `B`, fully unrolled, after prefetching
/// their faces; clipped bricks run the same rows over runtime y/z bounds.
/// Both evaluate the identical expression per cell, so the split is
/// invisible in the output.
#[inline(always)]
pub(crate) fn stream_star7_rows<const B: usize>(
    faces: &BrickFaces<'_>,
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
    mut sink: impl FnMut(usize, std::ops::Range<usize>, &[f64; B]),
) {
    if rb.is_full(B) {
        prefetch_faces::<B>(faces);
        stream_rows::<B>(
            faces,
            alpha,
            beta,
            0..B,
            0..B,
            true,
            true,
            #[inline(always)]
            |row, ax| sink(row, 0..B, ax),
        );
    } else {
        let (x0, x1) = (rb.x0, rb.x1);
        let (zs, ys) = (rb.z0..rb.z1, rb.y0..rb.y1);
        stream_rows::<B>(
            faces,
            alpha,
            beta,
            zs,
            ys,
            x0 == 0,
            x1 == B,
            #[inline(always)]
            |row, ax| sink(row, x0..x1, ax),
        );
    }
}

/// Monomorphized `out ← A·x` over `rb` (see [`stream_star7_rows`]).
#[inline(always)]
pub(crate) fn stream_star7_spec<const B: usize>(
    faces: &BrickFaces<'_>,
    out: &mut [f64],
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
) {
    stream_star7_rows::<B>(
        faces,
        alpha,
        beta,
        rb,
        #[inline(always)]
        |row, xs, ax| {
            let out = &mut out[row..row + B];
            for x in xs {
                out[x] = ax[x];
            }
        },
    );
}

/// Runtime-dim fallback: same per-cell expression as [`row7`], with
/// runtime row bounds and brick dim `b`, handing every cell's `A·x` (and
/// its offset into the brick) to `sink` in `z → y → x` order.
///
/// Per row `(lz, ly)` the ±y/±z source rows are selected once: the center
/// brick at `±b`/`±b²` offsets while in-brick, otherwise the matching row
/// of the face-neighbor slice. The `.expect()`s never fire under the
/// caller's validity precondition (`region.grow(1)` inside the storage
/// cell box): a missing face is only dereferenced for cells whose
/// neighbor would lie outside storage.
#[inline(always)]
pub(crate) fn stream_star7_generic(
    b: usize,
    faces: &BrickFaces<'_>,
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
    mut sink: impl FnMut(usize, f64),
) {
    let (x0, x1) = (rb.x0, rb.x1);
    for lz in rb.z0..rb.z1 {
        let zbase = lz * b * b;
        for ly in rb.y0..rb.y1 {
            let row = zbase + ly * b;
            let crow = &faces.center[row..row + b];
            let ym: &[f64] = if ly > 0 {
                &faces.center[row - b..row]
            } else {
                let o = (lz * b + (b - 1)) * b;
                &faces.ym.expect(FACE)[o..o + b]
            };
            let yp: &[f64] = if ly + 1 < b {
                &faces.center[row + b..row + 2 * b]
            } else {
                let o = lz * b * b;
                &faces.yp.expect(FACE)[o..o + b]
            };
            let zm: &[f64] = if lz > 0 {
                &faces.center[row - b * b..row - b * b + b]
            } else {
                let o = ((b - 1) * b + ly) * b;
                &faces.zm.expect(FACE)[o..o + b]
            };
            let zp: &[f64] = if lz + 1 < b {
                &faces.center[row + b * b..row + b * b + b]
            } else {
                let o = ly * b;
                &faces.zp.expect(FACE)[o..o + b]
            };
            // The ±x face operands are only read by the select when the
            // bounds actually reach the brick edge.
            let xml = if x0 == 0 {
                faces.xm.expect(FACE)[row + b - 1]
            } else {
                0.0
            };
            let xpr = if x1 == b {
                faces.xp.expect(FACE)[row]
            } else {
                0.0
            };
            for x in x0..x1 {
                let l = if x == 0 { xml } else { crow[x - 1] };
                let r = if x + 1 == b { xpr } else { crow[x + 1] };
                let ax = alpha * crow[x] + beta * ((l + r) + (ym[x] + yp[x]) + (zm[x] + zp[x]));
                sink(row + x, ax);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
    use gmg_mesh::{Box3, Point3};
    use std::sync::Arc;

    fn mk() -> (Arc<BrickLayout>, BrickedField) {
        let l = Arc::new(BrickLayout::new(
            Box3::cube(8),
            4,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        let src = BrickedField::from_fn(l.clone(), |p| {
            0.25 + ((p.x * 31 + p.y * 17 - p.z * 11) % 23) as f64 / 7.0
        });
        (l, src)
    }

    #[test]
    fn specialized_and_generic_paths_are_bit_identical() {
        let (l, src) = mk();
        let slot = l.slot_of_brick(Point3::splat(1));
        let faces = BrickFaces::new(&src, slot);
        let rb = RowBounds {
            x0: 0,
            x1: 4,
            y0: 0,
            y1: 4,
            z0: 1,
            z1: 3,
        };
        let mut a = vec![0.0; l.brick_volume()];
        let mut b = vec![0.0; l.brick_volume()];
        stream_star7_spec::<4>(&faces, &mut a, -6.0, 1.0, &rb);
        stream_star7_generic(4, &faces, -6.0, 1.0, &rb, |i, ax| b[i] = ax);
        assert_eq!(a, b);
        // Rows outside the bounds stay untouched.
        assert_eq!(a[0..16], vec![0.0; 16][..]);
    }

    #[test]
    fn full_brick_fast_path_bit_identical_to_generic_body() {
        let (l, src) = mk();
        let slot = l.slot_of_brick(Point3::splat(1));
        let faces = BrickFaces::new(&src, slot);
        let rb = RowBounds {
            x0: 0,
            x1: 4,
            y0: 0,
            y1: 4,
            z0: 0,
            z1: 4,
        };
        assert!(rb.is_full(4));
        let mut a = vec![0.0; l.brick_volume()];
        let mut b = vec![0.0; l.brick_volume()];
        // spec takes the const-bound loops; generic the runtime ones.
        stream_star7_spec::<4>(&faces, &mut a, -6.0, 1.0, &rb);
        stream_star7_generic(4, &faces, -6.0, 1.0, &rb, |i, ax| b[i] = ax);
        assert_eq!(a, b);
    }
}
