//! One-pass communication-avoiding Jacobi smoother over bricks (paper
//! Section V).
//!
//! The sweep-by-sweep CA schedule runs one Jacobi iteration as a
//! full-grid `applyOp` into a field-sized `A·x` followed by a full-grid
//! `smooth`: 5 doubles moved per point in the paper's counting (7 with
//! the residual), two passes over the bricks. The kernel here makes **one
//! pass per iteration**: for every brick, each row's `A·x` goes from the SIMD row
//! kernels of `brick_rows` — still in registers — straight into
//! `y = x + γ(Ax − b)`, the brick's place in a second field `y`. No brick
//! waits on another (the operator reads only the old iterate), so there is
//! no `A·x` field, no lag and no field-sized scratch; `x` and `y` swap roles after
//! each pass. Compulsory traffic is 3 doubles per point per iteration
//! (read `x`, `b`; write `y`), 4 on an iteration that stores the residual
//! and 3⅛ on one that restricts it.
//!
//! Valid-region contract: iteration `k` updates the region `R_k` — `region`
//! clipped to the storage shell and shrunk by `k` cells on the layout's
//! halo axes only: across a wrapped axis a brick reads its live periodic
//! neighbor, so there is no shell to recompute and nothing to shrink —
//! reading `R_{k−1}` of the previous iterate, and every cell it updates
//! sees the operands and floating-point expressions of
//! `apply_star7_bricked` + the pointwise update. On return `x` is
//! specified on `R_{s−1}` and bit-identical there to the sweep-by-sweep
//! schedule run by the DSL interpreter, at every brick shape (see the tests
//! below). Nothing is specified outside
//! `R_{s−1}`: those cells hold whichever earlier iterate or scratch value
//! their buffer last saw, and no later step may read them before an
//! exchange or an `initZero` rewrites them — the solver's `Level::margin`
//! is exactly the width of `R_{s−1}` beyond the owned box. `ax` is *not*
//! materialized.
//!
//! The last iteration's pre-update residual `b − A·x` goes to an optional
//! [`ResidualSink`]: stored cell for cell on `R_{s−1}` (`Store`, one more
//! double per point), or restricted as it goes (`Restrict`, paper
//! Algorithm 2 line 7). A restricting iteration runs over whole owned
//! bricks — the end of a solver pass, where the margin is 0 — and each
//! fine brick, once streamed, folds its residuals (staged in an
//! L1-resident brick scratch) into the octant of the coarse brick it
//! covers: every coarse cell from `0.0`, its rows in `z → y` order,
//! `(s + r[2i]) + r[2i+1]` within a row, then `× 0.125`. That is
//! `restriction`'s `dz → dy → dx` fold, so the coarse right-hand side is
//! the same bit for bit, and no fine residual field exists at all: one
//! coarse double per 8 fine points is written instead of one per point.
//!
//! Each pass runs at the instruction-set tier [`Isa::detect`] picks: the
//! pass loop and everything it streams are `#[inline(always)]`, and
//! `Isa::run` calls them from an AVX-512, AVX2 or baseline trampoline, so
//! an 8³ brick row is one `zmm` register where the CPU has AVX-512 — with
//! the same bits as the baseline build (see [`crate::isa`]).

use crate::brick_rows::{stream_star7_rows, with_brick_dim, RowBounds};
use crate::isa::Isa;
use gmg_brick::{BrickFaces, BrickedField};
use gmg_mesh::{Box3, Point3};
use std::sync::Arc;

/// Instrumentation from one multi-smooth invocation, in units the trace
/// layer can convert to bytes/FLOPs. The traffic model counts the
/// compulsory field movement only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Points the schedule updated: `Σ_k |R_k|`, identical to what the
    /// sweep-by-sweep path would report for the same schedule.
    pub points_updated: u64,
    /// Doubles read from the fields (`x` and `b`).
    pub doubles_read: u64,
    /// Doubles written to the fields: `x`, plus the residual sink's — `r`
    /// on `R_{s−1}` for `Store`, the coarse `b` (`|R_{s−1}|/8`) for
    /// `Restrict`.
    pub doubles_written: u64,
    /// Floating-point operations executed (8 per stencil point plus the
    /// pointwise update), plus the residual's subtraction per point of the
    /// last iteration and, for `Restrict`, the fold's add per fine point and
    /// scale per coarse cell.
    pub flops: u64,
}

impl FusedStats {
    /// Compulsory doubles moved per updated point: 3, plus what the final
    /// iteration's residual sink writes (one per point for `Store`, one per
    /// 8 for `Restrict`) — against the sweep path's 5 (7 with the residual)
    /// per iteration.
    pub fn doubles_per_point(&self) -> f64 {
        (self.doubles_read + self.doubles_written) as f64 / self.points_updated.max(1) as f64
    }
}

/// Where the last iteration of [`fused_multismooth_bricked`] puts its
/// pre-update residual `b − A·x`.
pub enum ResidualSink<'a> {
    /// Store it in a fine field over the same layout, on `R_{s−1}`. No
    /// solver step stores it: kept for the benchmark probes only.
    Store(&'a mut BrickedField),
    /// Restrict it into a coarse right-hand side whose owned box is the
    /// fine one coarsened by 2: every coarse owned cell gets the volume
    /// average of its 8 fine residuals, in `restriction`'s fold order.
    /// Nothing else of the coarse field is read or written. Needs an even
    /// fine brick dim and `R_{s−1}` equal to the owned box.
    Restrict(&'a mut BrickedField),
}

/// The `Restrict` sink of one pass, one whole fine brick at a time: the
/// brick's residual rows are stored into a brick-sized scratch
/// (L1-resident) exactly as `Store` stores them into `r`; once the brick is
/// done, each coarse cell of the octant it covers is folded from `0.0` —
/// its `(dz, dy)` rows in order, `(s + r[2i]) + r[2i+1]` within a row —
/// scaled by `0.125` and stored. The fold runs a coarse plane at a time, so
/// its `h²` add chains (`h` = half the brick dim) are in flight together
/// rather than one row's behind the stencil.
struct BrickRestrictor {
    res: Vec<f64>,
    plane: Vec<f64>,
    bd: usize,
}

impl BrickRestrictor {
    fn new(bd: usize) -> Self {
        let h = bd / 2;
        BrickRestrictor {
            res: vec![0.0; bd * bd * bd],
            plane: vec![0.0; h * h],
            bd,
        }
    }

    /// Fold the staged brick into its octant at offset `off` of the coarse
    /// brick `out` (side `bc`).
    #[inline(always)]
    fn finish(&mut self, out: &mut [f64], off: usize, bc: usize) {
        // Literal dims, so the inlined loops unroll at the solver's sizes.
        match self.bd {
            4 => self.fold(4, out, off, bc),
            8 => self.fold(8, out, off, bc),
            bd => self.fold(bd, out, off, bc),
        }
    }

    #[inline(always)]
    fn fold(&mut self, bd: usize, out: &mut [f64], off: usize, bc: usize) {
        let h = bd / 2;
        let plane = &mut self.plane[..h * h];
        for cz in 0..h {
            plane.fill(0.0);
            for dz in 0..2 {
                for dy in 0..2 {
                    for cy in 0..h {
                        let r = ((2 * cz + dz) * bd + 2 * cy + dy) * bd;
                        let row = &self.res[r..r + bd];
                        let acc = &mut plane[cy * h..cy * h + h];
                        for (s, p) in acc.iter_mut().zip(row.chunks_exact(2)) {
                            *s = (*s + p[0]) + p[1];
                        }
                    }
                }
            }
            for (cy, sums) in plane.chunks_exact(h).enumerate() {
                let o = off + (cz * bc + cy) * bc;
                for (v, s) in out[o..o + h].iter_mut().zip(sums) {
                    *v = *s * 0.125;
                }
            }
        }
    }
}

/// One iteration of the schedule, out of place: the cells of `rk` are
/// written to `dst` as `src + γ(A·src − b)` (and the residual `b − A·src`
/// handed to `sink`), brick by brick over the bricks that meet `rk`. The
/// cells of a clipped brick outside it are read by no later iteration:
/// what lands there is unspecified. Inlined into each tier's trampoline.
#[inline(always)]
fn jacobi_pass(
    dst: &mut BrickedField,
    src: &BrickedField,
    b: &BrickedField,
    mut sink: Option<&mut ResidualSink<'_>>,
    coef: (f64, f64, f64),
    rk: Box3,
) {
    let layout = src.layout().clone();
    let bd = layout.brick_dim() as usize;
    let shape = layout.shape();
    let mut restrictor = match sink {
        Some(ResidualSink::Restrict(_)) => Some(BrickRestrictor::new(bd)),
        _ => None,
    };
    for (slot, sub) in layout.slots_intersecting(rk) {
        let lo = layout.cells_of_slot(slot).lo;
        let rb = RowBounds::within(sub, lo);
        let faces = BrickFaces::new(src, slot);
        let bb = b.brick(slot);
        let new = dst.brick_mut(slot);
        // Where this brick's residual rows go: its bricks of `r`, or the
        // restrictor's scratch.
        let r = match sink.as_deref_mut() {
            Some(ResidualSink::Store(r)) => Some(r.brick_mut(slot)),
            Some(ResidualSink::Restrict(_)) => restrictor.as_mut().map(|t| &mut t.res[..]),
            None => None,
        };
        with_brick_dim!(shape, B => smooth_brick::<B>(&faces, new, r, bb, coef, &rb));
        if let (Some(ResidualSink::Restrict(cb)), Some(restrictor)) =
            (sink.as_deref_mut(), restrictor.as_mut())
        {
            let (cslot, off) = cb
                .layout()
                .locate(lo.div_floor(Point3::splat(2)))
                .expect("coarse b covers the coarsened owned box");
            let bc = cb.layout().brick_dim() as usize;
            restrictor.finish(cb.brick_mut(cslot), off, bc);
        }
    }
}

/// One brick of the pass at a const brick dim: each row's `A·x` goes from
/// the stencil straight into the update while still in registers — the
/// exact expressions of `smooth_residual` / `smooth` (residual of `x`
/// *before* the update).
#[inline(always)]
fn smooth_brick<const B: usize>(
    faces: &BrickFaces<'_>,
    new: &mut [f64],
    mut r: Option<&mut [f64]>,
    b: &[f64],
    (alpha, beta, gamma): (f64, f64, f64),
    rb: &RowBounds,
) {
    let old = faces.center;
    stream_star7_rows::<B>(
        faces,
        alpha,
        beta,
        rb,
        #[inline(always)]
        |row, _, ax| {
            let (new, old, b) = (&mut new[row..row + B], &old[row..row + B], &b[row..row + B]);
            // Whole rows into locals first — stores through `new`/`r` between
            // the loads would keep LLVM from vectorizing the arithmetic — then
            // one const-width store each. The cells of a clipped row outside
            // the bounds are outside the valid region: what lands there is
            // unspecified.
            let (mut res, mut upd) = ([0.0; B], [0.0; B]);
            for x in 0..B {
                res[x] = b[x] - ax[x];
                upd[x] = old[x] + gamma * (ax[x] - b[x]);
            }
            new.copy_from_slice(&upd);
            if let Some(r) = r.as_deref_mut() {
                r[row..row + B].copy_from_slice(&res);
            }
        },
    );
}

/// Apply `s` Jacobi iterations `x += γ(Ax − b)` over the shrinking
/// communication-avoiding schedule `R_k` (`region` clipped to the storage
/// shell, shrunk by `k` on the halo axes), one pass over the bricks per
/// iteration. On return `x` is specified on `R_{s−1}` only, bit-identical
/// there to `s` sequential `apply_star7_bricked` + pointwise-update passes;
/// the final iteration hands its pre-update residual `r = b − Ax` to
/// `sink`: stored on `R_{s−1}`, or restricted into a coarse `b` (see
/// [`ResidualSink`]). Cells of `x` and a stored `r` outside `R_{s−1}` hold
/// unspecified values and must be rewritten (exchange, `initZero`) before
/// anything reads them. Requires `x` valid one cell around `R_0` and
/// `R_{s−1}` non-empty. `y` is the second buffer the iterate alternates
/// with: nothing is read from it, and it holds garbage on exit; the result
/// is always left in `x`.
#[allow(clippy::too_many_arguments)]
pub fn fused_multismooth_bricked(
    x: &mut BrickedField,
    b: &BrickedField,
    sink: Option<ResidualSink<'_>>,
    alpha: f64,
    beta: f64,
    gamma: f64,
    region: Box3,
    s: usize,
    y: &mut BrickedField,
) -> FusedStats {
    let coef = (alpha, beta, gamma);
    fused_multismooth_on(Isa::detect(), x, b, sink, coef, region, s, y)
}

/// [`fused_multismooth_bricked`] with every pass at the tier `isa`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_multismooth_on(
    isa: Isa,
    x: &mut BrickedField,
    b: &BrickedField,
    mut sink: Option<ResidualSink<'_>>,
    coef: (f64, f64, f64),
    region: Box3,
    s: usize,
    y: &mut BrickedField,
) -> FusedStats {
    assert!(s >= 1, "fused multi-smooth needs s >= 1");
    let layout = x.layout().clone();
    let stored = match &sink {
        Some(ResidualSink::Store(r)) => Some(("r", &**r)),
        _ => None,
    };
    for (name, f) in [("b", b), ("y", &*y)].into_iter().chain(stored) {
        assert!(Arc::ptr_eq(&layout, f.layout()), "x/{name} layout mismatch");
    }
    assert!(
        layout.covers_reads(region, 1),
        "fused region {region:?} + halo exceeds storage"
    );
    let region = region.intersect(&layout.storage_cell_box());
    let last = layout.grow_halo(region, 1 - s as i64);
    assert!(
        !last.is_empty(),
        "region {region:?} too small for {s} fused iterations"
    );
    if let Some(ResidualSink::Restrict(cb)) = &sink {
        assert_eq!(
            last,
            layout.cell_box(),
            "a restricting iteration runs over exactly the owned bricks"
        );
        assert_eq!(
            layout.brick_dim() % 2,
            0,
            "restriction needs an even brick dim"
        );
        assert_eq!(
            cb.layout().cell_box(),
            layout.cell_box().coarsen(2),
            "coarse b must own the coarsened owned box"
        );
    }

    let mut points = 0u64;
    for k in 0..s {
        let rk = layout.grow_halo(region, -(k as i64));
        let out = sink.as_mut().filter(|_| k + 1 == s);
        isa.run(
            #[inline(always)]
            || jacobi_pass(y, x, b, out, coef, rk),
        );
        std::mem::swap(x, y);
        points += rk.volume() as u64;
    }
    // The residual costs a subtraction per point of the iteration that
    // keeps it, and a store per point — or, restricted, an add per point
    // and a scale and a store per coarse cell.
    let last = last.volume() as u64;
    let (written, flops) = match sink {
        None => (0, 0),
        Some(ResidualSink::Store(_)) => (last, last),
        Some(ResidualSink::Restrict(_)) => (last / 8, 2 * last + last / 8),
    };
    FusedStats {
        points_updated: points,
        doubles_read: 2 * points,
        doubles_written: points + written,
        flops: 11 * points + flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_stencil;
    use crate::ops::{apply_op_def, smooth_residual_def};
    use gmg_brick::{BrickLayout, BrickOrdering};
    use gmg_mesh::Point3;

    fn idx_fn(p: Point3) -> f64 {
        ((p.x * 7 + p.y * 3 - p.z * 5) % 13) as f64 + 0.5
    }

    fn rhs_fn(p: Point3) -> f64 {
        ((p.x * 2 - p.y * 5 + p.z * 11) % 9) as f64 - 1.25
    }

    fn mk_layout(n: Point3, bd: i64, ordering: BrickOrdering) -> Arc<BrickLayout> {
        Arc::new(BrickLayout::new(Box3::from_extent(n), bd, 1, ordering))
    }

    /// One sweep of the DSL interpreter over `rk`: `applyOp` into `A·x`,
    /// then `smooth+residual`, updating `x` and returning `r`. The first
    /// `s` sweeps over `region` shrunk by `0, 1, …` are the reference the
    /// kernel must match bit for bit on `R_{s−1}`.
    fn interp_sweep(
        x: &mut BrickedField,
        b: &BrickedField,
        (alpha, beta, gamma): (f64, f64, f64),
        rk: Box3,
    ) -> BrickedField {
        let mut ax = BrickedField::new(x.layout().clone());
        run_stencil(&apply_op_def(), &[&*x], &[alpha, beta], &mut [&mut ax], rk);
        let (mut r, mut next) = (BrickedField::new(x.layout().clone()), x.clone());
        let inputs = [&*x, &ax, b];
        run_stencil(
            &smooth_residual_def(),
            &inputs,
            &[gamma],
            &mut [&mut r, &mut next],
            rk,
        );
        *x = next;
        r
    }

    /// `restriction`'s fold of the fine residual `r` into the coarse cell
    /// `c`: from `0.0`, the `(dz, dy)` rows in order, `(s + r[2i]) +
    /// r[2i+1]` within a row, then `× 0.125`.
    fn restricted(r: &BrickedField, c: Point3) -> f64 {
        let mut sum = 0.0;
        for dz in 0..2 {
            for dy in 0..2 {
                let p = Point3::new(2 * c.x, 2 * c.y + dy, 2 * c.z + dz);
                sum = (sum + r.get(p)) + r.get(p + Point3::new(1, 0, 0));
            }
        }
        sum * 0.125
    }

    /// Everything the solver feeds the kernel: every brick shape, down to
    /// the 1- and 2-cell bricks of coarse levels, both slot orderings, a
    /// non-cubic subdomain, every CA region `owned.grow(m)` (clipped on all
    /// six sides for `m > 0`), every depth the margin allows, with and
    /// without the residual, and — where the last iteration covers exactly
    /// the owned bricks of an even brick dim — restricting it, at every
    /// instruction-set tier the CPU reports. `x` and `r` must match the
    /// interpreter's sweeps bit for bit on the valid region `R_{s−1}`, and
    /// a restricted coarse cell the fold of that `r`. With `poison`,
    /// everything the contract says the kernel may not read is NaN on entry
    /// — `y`, `r`, the coarse `b`, and `x` outside `region.grow(1)` — so one
    /// stray read shows in the result.
    fn check_against_the_interpreter(poison: bool) {
        let fill = if poison { f64::NAN } else { -7.0 };
        let coef = (-6.0 / 0.25, 1.0 / 0.25, 0.25 / 12.0);
        for bd in [1i64, 2, 4, 8] {
            for ordering in [BrickOrdering::SurfaceMajor, BrickOrdering::Lexicographic] {
                let extent = Point3::new(bd, 2 * bd, 3 * bd);
                let layout = mk_layout(extent, bd, ordering);
                let coarse = (bd % 2 == 0)
                    .then(|| mk_layout(extent.div_floor(Point3::splat(2)), bd / 2, ordering));
                let b = BrickedField::from_fn(layout.clone(), rhs_fn);
                for m in 0..bd {
                    let region = layout.cell_box().grow(m);
                    let seen = region.grow(1);
                    let mut x1 = BrickedField::from_fn(layout.clone(), idx_fn);
                    for s in 1..=bd as usize {
                        let valid = region.shrink(s as i64 - 1);
                        if valid.is_empty() {
                            break;
                        }
                        let restricts = coarse.as_ref().filter(|_| valid == layout.cell_box());
                        // The `s`-th sweep's iterate and residual.
                        let r1 = interp_sweep(&mut x1, &b, coef, valid);
                        let same_x = |x2: &BrickedField, case: &str| {
                            valid.for_each(|p| {
                                assert!(x2.get(p).is_finite(), "x at {p:?}: {case}");
                                let (want, got) = (x1.get(p).to_bits(), x2.get(p).to_bits());
                                assert_eq!(want, got, "x at {p:?}: {case}");
                            });
                        };
                        for (with_r, isa) in [true, false]
                            .into_iter()
                            .flat_map(|r| Isa::available().map(move |i| (r, i)))
                        {
                            let case =
                                format!("{isa:?} bd={bd} {ordering:?} m={m} s={s} r={with_r}");
                            let fresh_x = || {
                                BrickedField::from_fn(layout.clone(), |p| {
                                    if seen.contains(p) {
                                        idx_fn(p)
                                    } else {
                                        fill
                                    }
                                })
                            };
                            let mut x2 = fresh_x();
                            let mut r2 = BrickedField::from_fn(layout.clone(), |_| fill);
                            let mut y = r2.clone();
                            let stats = fused_multismooth_on(
                                isa,
                                &mut x2,
                                &b,
                                with_r.then_some(ResidualSink::Store(&mut r2)),
                                coef,
                                region,
                                s,
                                &mut y,
                            );
                            same_x(&x2, &case);
                            if with_r {
                                valid.for_each(|p| {
                                    let (want, got) = (r1.get(p).to_bits(), r2.get(p).to_bits());
                                    assert_eq!(want, got, "r at {p:?}: {case}");
                                });
                            }
                            let points: u64 = (0..s)
                                .map(|k| region.shrink(k as i64).volume() as u64)
                                .sum();
                            assert_eq!(stats.points_updated, points, "{case}");
                            // 3 doubles per point, and the residual store on
                            // the last iteration only.
                            let moved = 3 * points + if with_r { valid.volume() as u64 } else { 0 };
                            assert_eq!(stats.doubles_read + stats.doubles_written, moved, "{case}");
                            let Some(coarse) = restricts.filter(|_| with_r) else {
                                continue;
                            };
                            // The restricting sink: the coarse owned cells get
                            // the fold of `r`, its ghost shell nothing.
                            let case = format!("{case} restrict");
                            let mut x3 = fresh_x();
                            let mut cb = BrickedField::from_fn(coarse.clone(), |_| fill);
                            fused_multismooth_on(
                                isa,
                                &mut x3,
                                &b,
                                Some(ResidualSink::Restrict(&mut cb)),
                                coef,
                                region,
                                s,
                                &mut y,
                            );
                            same_x(&x3, &case);
                            coarse.storage_cell_box().for_each(|c| {
                                let want = if coarse.cell_box().contains(c) {
                                    restricted(&r1, c)
                                } else {
                                    fill
                                };
                                assert_eq!(want.to_bits(), cb.get(c).to_bits(), "{c:?}: {case}");
                            });
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bit_identical_to_the_interpreter_on_the_valid_region() {
        check_against_the_interpreter(false);
    }

    #[test]
    fn reads_nothing_outside_the_region_halo() {
        check_against_the_interpreter(true);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_overdeep_fusion() {
        let layout = mk_layout(Point3::splat(8), 4, BrickOrdering::SurfaceMajor);
        let mut x = BrickedField::new(layout.clone());
        let b = BrickedField::new(layout.clone());
        let mut y = BrickedField::new(layout.clone());
        fused_multismooth_bricked(&mut x, &b, None, 1.0, 1.0, 1.0, Box3::cube(8), 20, &mut y);
    }
}
