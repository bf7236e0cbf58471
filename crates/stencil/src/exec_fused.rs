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
//! no `A·x` field, no lag and no scratch; `x` and `y` swap roles after
//! each pass. Compulsory traffic is 3 doubles per point per iteration
//! (read `x`, `b`; write `y`), and 4 on the one iteration that stores the
//! residual.
//!
//! Valid-region contract: iteration `k` updates the region `R_k` — `region`
//! clipped to the storage shell and shrunk by `k` cells on the layout's
//! halo axes only: across a wrapped axis a brick reads its live periodic
//! neighbor, so there is no shell to recompute and nothing to shrink —
//! reading `R_{k−1}` of the previous iterate, and every cell it updates
//! sees the operands and floating-point expressions of
//! `apply_star7_bricked` + the pointwise update. On return `x` — and `r`,
//! the pre-update residual of the *last* iteration — are specified on
//! `R_{s−1}` and bit-identical there to the sweep-by-sweep schedule (see
//! the equivalence tests below). Nothing is specified outside `R_{s−1}`:
//! those cells hold whichever earlier iterate or scratch value their buffer
//! last saw, and no later step may read them before an exchange or an
//! `initZero` rewrites them — the solver's `Level::margin` is exactly the
//! width of `R_{s−1}` beyond the owned box. `ax` is *not* materialized.

use crate::brick_rows::{stream_star7_generic, stream_star7_rows, RowBounds};
use gmg_brick::{BrickFaces, BrickShape, BrickedField};
use gmg_mesh::Box3;
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
    /// Doubles written to the fields (`x`, and `r` on `R_{s−1}` when
    /// requested).
    pub doubles_written: u64,
    /// Floating-point operations executed (8 per stencil point plus the
    /// pointwise update).
    pub flops: u64,
}

impl FusedStats {
    /// Compulsory doubles moved per updated point: 3, plus one per point
    /// of the final iteration when it stores the residual — against the
    /// sweep path's 5 (7 with the residual) per iteration.
    pub fn doubles_per_point(&self) -> f64 {
        (self.doubles_read + self.doubles_written) as f64 / self.points_updated.max(1) as f64
    }
}

/// One iteration of the schedule, out of place: the cells of `rk` are
/// written to `dst` as `src + γ(A·src − b)` (and `r ← b − A·src`), brick by
/// brick over the bricks that meet `rk`. The cells of a clipped brick
/// outside it are read by no later iteration and are left as `dst` had them.
fn jacobi_pass(
    dst: &mut BrickedField,
    src: &BrickedField,
    b: &BrickedField,
    mut r: Option<&mut BrickedField>,
    coef: (f64, f64, f64),
    rk: Box3,
) {
    let layout = src.layout().clone();
    let bd = layout.brick_dim() as usize;
    let shape = layout.shape();
    let ph = gmg_prof::brick_phases(bd as i64);
    for (slot, sub) in layout.slots_intersecting(rk) {
        let _kernel = gmg_prof::phase(ph.fused_root);
        let rb = RowBounds::within(sub, layout.cells_of_slot(slot).lo);
        let faces = BrickFaces::new(src, slot);
        let bb = b.brick(slot);
        let new = dst.brick_mut(slot);
        let mut r = r.as_deref_mut().map(|r| r.brick_mut(slot));
        let _p = gmg_prof::phase(ph.fused_brick);
        match shape {
            BrickShape::B4 => smooth_brick::<4>(&faces, new, r, bb, coef, &rb),
            BrickShape::B8 => smooth_brick::<8>(&faces, new, r, bb, coef, &rb),
            // Runtime dims: the same expressions, cell by cell.
            BrickShape::Generic(_) => {
                let old = faces.center;
                stream_star7_generic(bd, &faces, coef.0, coef.1, &rb, |i, ax| {
                    if let Some(r) = r.as_deref_mut() {
                        r[i] = bb[i] - ax;
                    }
                    new[i] = old[i] + coef.2 * (ax - bb[i]);
                });
            }
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
/// with `r`, the final iteration also stores its pre-update residual
/// `r = b − Ax` on `R_{s−1}` (what restriction reads after a pre-smooth).
/// Cells of `x` and `r` outside `R_{s−1}` hold unspecified values and must
/// be rewritten (exchange, `initZero`) before anything reads them. Requires
/// `x` valid one cell around `R_0` and `R_{s−1}` non-empty. `y` is the
/// second buffer the iterate alternates with: nothing is read from it, and
/// it holds garbage on exit; the result is always left in `x`.
#[allow(clippy::too_many_arguments)]
pub fn fused_multismooth_bricked(
    x: &mut BrickedField,
    b: &BrickedField,
    mut r: Option<&mut BrickedField>,
    alpha: f64,
    beta: f64,
    gamma: f64,
    region: Box3,
    s: usize,
    y: &mut BrickedField,
) -> FusedStats {
    assert!(s >= 1, "fused multi-smooth needs s >= 1");
    let layout = x.layout().clone();
    for (name, f) in [("b", b), ("y", &*y)]
        .into_iter()
        .chain(r.as_deref().map(|r| ("r", r)))
    {
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

    let mut points = 0u64;
    for k in 0..s {
        let rk = layout.grow_halo(region, -(k as i64));
        let store = r.as_deref_mut().filter(|_| k + 1 == s);
        jacobi_pass(y, x, b, store, (alpha, beta, gamma), rk);
        std::mem::swap(x, y);
        points += rk.volume() as u64;
    }
    // The residual costs one store and one subtraction per point of the
    // iteration that keeps it.
    let residual_points = r.map_or(0, |_| last.volume() as u64);
    FusedStats {
        points_updated: points,
        doubles_read: 2 * points,
        doubles_written: points + residual_points,
        flops: 11 * points + residual_points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_brick::{apply_star7_bricked, pointwise_mut1, pointwise_mut2};
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

    /// The sequential sweep-by-sweep CA reference the kernel must match
    /// bit-for-bit on `R_{s−1}`: `s − 1` × (`applyOp` + `smooth`), then
    /// `applyOp` + `smooth+residual` (or `smooth`, without `r`).
    fn sweep_reference(
        x: &mut BrickedField,
        b: &BrickedField,
        mut r: Option<&mut BrickedField>,
        (alpha, beta, gamma): (f64, f64, f64),
        region: Box3,
        s: usize,
    ) {
        let layout = x.layout().clone();
        let mut ax = BrickedField::new(layout.clone());
        for k in 0..s {
            let rk = region.shrink(k as i64);
            apply_star7_bricked(&mut ax, x, alpha, beta, rk);
            let pieces = layout.slots_intersecting(rk);
            match r.as_deref_mut().filter(|_| k + 1 == s) {
                Some(r) => pointwise_mut2(x, r, &ax, b, &pieces, move |x, r, ax, b| {
                    *r = b - ax;
                    *x += gamma * (ax - b);
                }),
                None => pointwise_mut1(x, &ax, b, &pieces, move |x, ax, b| {
                    *x += gamma * (ax - b);
                }),
            }
        }
    }

    /// Everything the solver feeds the kernel: brick dims down to the 1-
    /// and 2-cell bricks of coarse two-rank levels, both slot orderings,
    /// a non-cubic subdomain, every CA region `owned.grow(m)` (clipped on
    /// all six sides for `m > 0`), every depth the margin allows, with and
    /// without the residual. `x` and `r` must match the sweep reference on
    /// the valid region `R_{s−1}`. With `poison`, everything the contract
    /// says the kernel may not read is NaN on entry — `y`, `r`, and `x`
    /// outside `region.grow(1)` — so one stray read shows in the result.
    fn check_against_sweeps(poison: bool) {
        let coef = (-6.0 / 0.25, 1.0 / 0.25, 0.25 / 12.0);
        for bd in [1i64, 2, 4, 8] {
            for ordering in [BrickOrdering::SurfaceMajor, BrickOrdering::Lexicographic] {
                let layout = mk_layout(Point3::new(bd, 2 * bd, 3 * bd), bd, ordering);
                let b = BrickedField::from_fn(layout.clone(), rhs_fn);
                for m in 0..bd {
                    let region = layout.cell_box().grow(m);
                    for s in 1..=bd as usize {
                        let valid = region.shrink(s as i64 - 1);
                        if valid.is_empty() {
                            continue;
                        }
                        for with_r in [true, false] {
                            let mut x1 = BrickedField::from_fn(layout.clone(), idx_fn);
                            let mut r1 = BrickedField::new(layout.clone());
                            sweep_reference(
                                &mut x1,
                                &b,
                                with_r.then_some(&mut r1),
                                coef,
                                region,
                                s,
                            );
                            let seen = region.grow(1);
                            let fill = if poison { f64::NAN } else { -7.0 };
                            let mut x2 = BrickedField::from_fn(layout.clone(), |p| {
                                if seen.contains(p) {
                                    idx_fn(p)
                                } else {
                                    fill
                                }
                            });
                            let mut r2 = BrickedField::from_fn(layout.clone(), |_| fill);
                            let mut y = r2.clone();
                            let stats = fused_multismooth_bricked(
                                &mut x2,
                                &b,
                                with_r.then_some(&mut r2),
                                coef.0,
                                coef.1,
                                coef.2,
                                region,
                                s,
                                &mut y,
                            );
                            let case = format!("bd={bd} {ordering:?} m={m} s={s} r={with_r}");
                            valid.for_each(|p| {
                                assert!(x2.get(p).is_finite(), "x at {p:?}: {case}");
                                assert_eq!(x1.get(p), x2.get(p), "x at {p:?}: {case}");
                                if with_r {
                                    assert_eq!(r1.get(p), r2.get(p), "r at {p:?}: {case}");
                                }
                            });
                            let points: u64 = (0..s)
                                .map(|k| region.shrink(k as i64).volume() as u64)
                                .sum();
                            assert_eq!(stats.points_updated, points, "{case}");
                            // 3 doubles per point, and the residual store
                            // on the last iteration only.
                            let moved = 3 * points + if with_r { valid.volume() as u64 } else { 0 };
                            assert_eq!(stats.doubles_read + stats.doubles_written, moved, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bit_identical_to_sweeps_on_the_valid_region() {
        check_against_sweeps(false);
    }

    #[test]
    fn reads_nothing_outside_the_region_halo() {
        check_against_sweeps(true);
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
