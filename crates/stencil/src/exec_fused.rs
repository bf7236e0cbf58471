//! Streamed communication-avoiding Jacobi smoother over bricks (paper
//! Section V).
//!
//! The sweep-by-sweep CA schedule runs one Jacobi iteration as a
//! full-grid `applyOp` into a field-sized `A·x` followed by a full-grid
//! `smooth(+residual)`: 7 doubles moved per point (plus 2 of
//! write-allocate). The kernel here makes **one pass per iteration, in
//! place**: it walks the region's brick layers in z, computes `A·x` for
//! every brick of layer `bz` with the whole-brick SIMD kernels of
//! `brick_rows` into a rolling two-layer scratch, then applies
//! `r = b − Ax; x += γ(Ax − b)` to layer `bz − 1` — whose `A·x` is
//! complete and whose old `x` no later operator application reads. The
//! `A·x` working set shrinks from a field to two brick layers that stay
//! cache-resident, so the compulsory traffic is 4 doubles per point per
//! iteration (read `x`, `b`; write `x`, `r`), 3 without the residual.
//!
//! Bit-compatibility contract: iteration `k` updates the shrinking region
//! `R_k = region.shrink(k)`, exactly as the sequential schedule does, and
//! every cell sees the operands and floating-point expressions of
//! `apply_star7_bricked` + the pointwise update — so `x` and `r` (staleness
//! rings included) are bit-identical to `s` sequential passes over the
//! whole storage, and cells outside `R_k` are never written (see the
//! equivalence tests below). `ax` is *not* materialized.
//!
//! Bricks of a layer are independent in both phases and run under rayon;
//! no value depends on the partition, so results do not depend on the
//! pool width.

use crate::brick_rows::{stream_star7_generic, stream_star7_spec, RowBounds};
use gmg_brick::{BrickFaces, BrickLayout, BrickShape, BrickedField};
use gmg_mesh::{Box3, Point3};
use rayon::prelude::*;
use std::sync::Arc;

/// Instrumentation from one streamed multi-smooth invocation, in units
/// the trace layer can convert to bytes/FLOPs. The traffic model counts
/// the compulsory field movement only; the two-layer `A·x` scratch is
/// written and re-read while cache-resident.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FusedStats {
    /// Points the schedule updated: `Σ_k |R_k|`, identical to what the
    /// sweep-by-sweep path would report for the same schedule.
    pub points_updated: u64,
    /// Points actually computed. The in-place kernel does no redundant
    /// work, so this always equals `points_updated`.
    pub points_computed: u64,
    /// Doubles read from the fields (`x` and `b`).
    pub doubles_read: u64,
    /// Doubles written to the fields (`x`, and `r` when requested).
    pub doubles_written: u64,
    /// Floating-point operations executed (8 per stencil point plus the
    /// pointwise update).
    pub flops: u64,
}

impl FusedStats {
    /// Compulsory doubles moved per updated point — 4 with the residual,
    /// 3 without, against the sweep path's 7 per iteration.
    pub fn doubles_per_point(&self) -> f64 {
        (self.doubles_read + self.doubles_written) as f64 / self.points_updated.max(1) as f64
    }
}

/// Length in doubles of the rolling `A·x` scratch
/// [`fused_multismooth_bricked`] needs for any region of `layout`: two
/// layers of the storage shell's `nbx · nby` bricks.
pub fn layer_scratch_len(layout: &BrickLayout) -> usize {
    let e = layout.storage_brick_box().extent();
    2 * (e.x * e.y) as usize * layout.brick_volume()
}

/// The constants of one pass, shared by both phases of every layer.
struct Pass<'a> {
    layout: &'a BrickLayout,
    /// This iteration's region `R_k`.
    region: Box3,
    /// Brick box covering `region`; scratch chunk `j` of a layer holds
    /// brick `(bricks.lo.x + j % nbx, bricks.lo.y + j / nbx)`.
    bricks: Box3,
    alpha: f64,
    beta: f64,
    gamma: f64,
}

impl Pass<'_> {
    /// Brick-local bounds of `region` inside the brick at `slot`.
    fn bounds(&self, slot: u32) -> RowBounds {
        let cells = self.layout.cells_of_slot(slot);
        RowBounds::within(cells.intersect(&self.region), cells.lo)
    }

    /// `out ← A·x` on every brick of layer `bz`.
    fn apply_layer(&self, x: &BrickedField, out: &mut [f64], bz: i64) {
        let nbx = self.bricks.extent().x;
        let bd = self.layout.brick_dim();
        let shape = self.layout.shape();
        let ph = gmg_prof::brick_phases(bd);
        let (alpha, beta) = (self.alpha, self.beta);
        out.par_chunks_exact_mut(self.layout.brick_volume())
            .enumerate()
            .for_each(|(j, ax)| {
                let _kernel = gmg_prof::phase(ph.fused_root);
                let _p = gmg_prof::phase(ph.fused_apply);
                let j = j as i64;
                let brick = Point3::new(self.bricks.lo.x + j % nbx, self.bricks.lo.y + j / nbx, bz);
                let slot = self.layout.slot_of_brick(brick);
                let faces = BrickFaces::new(x, slot);
                let rb = self.bounds(slot);
                match shape {
                    BrickShape::B4 => stream_star7_spec::<4>(&faces, ax, alpha, beta, &rb),
                    BrickShape::B8 => stream_star7_spec::<8>(&faces, ax, alpha, beta, &rb),
                    BrickShape::Generic(_) => {
                        stream_star7_generic(bd as usize, &faces, ax, alpha, beta, &rb)
                    }
                }
            });
    }

    /// `r ← b − Ax; x ← x + γ(Ax − b)` on every brick of layer `bz`, whose
    /// `A·x` is `ax`. The layer's bricks sit at arbitrary slots, so the
    /// slot-ordered storage is scanned and each slot asks whether it
    /// belongs to the layer.
    fn update_layer(
        &self,
        x: &mut BrickedField,
        b: &BrickedField,
        r: Option<&mut BrickedField>,
        ax: &[f64],
        bz: i64,
    ) {
        let bd = self.layout.brick_dim();
        let bvol = self.layout.brick_volume();
        let nbx = self.bricks.extent().x;
        let ph = gmg_prof::brick_phases(bd);
        let lo = self.bricks.lo;
        let update = |slot: usize, xb: &mut [f64], rb: Option<&mut [f64]>| {
            let slot = slot as u32;
            let brick = self.layout.brick_of_slot(slot);
            // z first: it rejects all but one layer's worth of slots.
            if brick.z != bz || !self.bricks.contains(brick) {
                return;
            }
            let _kernel = gmg_prof::phase(ph.fused_root);
            let _p = gmg_prof::phase(ph.fused_update);
            let j = ((brick.y - lo.y) * nbx + (brick.x - lo.x)) as usize;
            update_brick(
                xb,
                rb,
                &ax[j * bvol..(j + 1) * bvol],
                b.brick(slot),
                self.gamma,
                bd as usize,
                &self.bounds(slot),
            );
        };
        let xs = x.as_mut_slice().par_chunks_exact_mut(bvol);
        match r {
            Some(r) => xs
                .zip(r.as_mut_slice().par_chunks_exact_mut(bvol))
                .enumerate()
                .for_each(|(slot, (xb, rb))| update(slot, xb, Some(rb))),
            None => xs.enumerate().for_each(|(slot, xb)| update(slot, xb, None)),
        }
    }
}

/// The pointwise update of one brick over `rb`, in the exact expressions
/// of `smooth_residual` / `smooth` (residual of `x` *before* the update),
/// as slice loops: under CA most ghost-shell bricks are clipped, so a
/// per-cell path for them would dominate small levels.
fn update_brick(
    x: &mut [f64],
    mut r: Option<&mut [f64]>,
    ax: &[f64],
    b: &[f64],
    gamma: f64,
    bd: usize,
    rb: &RowBounds,
) {
    rb.for_each_span(bd, |s| {
        let (x, ax, b) = (&mut x[s.clone()], &ax[s.clone()], &b[s.clone()]);
        match r.as_deref_mut() {
            Some(r) => {
                for (((x, r), ax), b) in x.iter_mut().zip(&mut r[s]).zip(ax).zip(b) {
                    *r = b - ax;
                    *x += gamma * (ax - b);
                }
            }
            None => {
                for ((x, ax), b) in x.iter_mut().zip(ax).zip(b) {
                    *x += gamma * (ax - b);
                }
            }
        }
    });
}

/// Apply `s` Jacobi iterations `x += γ(Ax − b)` over the shrinking
/// communication-avoiding schedule `R_k = region.shrink(k)`, one streamed
/// in-place pass per iteration, bit-identical to `s` sequential
/// `apply_star7_bricked` + pointwise-update passes. With `r`, each
/// iteration also records the pre-update residual `r = b − Ax` over its
/// `R_k` (so `r` carries the same staleness rings the sequential
/// `smooth_residual` leaves). Requires `x` valid on `region.grow(1)`,
/// `region.shrink(s−1)` non-empty, and `scratch` at least
/// [`layer_scratch_len`] doubles (its contents are irrelevant on entry
/// and garbage on exit).
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
    scratch: &mut [f64],
) -> FusedStats {
    assert!(s >= 1, "fused multi-smooth needs s >= 1");
    let layout = x.layout().clone();
    assert!(Arc::ptr_eq(&layout, b.layout()), "x/b layout mismatch");
    if let Some(rf) = r.as_ref() {
        assert!(Arc::ptr_eq(&layout, rf.layout()), "x/r layout mismatch");
    }
    assert!(
        layout.storage_cell_box().contains_box(&region.grow(1)),
        "fused region {region:?} + halo exceeds storage"
    );
    assert!(
        !region.shrink(s as i64 - 1).is_empty(),
        "region {region:?} too small for {s} fused iterations"
    );
    assert!(
        scratch.len() >= layer_scratch_len(&layout),
        "A·x scratch holds {} doubles, layout needs {}",
        scratch.len(),
        layer_scratch_len(&layout)
    );

    let mut points = 0u64;
    for k in 0..s {
        let rk = region.shrink(k as i64);
        let bricks = rk.coarsen(layout.brick_dim());
        let pass = Pass {
            layout: &layout,
            region: rk,
            bricks,
            alpha,
            beta,
            gamma,
        };
        let e = bricks.extent();
        let per_layer = (e.x * e.y) as usize * layout.brick_volume();
        let (even, odd) = scratch[..2 * per_layer].split_at_mut(per_layer);
        // Step `bz` applies the operator on layer `bz` (reading only
        // pre-update x from layers `bz−1..=bz+1`), then updates layer
        // `bz − 1`.
        for bz in bricks.lo.z..=bricks.hi.z {
            let (cur, prev) = if bz & 1 == 0 {
                (&mut *even, &*odd)
            } else {
                (&mut *odd, &*even)
            };
            if bz < bricks.hi.z {
                pass.apply_layer(x, cur, bz);
            }
            if bz > bricks.lo.z {
                pass.update_layer(x, b, r.as_deref_mut(), prev, bz - 1);
            }
        }
        points += rk.volume() as u64;
    }
    let with_residual = r.is_some();
    FusedStats {
        points_updated: points,
        points_computed: points,
        doubles_read: 2 * points,
        doubles_written: points * if with_residual { 2 } else { 1 },
        flops: points * (8 + if with_residual { 4 } else { 3 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_brick::{apply_star7_bricked, par_pointwise_mut1, par_pointwise_mut2};
    use gmg_brick::BrickOrdering;

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
    /// bit-for-bit.
    fn sweep_reference(
        x: &mut BrickedField,
        b: &BrickedField,
        r: Option<&mut BrickedField>,
        (alpha, beta, gamma): (f64, f64, f64),
        region: Box3,
        s: usize,
    ) {
        let layout = x.layout().clone();
        let mut ax = BrickedField::new(layout.clone());
        match r {
            Some(r) => {
                for k in 0..s {
                    let rk = region.shrink(k as i64);
                    apply_star7_bricked(&mut ax, x, alpha, beta, rk);
                    let pieces = layout.slots_intersecting(rk);
                    par_pointwise_mut2(x, r, &ax, b, &pieces, move |x, r, ax, b| {
                        *r = b - ax;
                        *x += gamma * (ax - b);
                    });
                }
            }
            None => {
                for k in 0..s {
                    let rk = region.shrink(k as i64);
                    apply_star7_bricked(&mut ax, x, alpha, beta, rk);
                    let pieces = layout.slots_intersecting(rk);
                    par_pointwise_mut1(x, &ax, b, &pieces, move |x, ax, b| {
                        *x += gamma * (ax - b);
                    });
                }
            }
        }
    }

    /// Everything the solver feeds the kernel: brick dims down to the 1-
    /// and 2-cell bricks of coarse two-rank levels, both slot orderings,
    /// a non-cubic subdomain, every CA region `owned.grow(m)` (clipped on
    /// all six sides for `m > 0`), every depth the margin allows, with and
    /// without the residual. `x` and `r` must match the sweep reference
    /// over the *whole* storage: cells outside `R_k` stay untouched.
    #[test]
    fn bit_identical_to_sweeps_over_whole_storage() {
        let coef = (-6.0 / 0.25, 1.0 / 0.25, 0.25 / 12.0);
        for bd in [1i64, 2, 4, 8] {
            for ordering in [BrickOrdering::SurfaceMajor, BrickOrdering::Lexicographic] {
                let layout = mk_layout(Point3::new(bd, 2 * bd, 3 * bd), bd, ordering);
                let mut scratch = vec![f64::NAN; layer_scratch_len(&layout)];
                for m in 0..bd {
                    let region = layout.cell_box().grow(m);
                    for s in 1..=bd as usize {
                        if region.shrink(s as i64 - 1).is_empty() {
                            continue;
                        }
                        for with_r in [true, false] {
                            let mut x1 = BrickedField::from_fn(layout.clone(), idx_fn);
                            let b = BrickedField::from_fn(layout.clone(), rhs_fn);
                            let mut r1 = BrickedField::from_fn(layout.clone(), |p| idx_fn(p) - 7.0);
                            let mut x2 = x1.clone();
                            let mut r2 = r1.clone();
                            sweep_reference(
                                &mut x1,
                                &b,
                                with_r.then_some(&mut r1),
                                coef,
                                region,
                                s,
                            );
                            let stats = fused_multismooth_bricked(
                                &mut x2,
                                &b,
                                with_r.then_some(&mut r2),
                                coef.0,
                                coef.1,
                                coef.2,
                                region,
                                s,
                                &mut scratch,
                            );
                            let case = format!("bd={bd} {ordering:?} m={m} s={s} r={with_r}");
                            assert_eq!(x1.as_slice(), x2.as_slice(), "x differs: {case}");
                            assert_eq!(r1.as_slice(), r2.as_slice(), "r differs: {case}");
                            let expect: u64 = (0..s)
                                .map(|k| region.shrink(k as i64).volume() as u64)
                                .sum();
                            assert_eq!(stats.points_updated, expect, "{case}");
                            assert_eq!(stats.points_computed, expect, "{case}");
                            let dpp = if with_r { 4.0 } else { 3.0 };
                            assert_eq!(stats.doubles_per_point(), dpp, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bit_identical_at_any_pool_width() {
        let coef = (-24.0, 4.0, 1.0 / 48.0);
        let layout = mk_layout(Point3::splat(16), 4, BrickOrdering::SurfaceMajor);
        let region = layout.cell_box().grow(3);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut x = BrickedField::from_fn(layout.clone(), idx_fn);
                let b = BrickedField::from_fn(layout.clone(), rhs_fn);
                let mut r = BrickedField::new(layout.clone());
                let mut scratch = vec![0.0; layer_scratch_len(&layout)];
                fused_multismooth_bricked(
                    &mut x,
                    &b,
                    Some(&mut r),
                    coef.0,
                    coef.1,
                    coef.2,
                    region,
                    4,
                    &mut scratch,
                );
                (x, r)
            })
        };
        let (x1, r1) = run(1);
        for threads in [2usize, 8] {
            let (x, r) = run(threads);
            assert_eq!(x.as_slice(), x1.as_slice(), "threads={threads}");
            assert_eq!(r.as_slice(), r1.as_slice(), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn rejects_overdeep_fusion() {
        let layout = mk_layout(Point3::splat(8), 4, BrickOrdering::SurfaceMajor);
        let mut x = BrickedField::new(layout.clone());
        let b = BrickedField::new(layout.clone());
        let mut scratch = vec![0.0; layer_scratch_len(&layout)];
        fused_multismooth_bricked(
            &mut x,
            &b,
            None,
            1.0,
            1.0,
            1.0,
            Box3::cube(8),
            20,
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "scratch")]
    fn rejects_short_scratch() {
        let layout = mk_layout(Point3::splat(8), 4, BrickOrdering::SurfaceMajor);
        let mut x = BrickedField::new(layout.clone());
        let b = BrickedField::new(layout.clone());
        fused_multismooth_bricked(&mut x, &b, None, 1.0, 1.0, 1.0, Box3::cube(8), 1, &mut []);
    }
}
