//! Distributed operator helpers: exchanges that track the
//! communication-avoiding margin, and the global convergence check.

use crate::diagnostics::LocalNorms;
use crate::level::Level;
use gmg_comm::runtime::{try_exchange_bricked, RankCtx};
use gmg_comm::CommError;

/// Exchange the ghost bricks of `level.x` along the layout's halo
/// directions (none on a level whose rank grid is 1 wide on every axis) and
/// reset the communication-avoiding margin to the full ghost depth.
pub fn exchange_x(ctx: &mut RankCtx, level: &mut Level, tag_base: u64) {
    if let Err(e) = try_exchange_x(ctx, level, tag_base) {
        panic!("comm failure: {e}");
    }
}

/// Fallible [`exchange_x`] (the elastic solve path recovers from
/// [`CommError::Parked`]). The margin only resets on success.
pub fn try_exchange_x(
    ctx: &mut RankCtx,
    level: &mut Level,
    tag_base: u64,
) -> Result<(), CommError> {
    let decomp = level.decomp.clone();
    try_exchange_bricked(ctx, &decomp, &mut level.x, tag_base)?;
    level.margin = level.ghost_cells();
    Ok(())
}

/// Exchange the ghost bricks of `level.b`. Needed once per V-cycle per
/// coarse level: restriction writes `b` on owned cells only, but
/// communication-avoiding smoothing reads `b` in the ghost shell while
/// redundantly recomputing there.
pub fn try_exchange_b(
    ctx: &mut RankCtx,
    level: &mut Level,
    tag_base: u64,
) -> Result<(), CommError> {
    let decomp = level.decomp.clone();
    try_exchange_bricked(ctx, &decomp, &mut level.b, tag_base)
}

/// Global max-norm residual at `level` (Algorithm 1's `maxNormRes`):
/// exchange, one read-only pass forming `b − A·x` in registers, and an
/// all-reduce across ranks. Writes no field.
pub fn max_norm_residual(ctx: &mut RankCtx, level: &mut Level, tag_base: u64) -> f64 {
    match try_max_norm_residual(ctx, level, tag_base) {
        Ok((r, _)) => r,
        Err(e) => panic!("comm failure: {e}"),
    }
}

/// Fallible [`max_norm_residual`], also handing back this rank's residual
/// moments from the same pass (the solver's non-finite guard reduces them
/// later, keeping its all-reduces where they were).
pub fn try_max_norm_residual(
    ctx: &mut RankCtx,
    level: &mut Level,
    tag_base: u64,
) -> Result<(f64, LocalNorms), CommError> {
    try_exchange_x(ctx, level, tag_base)?;
    let local = LocalNorms::of_residual(level);
    Ok((ctx.try_allreduce_max(local.max_abs)?, local))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PoissonProblem;
    use gmg_brick::{BrickOrdering, BrickedField};
    use gmg_comm::runtime::RankWorld;
    use gmg_mesh::{Box3, Decomposition, Point3};

    #[test]
    fn exchange_resets_margin() {
        let problem = PoissonProblem::new(16);
        let decomp = Decomposition::new(Box3::cube(16), Point3::new(2, 1, 1));
        let d = &decomp;
        let pr = &problem;
        RankWorld::run(2, move |mut ctx| {
            let mut l = Level::new(pr, d.clone(), ctx.rank(), 0, 4, BrickOrdering::SurfaceMajor);
            assert_eq!(l.margin, 0);
            exchange_x(&mut ctx, &mut l, 1);
            assert_eq!(l.margin, 4);
        });
    }

    #[test]
    fn benchmark_probe_call_sequence_still_runs() {
        // `benchmark/src/probes.rs` may not change with the layout, so the
        // calls it makes — regions reaching `ghost_cells() − 1` beyond the
        // owned box of a single-rank level, the all-halo 4-argument
        // `BrickLayout::new` and its slot queries — are a contract: they
        // run to completion, clipped to the storage shell where the level
        // has none.
        use crate::level::{interpolation_increment, restriction};
        use gmg_brick::BrickLayout;
        let fill = |p: Point3| ((p.x * 3 + p.y * 5 + p.z * 7) % 17) as f64 * 0.0625 - 0.5;
        let single = |n: i64, index: usize| {
            let problem = PoissonProblem::new(n << index);
            let decomp = Decomposition::single(Box3::cube(n));
            let mut l = Level::new(
                &problem,
                decomp,
                0,
                index,
                8.min(n),
                BrickOrdering::SurfaceMajor,
            );
            l.x = BrickedField::from_fn(l.layout.clone(), fill);
            l.b.fill(0.5);
            l
        };
        for n in [8, 32] {
            let mut l = single(n, 0);
            let owned = l.owned;
            l.apply_op(owned);
            l.smooth_residual(owned);
            let (margin, gamma) = (l.ghost_cells(), l.gamma);
            assert_eq!(margin, 8);
            let stats = l.fused_multi_smooth(owned.grow(margin - 1), 4, gamma, true);
            assert_eq!(stats.points_updated, 4 * owned.volume() as u64);
            for k in 0..4 {
                let region = owned.grow(margin - 1 - k);
                l.apply_op(region);
                l.smooth_residual(region);
            }
            assert!(l.x.as_slice().iter().all(|v| v.is_finite()));
        }
        let (mut fine, mut coarse) = (single(32, 0), single(16, 1));
        fine.r = BrickedField::from_fn(fine.layout.clone(), fill);
        coarse.x = BrickedField::from_fn(coarse.layout.clone(), fill);
        restriction(&fine, &mut coarse);
        interpolation_increment(&coarse, &mut fine);
        RankWorld::run(1, |mut ctx| {
            let mut l = single(16, 0);
            exchange_x(&mut ctx, &mut l, 32);
            assert!(max_norm_residual(&mut ctx, &mut l, 64).is_finite());
        });

        let layout = std::sync::Arc::new(BrickLayout::new(
            Box3::cube(32),
            8,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        let mut field = BrickedField::from_fn(layout.clone(), fill);
        let plus_x = Point3::new(1, 0, 0);
        let (send, ghost) = (layout.send_slots(plus_x), layout.ghost_slots(plus_x));
        assert_eq!((send.len(), ghost.len()), (16, 16));
        let mut buf = Vec::new();
        field.gather_bricks(&send, &mut buf);
        field.scatter_bricks(&ghost, &buf);
        assert_eq!(BrickLayout::contiguous_runs(&send).len(), 9);
        assert_eq!(BrickLayout::contiguous_runs(&ghost).len(), 1);
    }

    #[test]
    fn residual_of_exact_discrete_solution_is_zero() {
        // x = b/λ is the exact discrete solution of the periodic problem;
        // the distributed residual must vanish to roundoff.
        let n = 16;
        let problem = PoissonProblem::new(n);
        let decomp = Decomposition::new(Box3::cube(n), Point3::splat(2));
        let d = &decomp;
        let pr = &problem;
        let out = RankWorld::run(8, move |mut ctx| {
            let mut l = Level::new(pr, d.clone(), ctx.rank(), 0, 4, BrickOrdering::SurfaceMajor);
            let lambda = pr.discrete_eigenvalue();
            l.b =
                BrickedField::from_fn(l.layout.clone(), |p| pr.rhs(p.rem_euclid(Point3::splat(n))));
            l.x = BrickedField::from_fn(l.layout.clone(), |p| {
                pr.rhs(p.rem_euclid(Point3::splat(n))) / lambda
            });
            max_norm_residual(&mut ctx, &mut l, 2)
        });
        for r in out {
            assert!(r < 1e-10, "residual {r}");
        }
    }

    #[test]
    fn one_pass_check_matches_the_interpreter_bit_for_bit() {
        // The read-only pass must report what the residual `b − A·x`, with
        // `A·x` from the DSL interpreter over the exchanged iterate, reports
        // — bit for bit the max that enters the history, to rounding the
        // moments of the non-finite guard — at 1 and 8 ranks, without
        // writing a field.
        use gmg_stencil::interp::run_stencil;
        use gmg_stencil::ops::apply_op_def;
        let n = 16;
        let problem = PoissonProblem::new(n);
        let pr = &problem;
        for grid in [Point3::splat(1), Point3::splat(2)] {
            let decomp = Decomposition::new(Box3::cube(n), grid);
            let d = &decomp;
            let out = RankWorld::run(decomp.num_ranks(), move |mut ctx| {
                let mut l =
                    Level::new(pr, d.clone(), ctx.rank(), 0, 4, BrickOrdering::SurfaceMajor);
                let wrap = |p: Point3| p.rem_euclid(Point3::splat(n));
                l.b = BrickedField::from_fn(l.layout.clone(), |p| pr.rhs(wrap(p)));
                l.x = BrickedField::from_fn(l.layout.clone(), |p| {
                    let q = wrap(p);
                    ((q.x * 7 + q.y * 3 - q.z * 5) % 13) as f64 / 64.0
                });
                let (max, local) = try_max_norm_residual(&mut ctx, &mut l, 3).unwrap();
                for scratch in [&l.r, &l.ax] {
                    assert!(scratch.as_slice().iter().all(|v| *v == 0.0));
                }
                let mut ax = BrickedField::new(l.layout.clone());
                let coef = [l.alpha, l.beta];
                run_stencil(&apply_op_def(), &[&l.x], &coef, &mut [&mut ax], l.owned);
                let (mut ref_max, mut sum_sq, mut sum) = (0.0f64, 0.0, 0.0);
                l.owned.for_each(|p| {
                    let v = l.b.get(p) - ax.get(p);
                    (ref_max, sum_sq, sum) = (ref_max.max(v.abs()), sum_sq + v * v, sum + v);
                });
                assert_eq!(local.max_abs.to_bits(), ref_max.to_bits());
                // The sums fold per x-lane, so they agree to rounding only.
                assert!((local.sum_sq - sum_sq).abs() <= 1e-12 * sum_sq);
                assert!((local.sum - sum).abs() <= 1e-12 * sum_sq.sqrt());
                (max, ctx.allreduce_max(ref_max))
            });
            for (max, ref_max) in out {
                assert!(max > 0.0);
                assert_eq!(max.to_bits(), ref_max.to_bits(), "grid {grid:?}");
            }
        }
    }

    #[test]
    fn max_norm_residual_agrees_across_ranks() {
        let n = 16;
        let problem = PoissonProblem::new(n);
        let decomp = Decomposition::new(Box3::cube(n), Point3::new(2, 2, 1));
        let d = &decomp;
        let pr = &problem;
        let out = RankWorld::run(4, move |mut ctx| {
            let mut l = Level::new(pr, d.clone(), ctx.rank(), 0, 4, BrickOrdering::SurfaceMajor);
            l.b =
                BrickedField::from_fn(l.layout.clone(), |p| pr.rhs(p.rem_euclid(Point3::splat(n))));
            l.init_zero();
            max_norm_residual(&mut ctx, &mut l, 5)
        });
        // With x = 0, residual = b, whose global max-norm is the same on
        // every rank after the all-reduce.
        for w in out.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert!(out[0] > 0.9 && out[0] <= 1.0);
    }
}
