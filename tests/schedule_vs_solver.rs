//! Model vs solver: the V-cycle schedule the performance simulators walk
//! (`gmg_stencil::VcycleSchedule`) against what the real solvers execute.
//! Per level, one V-cycle must issue exactly the exchanges the walker
//! yields and smooth exactly the cells it counts.

use gmg_repro::hpgmg::HpgmgSolver;
use gmg_repro::prelude::*;
use gmg_repro::stencil::{OpKind, VcycleSchedule, VcycleShape, VcycleStep};
use gmg_repro::trace::{Trace, Track};

/// The bricked solver's timer rows that update `x`: the one-pass smoother
/// with communication avoiding, the split pair's second half without.
const SMOOTH_OPS: [&str; 3] = ["fusedSmooth", "smooth", "smooth+residual"];

/// Per level: `(exchanges, cells smoothed)`.
type Tally = Vec<(usize, u64)>;

fn walker_tally(shape: VcycleShape) -> Tally {
    let mut tally = vec![(0, 0); shape.extents.len()];
    VcycleSchedule::new(shape).vcycle(|step| match step {
        VcycleStep::Exchange { level } => tally[level].0 += 1,
        VcycleStep::Kernel {
            level,
            op: OpKind::Smooth | OpKind::SmoothResidual,
            points,
        } => tally[level].1 += points as u64,
        _ => {}
    });
    tally
}

/// The same tally from rank 0's compute track: `exchange` spans, and the
/// `stencil_points` of the spans that update `x`.
fn traced_tally(trace: &Trace, levels: usize, smooth_ops: &[&str]) -> Tally {
    let mut tally = vec![(0, 0); levels];
    for e in trace.track_events(0, Track::Compute) {
        if e.op.name() == "exchange" {
            tally[e.level].0 += 1;
        } else if smooth_ops.contains(&e.op.name()) {
            tally[e.level].1 += e.counters.stencil_points;
        }
    }
    tally
}

#[test]
fn gmg_solver_vcycle_executes_the_walker_schedule() {
    // The one field that shapes the schedule rather than its counts:
    // with it the solver runs the one-pass smoother, without it the
    // split `applyOp` + `smooth(+residual)` pair behind an exchange
    // before every smooth.
    for (communication_avoiding, max_smooths, bottom_smooths) in
        [(true, 12, 100), (false, 12, 100), (true, 9, 49)]
    {
        let cfg = SolverConfig {
            communication_avoiding,
            max_smooths,
            bottom_smooths,
            ..SolverConfig::paper_default()
        };
        for grid in [Point3::splat(1), Point3::new(2, 1, 1), Point3::new(2, 2, 1)] {
            let decomp = Decomposition::new(Box3::cube(64), grid);
            let d = &decomp;
            let (shapes, trace) = gmg_repro::trace::capture(|| {
                RankWorld::run(decomp.num_ranks(), move |mut ctx| {
                    let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                    s.vcycle(&mut ctx);
                    VcycleShape {
                        extents: s.levels.iter().map(|l| l.owned.extent()).collect(),
                        ghost_depth: s.levels.iter().map(|l| l.ghost_cells()).collect(),
                        halo_axes: s.levels[0].layout.wrap().map(|w| !w),
                        smooths: cfg.max_smooths,
                        bottom_smooths: cfg.bottom_smooths,
                        communication_avoiding: cfg.communication_avoiding,
                    }
                })
            });
            let shape = shapes[0].clone();
            // The solver's hierarchy is the one every simulator assumes, with
            // a halo only where the rank grid has a neighbor to offer.
            assert_eq!(
                shape,
                VcycleShape {
                    halo_axes: [0, 1, 2].map(|a| grid[a] > 1),
                    ..VcycleShape::halving(
                        decomp.sub_extent(),
                        cfg.num_levels,
                        cfg.brick_dim,
                        cfg.max_smooths,
                        cfg.bottom_smooths,
                        cfg.communication_avoiding,
                    )
                }
            );
            let tally = walker_tally(shape);
            if grid == Point3::splat(1) {
                assert!(tally.iter().all(|t| t.0 == 0), "no halo, no exchange");
            }
            assert_eq!(
                traced_tally(&trace, cfg.num_levels, &SMOOTH_OPS),
                tally,
                "rank grid {grid:?}, communication avoiding {communication_avoiding}"
            );
        }
    }
}

#[test]
fn hpgmg_solver_vcycle_executes_the_exchange_every_smooth_schedule() {
    let (levels, smooths, bottom) = (4, 12, 100);
    for grid in [Point3::splat(1), Point3::new(2, 1, 1)] {
        let decomp = Decomposition::new(Box3::cube(32), grid);
        let d = &decomp;
        let (_, trace) = gmg_repro::trace::capture(|| {
            RankWorld::run(decomp.num_ranks(), move |mut ctx| {
                HpgmgSolver::new(d.clone(), ctx.rank(), levels, smooths, bottom, 0.0, 1)
                    .solve(&mut ctx)
            })
        });
        let mut expect = walker_tally(VcycleShape::halving(
            decomp.sub_extent(),
            levels,
            1,
            smooths,
            bottom,
            false,
        ));
        // `solve` brackets its one V-cycle with two residual checks, each
        // of which exchanges the finest level once.
        expect[0].0 += 2;
        assert_eq!(
            traced_tally(&trace, levels, &["smooth", "smooth+residual"]),
            expect,
            "rank grid {grid:?}"
        );
    }
}
