//! Full multigrid (FMG / F-cycle): nested iteration.
//!
//! The paper's solver iterates V-cycles from a zero initial guess
//! (Algorithm 1) and lists "other … bottom solvers that could improve
//! time-to-solution" as future work. FMG is the classical answer: build
//! the right-hand side on *every* level, solve the coarsest problem first,
//! and interpolate each level's solution up as the next finer level's
//! initial guess, running a small fixed number of V-cycles per level. One
//! FMG pass reaches discretization-level accuracy in O(N) work.

use crate::level::{interpolation_increment, restrict_field};
use crate::ops::exchange_b;
use crate::solver::{GmgSolver, SolveStats};
use gmg_comm::runtime::RankCtx;
use std::time::Instant;

impl GmgSolver {
    /// Restrict the right-hand side down the whole hierarchy (volume
    /// averaging, the same operator as residual restriction).
    fn restrict_rhs_all_levels(&mut self, ctx: &mut RankCtx) {
        let top = self.config.num_levels - 1;
        for l in 0..top {
            let (fine, coarse) = self.levels.split_at_mut(l + 1);
            restrict_field(&fine[l].b, &mut coarse[0]);
            if self.config.communication_avoiding {
                let tag = self.next_tag();
                exchange_b(ctx, &mut self.levels[l + 1], tag);
            }
        }
    }

    /// Full-multigrid solve: nested iteration with `cycles_per_level`
    /// V-cycles of post-refinement smoothing at each level, then the
    /// guarded Algorithm 1 loop of [`GmgSolver::solve`] from the FMG
    /// iterate until the tolerance is met (usually zero or one extra
    /// cycle) — health guards, recovery policy, hooks and timer rows
    /// included.
    pub fn fmg_solve(&mut self, ctx: &mut RankCtx, cycles_per_level: usize) -> SolveStats {
        let t_start = Instant::now();
        let top = self.config.num_levels - 1;
        self.restrict_rhs_all_levels(ctx);

        // Coarsest level: relax from zero.
        self.levels[top].init_zero();
        self.bottom_solve(ctx);

        // Walk up: prolong the coarse solution as the finer level's
        // initial guess, then deepen it with V-cycles *rooted at that
        // level* (the classical F-cycle shape).
        for l in (0..top).rev() {
            self.levels[l].init_zero();
            let (fine, coarse) = self.levels.split_at_mut(l + 1);
            interpolation_increment(&coarse[0], &mut fine[l]);
            for _ in 0..cycles_per_level {
                self.cycle_at(ctx, l);
            }
        }

        self.solve_cycles(ctx, None, None, t_start)
            .unwrap_or_else(|e| panic!("comm failure: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use crate::diagnostics::SolveHealth;
    use crate::level::Level;
    use crate::solver::{GmgSolver, SolverConfig};
    use gmg_brick::BrickedField;
    use gmg_comm::runtime::RankWorld;
    use gmg_mesh::{Box3, Decomposition, Point3};

    fn cfg() -> SolverConfig {
        SolverConfig {
            num_levels: 3,
            max_smooths: 6,
            bottom_smooths: 60,
            tolerance: 1e-9,
            max_vcycles: 30,
            ..SolverConfig::test_default()
        }
    }

    #[test]
    fn fmg_initial_residual_beats_zero_guess() {
        // After the FMG walk-up (before any Algorithm-1 cycle), the
        // residual must already be far below |b| = 1 — nested iteration
        // pays for itself.
        let decomp = Decomposition::single(Box3::cube(32));
        let d = &decomp;
        let out = RankWorld::run(1, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg());
            let stats = s.fmg_solve(&mut ctx, 1);
            stats.residual_history[0]
        });
        // With the paper's piecewise-constant (O(h)) interpolation the
        // FMG interpolant is modest but still an order of magnitude ahead
        // of the zero guess (|r0| = |b| = 1).
        assert!(out[0] < 0.2, "FMG initial residual {}", out[0]);
    }

    #[test]
    fn fmg_converges_in_fewer_cycles_than_plain() {
        let decomp = Decomposition::single(Box3::cube(32));
        let d = &decomp;
        let (fmg_cycles, plain_cycles) = RankWorld::run(1, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg());
            let fmg = s.fmg_solve(&mut ctx, 1);
            assert!(fmg.converged);
            let mut s2 = GmgSolver::new(d.clone(), ctx.rank(), cfg());
            let plain = s2.solve(&mut ctx);
            assert!(plain.converged);
            (fmg.vcycles, plain.vcycles)
        })
        .remove(0);
        assert!(
            fmg_cycles < plain_cycles,
            "FMG {fmg_cycles} cycles vs plain {plain_cycles}"
        );
    }

    #[test]
    fn fmg_reaches_discrete_solution_distributed() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let d = &decomp;
        let out = RankWorld::run(8, move |mut ctx| {
            let mut c = cfg();
            c.num_levels = 2;
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), c);
            let stats = s.fmg_solve(&mut ctx, 1);
            (stats.converged, s.max_error_vs_discrete())
        });
        for (converged, err) in out {
            assert!(converged);
            assert!(err < 1e-8, "error {err}");
        }
    }

    #[test]
    fn fmg_finishing_cycles_run_the_guarded_loop() {
        // The cycles after the walk-up are the solve loop's own: the fault
        // hook fires, a NaN it plants in one cell stops the solve at that
        // cycle through the non-finite guard, and every convergence check
        // lands in the level-0 `residualNorm` row.
        let decomp = Decomposition::single(Box3::cube(32));
        let d = &decomp;
        RankWorld::run(1, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg());
            s.fault_hook = Some(Box::new(|cycle, level: &mut Level| {
                if cycle == 2 {
                    let (target, old) = (level.owned.lo, level.x.clone());
                    level.x = BrickedField::from_fn(level.layout.clone(), move |p| {
                        if p == target {
                            f64::NAN
                        } else {
                            old.get(p)
                        }
                    });
                }
            }));
            let stats = s.fmg_solve(&mut ctx, 1);
            assert_eq!(stats.health, SolveHealth::NonFinite);
            assert!(!stats.converged);
            assert_eq!(stats.vcycles, 2, "must stop at the poisoned cycle");
            assert_eq!(s.timers.count(0, "residualNorm"), stats.vcycles + 1);
        });
    }
}
