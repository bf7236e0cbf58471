//! What the guarded solve loop needs beyond the max-norm: the summing
//! residual norms that expose non-finite cells, the residual watchdog and
//! its health verdicts, and the recovery policy vocabulary.

use crate::level::Level;
use gmg_comm::runtime::RankCtx;
use gmg_stencil::exec_brick::residual_norms_bricked;

/// Norms of a field over this rank's owned region (combine across ranks
/// with the matching all-reduce).
#[derive(Clone, Copy, Debug)]
pub struct LocalNorms {
    /// Σ v².
    pub sum_sq: f64,
    /// max |v|.
    pub max_abs: f64,
    /// Σ v (for mean / conservation checks).
    pub sum: f64,
    /// Cell count.
    pub cells: usize,
}

impl LocalNorms {
    /// True when every accumulated moment is finite. The summing moments
    /// (`sum_sq`, `sum`) propagate NaN, so this catches non-finite cells
    /// that a `max`-reduction silently drops (`f64::max(NaN, x) = x`).
    pub fn is_finite(&self) -> bool {
        self.sum_sq.is_finite() && self.max_abs.is_finite() && self.sum.is_finite()
    }

    /// Norms of the residual `b − A·x` of `level`'s current iterate over
    /// its owned cells, in one read-only pass (no field is written; `x`
    /// must be valid one cell beyond the owned box).
    pub fn of_residual(level: &Level) -> Self {
        debug_assert!(level.margin >= 1, "x is stale in the ghost shell");
        let (max_abs, sum_sq, sum) =
            residual_norms_bricked(&level.x, &level.b, level.alpha, level.beta, level.owned);
        Self {
            sum_sq,
            max_abs,
            sum,
            cells: level.owned.volume(),
        }
    }

    /// Combine this rank's norms with the rest of the world. A world with
    /// zero cells total (e.g. norms of an empty region) yields zeroed
    /// norms rather than NaN from the 0/0 division.
    pub fn global(self, ctx: &mut RankCtx) -> GlobalNorms {
        match self.try_global(ctx) {
            Ok(g) => g,
            Err(e) => panic!("comm failure: {e}"),
        }
    }

    /// Fallible [`LocalNorms::global`] for elastic solvers that must
    /// survive a mid-reduction membership park.
    pub fn try_global(self, ctx: &mut RankCtx) -> Result<GlobalNorms, gmg_comm::CommError> {
        let sum_sq = ctx.try_allreduce_sum(self.sum_sq)?;
        let max_abs = ctx.try_allreduce_max(self.max_abs)?;
        let sum = ctx.try_allreduce_sum(self.sum)?;
        let cells = ctx.try_allreduce_sum(self.cells as f64)?;
        Ok(Self::combine(sum_sq, max_abs, sum, cells))
    }

    fn combine(sum_sq: f64, max_abs: f64, sum: f64, cells: f64) -> GlobalNorms {
        if cells == 0.0 {
            return GlobalNorms {
                l2: 0.0,
                max: 0.0,
                mean: 0.0,
            };
        }
        GlobalNorms {
            l2: (sum_sq / cells).sqrt(),
            max: max_abs,
            mean: sum / cells,
        }
    }
}

/// Domain-wide norms.
#[derive(Clone, Copy, Debug)]
pub struct GlobalNorms {
    /// RMS (discrete L2) norm.
    pub l2: f64,
    /// Max norm (the paper's convergence criterion).
    pub max: f64,
    /// Mean value — must stay ~0 for the periodic Poisson problem
    /// (conservation of the compatible right-hand side).
    pub mean: f64,
}

impl GlobalNorms {
    /// True when every norm is finite (see [`LocalNorms::is_finite`]).
    pub fn is_finite(&self) -> bool {
        self.l2.is_finite() && self.max.is_finite() && self.mean.is_finite()
    }
}

/// Health verdict of the solve loop's guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveHealth {
    /// Residuals finite, no divergence detected.
    Healthy,
    /// The residual grew past the divergence threshold.
    Diverged,
    /// A non-finite (NaN/∞) residual or field appeared.
    NonFinite,
}

impl SolveHealth {
    /// True for any unhealthy verdict — a NaN residual *is* divergence as
    /// far as the caller is concerned.
    pub fn is_diverged(self) -> bool {
        !matches!(self, SolveHealth::Healthy)
    }
}

/// What the solver does when its health guards trip mid-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Stop immediately; the returned [`crate::SolveStats`] carry the
    /// verdict and the offending residual history as diagnostics. The
    /// iterate is left as found (possibly poisoned).
    Abort,
    /// Keep an in-memory [`crate::SolverCheckpoint`] of the best iterate
    /// (refreshed on every cycle that improves on it); on a verdict,
    /// restore it, strengthen the smoother, and retry. Once the rollback
    /// budget is spent, the next verdict restores the best iterate and
    /// stops there (converged = false, health = the verdict).
    Rollback,
    /// Elastic multi-process mode: the solve writes a durable per-cycle
    /// checkpoint (see [`crate::rejoin`]) and, when the membership
    /// controller parks the world after a rank death, restores the
    /// world-agreed cycle and resumes — bit-identically to an unfaulted
    /// run. Health verdicts (divergence, non-finite) still abort: those
    /// are numerical faults a respawn cannot fix. Outside a membership
    /// world this policy behaves exactly like [`RecoveryPolicy::Abort`].
    Rejoin,
}

/// Streaming residual watchdog for the solve loop: feed each global
/// residual in as it is measured; reports the first unhealthy verdict.
/// All inputs must already be globally reduced so that every rank sees the
/// identical sequence and reaches the identical verdict.
#[derive(Clone, Debug)]
pub struct HealthMonitor {
    best: f64,
    growth_streak: usize,
}

impl HealthMonitor {
    /// Residual growth beyond this factor × best-so-far is a blow-up.
    const DIVERGENCE_FACTOR: f64 = 1e4;
    /// Consecutive growing cycles tolerated before declaring divergence.
    const PATIENCE: usize = 3;

    /// Watchdog primed with the initial residual.
    pub fn new(r0: f64) -> Self {
        Self {
            best: if r0.is_finite() { r0 } else { f64::INFINITY },
            growth_streak: 0,
        }
    }

    /// Best (smallest) residual observed so far.
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Feed one globally-reduced residual; returns the verdict.
    pub fn observe(&mut self, r: f64) -> SolveHealth {
        if !r.is_finite() {
            return SolveHealth::NonFinite;
        }
        if r > self.best * Self::DIVERGENCE_FACTOR {
            return SolveHealth::Diverged;
        }
        if r > self.best {
            self.growth_streak += 1;
            if self.growth_streak > Self::PATIENCE {
                return SolveHealth::Diverged;
            }
        } else {
            self.best = r;
            self.growth_streak = 0;
        }
        SolveHealth::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{GmgSolver, SolverConfig};
    use gmg_comm::runtime::RankWorld;
    use gmg_mesh::{Box3, Decomposition, Point3};

    #[test]
    fn norm_finiteness_guards() {
        let mut n = LocalNorms {
            sum_sq: 1.0,
            max_abs: 1.0,
            sum: 0.0,
            cells: 8,
        };
        assert!(n.is_finite());
        n.sum_sq = f64::NAN;
        assert!(!n.is_finite());
        let g = GlobalNorms {
            l2: f64::INFINITY,
            max: 1.0,
            mean: 0.0,
        };
        assert!(!g.is_finite());
    }

    #[test]
    fn health_monitor_verdicts() {
        let mut m = HealthMonitor::new(1.0);
        assert_eq!(m.observe(0.5), SolveHealth::Healthy);
        assert_eq!(m.best(), 0.5);
        // A few growing cycles are tolerated (patience 3)…
        assert_eq!(m.observe(0.6), SolveHealth::Healthy);
        assert_eq!(m.observe(0.7), SolveHealth::Healthy);
        assert_eq!(m.observe(0.65), SolveHealth::Healthy);
        // …but the fourth consecutive growth is divergence.
        assert_eq!(m.observe(0.66), SolveHealth::Diverged);
        // An improvement resets the streak.
        let mut m = HealthMonitor::new(1.0);
        assert_eq!(m.observe(2.0), SolveHealth::Healthy);
        assert_eq!(m.observe(0.5), SolveHealth::Healthy);
        assert_eq!(m.observe(0.6), SolveHealth::Healthy);
        // Blow-up past the divergence factor trips immediately.
        assert_eq!(m.observe(0.5 * 1e5), SolveHealth::Diverged);
        // NaN trips regardless of history.
        let mut m = HealthMonitor::new(1.0);
        assert_eq!(m.observe(f64::NAN), SolveHealth::NonFinite);
    }

    #[test]
    fn global_norms_of_zero_cells_are_zero_not_nan() {
        let out = RankWorld::run(2, |mut ctx| {
            let n = LocalNorms {
                sum_sq: 0.0,
                max_abs: 0.0,
                sum: 0.0,
                cells: 0,
            };
            n.global(&mut ctx)
        });
        for g in out {
            assert_eq!(g.l2, 0.0);
            assert_eq!(g.max, 0.0);
            assert_eq!(g.mean, 0.0);
            assert!(!g.l2.is_nan() && !g.mean.is_nan());
        }
    }

    #[test]
    fn global_norms_of_initial_residual() {
        let decomp = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let d = &decomp;
        let out = RankWorld::run(8, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), SolverConfig::test_default());
            // x = 0 → r = b after one residual evaluation.
            let tag = 999;
            crate::ops::max_norm_residual(&mut ctx, &mut s.levels[0], tag);
            LocalNorms::of_residual(&s.levels[0]).global(&mut ctx)
        });
        for g in out {
            // b is the unit separable sine: max ≈ 1 (cell-centered), zero
            // mean, L2 = (1/2)^{3/2} ≈ 0.354 for the product of sines.
            assert!(g.max > 0.9 && g.max <= 1.0);
            assert!(g.mean.abs() < 1e-12);
            assert!((g.l2 - 0.3536).abs() < 0.02, "L2 {}", g.l2);
        }
    }
}
