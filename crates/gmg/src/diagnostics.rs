//! Solver diagnostics: norms beyond the max-norm, convergence-history
//! analysis, solver health classification (divergence and non-finite
//! detection plus the recovery policy vocabulary), and work-unit
//! accounting (the "how many fine-grid sweeps did this cost" bookkeeping
//! multigrid papers report).

use crate::level::Level;
use crate::solver::{SolveStats, SolverConfig};
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

/// Health classification of an iterate or a residual history.
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

    /// Classify a whole residual history after the fact: non-finite
    /// entries dominate, then growth past the default divergence factor
    /// relative to the best residual seen up to that point.
    pub fn classify(history: &[f64]) -> Self {
        if history.iter().any(|r| !r.is_finite()) {
            return SolveHealth::NonFinite;
        }
        let mut best = f64::INFINITY;
        for &r in history {
            if r > best * HealthMonitor::DEFAULT_DIVERGENCE_FACTOR {
                return SolveHealth::Diverged;
            }
            best = best.min(r);
        }
        SolveHealth::Healthy
    }
}

/// What the solver does when its health guards trip mid-solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Stop immediately; the returned [`SolveStats`] carry the verdict and
    /// the offending residual history as diagnostics. The iterate is left
    /// as found (possibly poisoned).
    Abort,
    /// Roll back to the last periodic in-memory checkpoint, strengthen the
    /// smoother, and retry — up to `max_recoveries` times, after which the
    /// solve degrades to [`RecoveryPolicy::BestIterate`] behavior.
    Rollback,
    /// Restore the best checkpointed iterate and return it gracefully
    /// (converged = false, health = the verdict).
    BestIterate,
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
    divergence_factor: f64,
    patience: usize,
}

impl HealthMonitor {
    /// Residual growth beyond this factor × best-so-far is a blow-up.
    pub const DEFAULT_DIVERGENCE_FACTOR: f64 = 1e4;
    /// Consecutive growing cycles tolerated before declaring divergence.
    pub const DEFAULT_PATIENCE: usize = 3;

    /// Watchdog primed with the initial residual.
    pub fn new(r0: f64) -> Self {
        Self::with_thresholds(r0, Self::DEFAULT_DIVERGENCE_FACTOR, Self::DEFAULT_PATIENCE)
    }

    /// Watchdog with explicit thresholds (for tests and tuning).
    pub fn with_thresholds(r0: f64, divergence_factor: f64, patience: usize) -> Self {
        Self {
            best: if r0.is_finite() { r0 } else { f64::INFINITY },
            growth_streak: 0,
            divergence_factor,
            patience,
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
        if r > self.best * self.divergence_factor {
            return SolveHealth::Diverged;
        }
        if r > self.best {
            self.growth_streak += 1;
            if self.growth_streak > self.patience {
                return SolveHealth::Diverged;
            }
        } else {
            self.best = r;
            self.growth_streak = 0;
        }
        SolveHealth::Healthy
    }
}

/// Analysis of a residual history.
#[derive(Clone, Debug)]
pub struct ConvergenceReport {
    /// Reduction factor per cycle.
    pub factors: Vec<f64>,
    /// Geometric mean of the factors.
    pub mean_factor: f64,
    /// The asymptotic (last-cycle) factor — the quantity multigrid theory
    /// bounds.
    pub asymptotic_factor: f64,
    /// Estimated cycles to gain one decimal digit asymptotically.
    pub cycles_per_digit: f64,
    /// Health classification of the history (NaN residuals report as
    /// diverged rather than silently skewing the factor statistics).
    pub health: SolveHealth,
}

impl ConvergenceReport {
    /// Analyze a residual-history vector (e.g.
    /// [`SolveStats::residual_history`]).
    pub fn from_history(history: &[f64]) -> Self {
        assert!(history.len() >= 2, "need at least two residuals");
        let factors: Vec<f64> = history
            .windows(2)
            .map(|w| if w[0] > 0.0 { w[1] / w[0] } else { 0.0 })
            .collect();
        // Geometric mean via Σ ln: the direct product underflows to zero
        // for long histories (e.g. 400 factors of 0.1 is 1e-400 < f64 min).
        // NaN factors (from a non-finite residual) are routed here too,
        // instead of poisoning the ln-sum.
        let mean_factor = if factors.iter().any(|f| f.is_nan() || *f <= 0.0) {
            0.0
        } else {
            let ln_sum: f64 = factors.iter().map(|f| f.ln()).sum();
            (ln_sum / factors.len() as f64).exp()
        };
        let asymptotic_factor = *factors.last().expect("non-empty");
        let cycles_per_digit = if asymptotic_factor > 0.0 && asymptotic_factor < 1.0 {
            -1.0 / asymptotic_factor.log10()
        } else {
            f64::INFINITY
        };
        Self {
            factors,
            mean_factor,
            asymptotic_factor,
            cycles_per_digit,
            health: SolveHealth::classify(history),
        }
    }

    /// Convenience over a whole solve.
    pub fn of(stats: &SolveStats) -> Self {
        Self::from_history(&stats.residual_history)
    }
}

/// Work units (fine-grid-sweep equivalents) per cycle of a configuration —
/// the standard multigrid cost accounting: one WU = one operator sweep of
/// the finest grid; level l costs 8^{-l} WU per sweep.
pub fn work_units_per_cycle(config: &SolverConfig) -> f64 {
    let smooths = config.max_smooths as f64;
    let apply_per_smooth = config.smoother.apply_ops_per_iteration() as f64;
    let gamma = config.cycle_gamma.max(1) as f64;
    let mut wu = 0.0;
    let top = config.num_levels - 1;
    // Level l is visited γ^l times per cycle.
    for l in 0..top {
        let visits = gamma.powi(l as i32);
        let per_visit = 2.0 * smooths * (1.0 + apply_per_smooth); // pre+post, applyOp+update
        wu += visits * per_visit / 8f64.powi(l as i32);
    }
    let bottom_visits = gamma.powi(top as i32);
    wu += bottom_visits * config.bottom_smooths as f64 * (1.0 + apply_per_smooth)
        / 8f64.powi(top as i32);
    wu
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoother::Smoother;
    use crate::solver::GmgSolver;
    use gmg_comm::runtime::RankWorld;
    use gmg_mesh::{Box3, Decomposition, Point3};

    #[test]
    fn convergence_report_math() {
        let r = ConvergenceReport::from_history(&[1.0, 0.1, 0.01, 0.001]);
        for f in &r.factors {
            assert!((f - 0.1).abs() < 1e-12);
        }
        assert!((r.mean_factor - 0.1).abs() < 1e-12);
        assert!((r.asymptotic_factor - 0.1).abs() < 1e-12);
        assert!((r.cycles_per_digit - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_residual_reports_as_diverged() {
        // A NaN in the history must classify as unhealthy and keep the
        // factor statistics finite instead of poisoning them.
        let r = ConvergenceReport::from_history(&[1.0, 0.1, f64::NAN]);
        assert_eq!(r.health, SolveHealth::NonFinite);
        assert!(r.health.is_diverged());
        assert_eq!(r.mean_factor, 0.0);
        // A finite blow-up classifies as Diverged.
        let r = ConvergenceReport::from_history(&[1.0, 0.1, 1e7]);
        assert_eq!(r.health, SolveHealth::Diverged);
        // A well-behaved history stays healthy.
        let r = ConvergenceReport::from_history(&[1.0, 0.1, 0.01]);
        assert_eq!(r.health, SolveHealth::Healthy);
        assert!(!r.health.is_diverged());
    }

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
    fn stalled_history_reports_infinite_digits() {
        let r = ConvergenceReport::from_history(&[1.0, 1.0]);
        assert!(r.cycles_per_digit.is_infinite());
    }

    #[test]
    fn long_history_geometric_mean_does_not_underflow() {
        // 308 cycles at a factor of 0.1 drive the naive factor product to
        // the f64 subnormal boundary (1e-308); the ln-sum formulation must
        // still report the true mean factor. (Residuals can't go further:
        // 10^-309 itself rounds to zero, so a longer history would contain
        // artificial zeros and correctly classify as exact convergence.)
        let history: Vec<f64> = (0..=308).map(|i| 10f64.powi(-i)).collect();
        let r = ConvergenceReport::from_history(&history);
        assert!(
            (r.mean_factor - 0.1).abs() < 1e-12,
            "mean factor {}",
            r.mean_factor
        );
        // A zero factor (exact convergence) still yields a zero mean.
        let r0 = ConvergenceReport::from_history(&[1.0, 0.5, 0.0]);
        assert_eq!(r0.mean_factor, 0.0);
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
    fn work_units_scale_with_cycle_gamma() {
        let v = SolverConfig {
            cycle_gamma: 1,
            ..SolverConfig::paper_default()
        };
        let w = SolverConfig {
            cycle_gamma: 2,
            ..SolverConfig::paper_default()
        };
        let wu_v = work_units_per_cycle(&v);
        let wu_w = work_units_per_cycle(&w);
        assert!(wu_w > wu_v);
        // In 3D the W-cycle stays O(1) work per cycle (γ/8 < 1): well under
        // 2× the V-cycle.
        assert!(wu_w < 2.0 * wu_v, "{wu_w} vs {wu_v}");
        // Red-black GS doubles the operator applications.
        let gs = SolverConfig {
            smoother: Smoother::RedBlackGaussSeidel,
            ..SolverConfig::paper_default()
        };
        assert!(work_units_per_cycle(&gs) > wu_v);
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
