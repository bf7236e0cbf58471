//! What the guarded solve loop needs beyond the convergence check: the
//! residual watchdog and its health verdicts, and the recovery policy
//! vocabulary.

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
}
