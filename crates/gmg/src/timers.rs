//! Per-level, per-operation timing instrumentation.
//!
//! The artifact's output format is
//! `level 0 applyOp [min, avg, max] (σ: ...)` across ranks; [`OpTimer`]
//! accumulates per-rank totals and [`TimerReport`] aggregates them across
//! the rank world.

use gmg_comm::runtime::RankCtx;
use std::collections::BTreeMap;
use std::fmt;

/// Accumulates `(level, op) → (total seconds, invocations)` on one rank.
#[derive(Clone, Debug, Default)]
pub struct OpTimer {
    acc: BTreeMap<(usize, &'static str), (f64, usize)>,
}

impl OpTimer {
    /// A fresh timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `secs` for one invocation of `op` at `level`.
    pub fn record(&mut self, level: usize, op: &'static str, secs: f64) {
        let e = self.acc.entry((level, op)).or_insert((0.0, 0));
        e.0 += secs;
        e.1 += 1;
    }

    /// Close `guard` and book its seconds under the `(level, op)` it was
    /// opened with — the one measurement every observability sink was
    /// just fed, so trace-derived per-op fractions agree with
    /// [`TimerReport::level_fractions`] by construction.
    pub fn close(&mut self, guard: gmg_trace::probe::Guard) -> f64 {
        let (level, op) = guard.key();
        let secs = guard.finish();
        self.record(level.expect("op guards carry a level"), op, secs);
        secs
    }

    /// Total seconds recorded for `(level, op)`.
    pub fn total(&self, level: usize, op: &str) -> f64 {
        self.acc
            .iter()
            .filter(|((l, o), _)| *l == level && *o == op)
            .map(|(_, (t, _))| t)
            .sum()
    }

    /// Invocation count for `(level, op)`.
    pub fn count(&self, level: usize, op: &str) -> usize {
        self.acc
            .iter()
            .filter(|((l, o), _)| *l == level && *o == op)
            .map(|(_, (_, c))| c)
            .sum()
    }

    /// Total seconds at `level` over all ops.
    pub fn level_total(&self, level: usize) -> f64 {
        self.acc
            .iter()
            .filter(|((l, _), _)| *l == level)
            .map(|(_, (t, _))| t)
            .sum()
    }

    /// All `(level, op)` keys in deterministic order.
    pub fn keys(&self) -> Vec<(usize, &'static str)> {
        self.acc.keys().cloned().collect()
    }

    /// Aggregate this rank's timings with every other rank's into a
    /// [`TimerReport`] (all ranks must call this collectively with
    /// identical key sets — guaranteed by the deterministic schedule).
    pub fn aggregate(&self, ctx: &mut RankCtx) -> TimerReport {
        let n = ctx.nranks() as f64;
        let mut rows = Vec::with_capacity(self.acc.len());
        for ((level, op), (t, c)) in &self.acc {
            let min = -ctx.allreduce_max(-*t);
            let max = ctx.allreduce_max(*t);
            let sum = ctx.allreduce_sum(*t);
            let sumsq = ctx.allreduce_sum(t * t);
            let avg = sum / n;
            let var = (sumsq / n - avg * avg).max(0.0);
            rows.push(TimerRow {
                level: *level,
                op: op.to_string(),
                min_s: min,
                avg_s: avg,
                max_s: max,
                sigma_s: var.sqrt(),
                invocations: *c,
            });
        }
        TimerReport { rows }
    }
}

/// One aggregated row: min/avg/max and σ of total seconds across ranks.
#[derive(Clone, Debug)]
pub struct TimerRow {
    pub level: usize,
    pub op: String,
    pub min_s: f64,
    pub avg_s: f64,
    pub max_s: f64,
    pub sigma_s: f64,
    pub invocations: usize,
}

/// Cross-rank timing report in the artifact's output format.
#[derive(Clone, Debug)]
pub struct TimerReport {
    pub rows: Vec<TimerRow>,
}

impl TimerReport {
    /// Rows for one level.
    pub fn level(&self, level: usize) -> impl Iterator<Item = &TimerRow> {
        self.rows.iter().filter(move |r| r.level == level)
    }

    /// Average total time across ops at `level`.
    pub fn level_total_avg(&self, level: usize) -> f64 {
        self.level(level).map(|r| r.avg_s).sum()
    }

    /// Fraction of a level's time spent in each op (the paper's Table II
    /// for level 0).
    pub fn level_fractions(&self, level: usize) -> Vec<(String, f64)> {
        let total = self.level_total_avg(level);
        self.level(level)
            .map(|r| {
                (
                    r.op.clone(),
                    if total > 0.0 { r.avg_s / total } else { 0.0 },
                )
            })
            .collect()
    }
}

impl fmt::Display for TimerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.rows {
            writeln!(
                f,
                "level {} {} [{:.6}, {:.6}, {:.6}] (σ: {:.3e})",
                r.level, r.op, r.min_s, r.avg_s, r.max_s, r.sigma_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_comm::runtime::RankWorld;

    #[test]
    fn record_and_totals() {
        let mut t = OpTimer::new();
        t.record(0, "applyOp", 0.5);
        t.record(0, "applyOp", 0.25);
        t.record(0, "exchange", 1.0);
        t.record(1, "applyOp", 2.0);
        assert_eq!(t.total(0, "applyOp"), 0.75);
        assert_eq!(t.count(0, "applyOp"), 2);
        assert_eq!(t.level_total(0), 1.75);
        assert_eq!(t.level_total(1), 2.0);
        assert_eq!(t.keys().len(), 3);
    }

    #[test]
    fn aggregate_across_ranks() {
        let reports = RankWorld::run(4, |mut ctx| {
            let mut t = OpTimer::new();
            // Rank r records (r+1) seconds.
            t.record(0, "applyOp", (ctx.rank() + 1) as f64);
            t.aggregate(&mut ctx)
        });
        for rep in reports {
            assert_eq!(rep.rows.len(), 1);
            let r = &rep.rows[0];
            assert_eq!(r.min_s, 1.0);
            assert_eq!(r.max_s, 4.0);
            assert_eq!(r.avg_s, 2.5);
            // σ of {1,2,3,4} = sqrt(1.25).
            assert!((r.sigma_s - 1.25f64.sqrt()).abs() < 1e-12);
        }
    }

    #[test]
    fn fractions_sum_to_one() {
        let reports = RankWorld::run(2, |mut ctx| {
            let mut t = OpTimer::new();
            t.record(0, "applyOp", 1.0);
            t.record(0, "smooth+residual", 2.0);
            t.record(0, "exchange", 1.0);
            t.aggregate(&mut ctx)
        });
        let fr = reports[0].level_fractions(0);
        let total: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        let sr = fr.iter().find(|(op, _)| op == "smooth+residual").unwrap();
        assert!((sr.1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        let rep = TimerReport {
            rows: vec![TimerRow {
                level: 0,
                op: "applyOp".into(),
                min_s: 0.265012,
                avg_s: 0.265184,
                max_s: 0.265346,
                sigma_s: 9.20184e-5,
                invocations: 144,
            }],
        };
        let s = rep.to_string();
        assert!(s.contains("level 0 applyOp [0.265012, 0.265184, 0.265346]"));
        assert!(s.contains("σ"));
    }
}
