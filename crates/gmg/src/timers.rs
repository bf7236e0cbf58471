//! Per-level, per-operation timing instrumentation.
//!
//! [`OpTimer`] accumulates one rank's `(level, op)` totals from the same
//! measurement each probe guard writes into the flight ring. Table II
//! across ranks is computed once, post hoc, from a trace
//! (`gmg_trace::TraceSummary`).

use std::collections::BTreeMap;

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
    /// opened with — the one measurement the flight ring was just fed,
    /// so a rank's totals here and in its trace agree by construction.
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
