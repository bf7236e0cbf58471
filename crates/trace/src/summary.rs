//! Trace-derived metrics: Table II per-op fractions and achieved
//! GStencil/s / GB/s, recomputed from a captured [`Trace`].
//!
//! The aggregation mirrors `gmg::timers::TimerReport`: per-`(level, op)`
//! totals are summed across ranks, rows are ordered by `(level, op)` (the
//! same order a `BTreeMap<(usize, &str), _>` yields), and a level's
//! fractions divide each op's time by the level total — so when the
//! solver feeds *identical* duration measurements to both its `OpTimer`
//! and the flight ring, `TraceSummary::level_fractions` and
//! `TimerReport::level_fractions` agree to rounding error, not merely
//! within sampling noise.
//!
//! Achieved rates use per-rank time (total ÷ nranks): ranks execute
//! concurrently, so aggregate throughput is work ÷ wall-time-per-rank.

use crate::capture::{Counters, Trace, Track};
use std::collections::BTreeMap;

/// Aggregated compute-track row for one `(level, op)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct OpRow {
    pub level: usize,
    pub op: String,
    /// Seconds summed across all ranks.
    pub seconds: f64,
    /// Span count summed across all ranks.
    pub invocations: usize,
    /// Counters summed across all ranks.
    pub counters: Counters,
}

/// Per-op/per-level metrics distilled from a [`Trace`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSummary {
    pub nranks: usize,
    /// Compute-track rows, ordered by `(level, op)`.
    pub rows: Vec<OpRow>,
    /// Comm-track totals (messages, message bytes) across all ranks.
    pub comm: Counters,
    /// Comm-track seconds summed across all ranks.
    pub comm_seconds: f64,
    /// Fault-track instant events: per-kind counts across all ranks,
    /// ordered by kind (e.g. `("fault:drop", 3)`). Empty for fault-free
    /// runs.
    pub faults: Vec<(String, usize)>,
    /// Wall-clock extent of the whole trace.
    pub wall_seconds: f64,
}

impl TraceSummary {
    /// Aggregate a captured trace.
    pub fn from_trace(trace: &Trace) -> TraceSummary {
        let nranks = trace.ranks().len();
        let mut acc: BTreeMap<(usize, String), OpRow> = BTreeMap::new();
        let mut comm = Counters::default();
        let mut comm_seconds = 0.0;
        let mut faults: BTreeMap<String, usize> = BTreeMap::new();
        for e in &trace.events {
            match e.track {
                Track::Compute => {
                    let key = (e.level, e.op.name().to_string());
                    let row = acc.entry(key.clone()).or_insert(OpRow {
                        level: key.0,
                        op: key.1,
                        seconds: 0.0,
                        invocations: 0,
                        counters: Counters::default(),
                    });
                    row.seconds += e.dur_ns as f64 / 1e9;
                    row.invocations += 1;
                    row.counters.add(&e.counters);
                }
                Track::Comm => {
                    comm.add(&e.counters);
                    comm_seconds += e.dur_ns as f64 / 1e9;
                }
                Track::Fault => {
                    *faults.entry(e.op.name().to_string()).or_insert(0) += 1;
                }
            }
        }
        TraceSummary {
            nranks,
            rows: acc.into_values().collect(),
            comm,
            comm_seconds,
            faults: faults.into_iter().collect(),
            wall_seconds: trace.wall_seconds(),
        }
    }

    /// Total fault-track events across all kinds and ranks.
    pub fn fault_events(&self) -> usize {
        self.faults.iter().map(|(_, n)| n).sum()
    }

    /// Rows for one level, in op order.
    pub fn level_rows(&self, level: usize) -> impl Iterator<Item = &OpRow> {
        self.rows.iter().filter(move |r| r.level == level)
    }

    /// All levels present, ascending.
    pub fn levels(&self) -> Vec<usize> {
        let mut l: Vec<usize> = self.rows.iter().map(|r| r.level).collect();
        l.sort_unstable();
        l.dedup();
        l
    }

    /// Seconds summed across ranks and ops at `level`.
    pub fn level_total(&self, level: usize) -> f64 {
        self.level_rows(level).map(|r| r.seconds).sum()
    }

    /// Fraction of a level's time spent in each op — the paper's Table II
    /// for level 0, same semantics and ordering as
    /// `TimerReport::level_fractions` (the cross-rank averaging cancels
    /// in the ratio).
    pub fn level_fractions(&self, level: usize) -> Vec<(String, f64)> {
        let total = self.level_total(level);
        self.level_rows(level)
            .map(|r| {
                (
                    r.op.clone(),
                    if total > 0.0 { r.seconds / total } else { 0.0 },
                )
            })
            .collect()
    }

    /// Per-rank seconds for a row (ranks run concurrently).
    fn per_rank_seconds(&self, row: &OpRow) -> f64 {
        if self.nranks > 0 {
            row.seconds / self.nranks as f64
        } else {
            row.seconds
        }
    }

    /// Achieved stencil throughput for `(level, op)` in GStencil/s
    /// (aggregate across ranks), or None if untracked/zero-time.
    pub fn gstencil_per_s(&self, level: usize, op: &str) -> Option<f64> {
        let row = self.level_rows(level).find(|r| r.op == op)?;
        let t = self.per_rank_seconds(row);
        if t > 0.0 && row.counters.stencil_points > 0 {
            Some(row.counters.stencil_points as f64 / t / 1e9)
        } else {
            None
        }
    }

    /// Achieved memory bandwidth for `(level, op)` in GB/s (aggregate
    /// reads + writes across ranks), or None if untracked/zero-time.
    pub fn achieved_gb_per_s(&self, level: usize, op: &str) -> Option<f64> {
        let row = self.level_rows(level).find(|r| r.op == op)?;
        let t = self.per_rank_seconds(row);
        let bytes = row.counters.bytes_read + row.counters.bytes_written;
        if t > 0.0 && bytes > 0 {
            Some(bytes as f64 / t / 1e9)
        } else {
            None
        }
    }

    /// Achieved exchange bandwidth in GB/s (message payload over
    /// per-rank comm time), or None when no comm spans were captured.
    pub fn comm_gb_per_s(&self) -> Option<f64> {
        if self.comm_seconds > 0.0 && self.comm.message_bytes > 0 && self.nranks > 0 {
            let t = self.comm_seconds / self.nranks as f64;
            Some(self.comm.message_bytes as f64 / t / 1e9)
        } else {
            None
        }
    }

    /// Human-readable report: one table per level (op, avg seconds,
    /// fraction, achieved GStencil/s and GB/s), then comm totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "trace summary: {} ranks, {:.6} s wall\n",
            self.nranks, self.wall_seconds
        ));
        for level in self.levels() {
            out.push_str(&format!("level {level}\n"));
            for (op, frac) in self.level_fractions(level) {
                let row = self.level_rows(level).find(|r| r.op == op).unwrap();
                out.push_str(&format!(
                    "  {:<28} {:>10.6} s  {:>6.2}%  x{}",
                    op,
                    self.per_rank_seconds(row),
                    frac * 100.0,
                    row.invocations,
                ));
                if let Some(g) = self.gstencil_per_s(level, &op) {
                    out.push_str(&format!("  {g:.3} GStencil/s"));
                }
                if let Some(b) = self.achieved_gb_per_s(level, &op) {
                    out.push_str(&format!("  {b:.2} GB/s"));
                }
                out.push('\n');
            }
        }
        if self.comm.messages > 0 {
            out.push_str(&format!(
                "comm: {} messages, {} bytes",
                self.comm.messages, self.comm.message_bytes
            ));
            if let Some(b) = self.comm_gb_per_s() {
                out.push_str(&format!(", {b:.3} GB/s"));
            }
            out.push('\n');
        }
        if !self.faults.is_empty() {
            out.push_str(&format!("faults: {} events (", self.fault_events()));
            for (i, (kind, n)) in self.faults.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{kind} x{n}"));
            }
            out.push_str(")\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture, intern, TraceEvent, LEVEL_NONE};

    /// A deterministic two-rank trace: per rank, 3 s of compute at level 0
    /// split 2:1 between smooth and applyOp, 1 s at level 1, and one send.
    fn sample() -> Trace {
        let mut events = Vec::new();
        for rank in 0..2usize {
            let base = rank as u64 * 10_000_000_000;
            let mk = |op: &str, level, ts, dur_s: f64, counters| TraceEvent {
                rank,
                level,
                op: intern(op),
                track: Track::Compute,
                ts_ns: base + ts,
                dur_ns: (dur_s * 1e9) as u64,
                counters,
                peer: None,
                tag: None,
                seq: None,
            };
            events.push(mk(
                "smooth",
                0,
                0,
                2.0,
                Counters {
                    stencil_points: 4096,
                    bytes_read: 65536,
                    bytes_written: 32768,
                    flops: 40960,
                    ..Default::default()
                },
            ));
            events.push(mk(
                "applyOp",
                0,
                2_000_000_000,
                1.0,
                Counters {
                    stencil_points: 1000,
                    ..Default::default()
                },
            ));
            events.push(mk("smooth", 1, 3_000_000_000, 1.0, Counters::default()));
            events.push(TraceEvent {
                rank,
                level: LEVEL_NONE,
                op: intern("send"),
                track: Track::Comm,
                ts_ns: base + 4_000_000_000,
                dur_ns: 500_000_000,
                counters: Counters {
                    messages: 1,
                    message_bytes: 1_000_000_000,
                    ..Default::default()
                },
                peer: Some(1 - rank),
                tag: Some(9),
                seq: None,
            });
        }
        Trace {
            events,
            ..Trace::default()
        }
    }

    #[test]
    fn aggregates_across_ranks_by_level_and_op() {
        let s = TraceSummary::from_trace(&sample());
        assert_eq!(s.nranks, 2);
        assert_eq!(s.levels(), vec![0, 1]);
        // Rows ordered (level, op): applyOp before smooth at level 0.
        let ops: Vec<_> = s.rows.iter().map(|r| (r.level, r.op.as_str())).collect();
        assert_eq!(ops, vec![(0, "applyOp"), (0, "smooth"), (1, "smooth")]);
        let smooth0 = &s.rows[1];
        assert!((smooth0.seconds - 4.0).abs() < 1e-9); // 2 s × 2 ranks
        assert_eq!(smooth0.invocations, 2);
        assert_eq!(smooth0.counters.stencil_points, 8192);
    }

    #[test]
    fn fractions_match_timer_semantics() {
        let s = TraceSummary::from_trace(&sample());
        let fr = s.level_fractions(0);
        assert_eq!(fr.len(), 2);
        let get = |op: &str| fr.iter().find(|(o, _)| o == op).unwrap().1;
        assert!((get("smooth") - 2.0 / 3.0).abs() < 1e-12);
        assert!((get("applyOp") - 1.0 / 3.0).abs() < 1e-12);
        let total: f64 = fr.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Level with no rows → empty, not a panic.
        assert!(s.level_fractions(7).is_empty());
    }

    #[test]
    fn achieved_rates_use_per_rank_time() {
        let s = TraceSummary::from_trace(&sample());
        // smooth level 0: 8192 points over 2 s per rank → 4096 pts/s.
        let g = s.gstencil_per_s(0, "smooth").unwrap();
        assert!((g - 8192.0 / 2.0 / 1e9).abs() < 1e-18);
        // (65536+32768)*2 bytes over 2 s per rank.
        let b = s.achieved_gb_per_s(0, "smooth").unwrap();
        assert!((b - 196608.0 / 2.0 / 1e9).abs() < 1e-15);
        // applyOp tracked points but no bytes → bandwidth is None.
        assert!(s.gstencil_per_s(0, "applyOp").is_some());
        assert!(s.achieved_gb_per_s(0, "applyOp").is_none());
        assert!(s.gstencil_per_s(3, "nope").is_none());
    }

    #[test]
    fn comm_rollup() {
        let s = TraceSummary::from_trace(&sample());
        assert_eq!(s.comm.messages, 2);
        assert_eq!(s.comm.message_bytes, 2_000_000_000);
        assert!((s.comm_seconds - 1.0).abs() < 1e-9);
        // 2e9 bytes over 0.5 s per rank = 4 GB/s.
        let gbs = s.comm_gb_per_s().unwrap();
        assert!((gbs - 4.0).abs() < 1e-9);
    }

    #[test]
    fn render_mentions_every_op_and_comm() {
        let s = TraceSummary::from_trace(&sample());
        let text = s.render();
        for needle in [
            "level 0",
            "level 1",
            "smooth",
            "applyOp",
            "GStencil/s",
            "comm: 2 messages",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn fault_track_rolls_up_per_kind() {
        let (_, trace) = capture(|| {
            for (op, n) in [("fault:drop", 3), ("fault:retransmit", 2)] {
                for _ in 0..n {
                    drop(crate::span(1, LEVEL_NONE, op, Track::Fault).peer(0).tag(7));
                }
            }
        });
        let s = TraceSummary::from_trace(&trace);
        assert_eq!(
            s.faults,
            vec![
                ("fault:drop".to_string(), 3),
                ("fault:retransmit".to_string(), 2)
            ]
        );
        assert_eq!(s.fault_events(), 5);
        // Fault instants are not compute rows and not comm traffic.
        assert!(s.rows.is_empty());
        assert_eq!(s.comm.messages, 0);
        let text = s.render();
        assert!(text.contains("faults: 5 events"), "{text}");
        assert!(text.contains("fault:drop x3"), "{text}");
        // Fault-free summaries don't mention faults at all.
        assert!(!TraceSummary::from_trace(&sample())
            .render()
            .contains("fault"));
    }

    #[test]
    fn empty_trace_is_harmless() {
        let s = TraceSummary::from_trace(&Trace::default());
        assert_eq!(s.nranks, 0);
        assert!(s.rows.is_empty());
        assert!(s.level_fractions(0).is_empty());
        assert!(s.comm_gb_per_s().is_none());
        assert_eq!(s.wall_seconds, 0.0);
        assert!(s.render().contains("0 ranks"));
    }
}
