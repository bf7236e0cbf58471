//! Bridges `gmg-stencil`'s static traffic analysis into `gmg-trace`
//! counters, so every kernel invocation self-reports its data movement.
//!
//! The per-point numbers come from [`OpKind::traffic`] (the paper's
//! Table IV counting convention, which the DSL analyses corroborate —
//! see `gmg_stencil::ops`); multiplied by the number of points an
//! invocation processed they give exact byte/FLOP totals, not estimates.
//! For `restriction` and `interpolation+increment` the point unit is one
//! *coarse* cell, matching how the solver sizes those calls.

use gmg_stencil::{OpTraffic, ALL_OPS};
use gmg_trace::Counters;

/// Per-point traffic for a V-cycle op by its display name, if the op is
/// one of the five the paper models.
pub fn per_point(op: &str) -> Option<OpTraffic> {
    ALL_OPS.iter().find(|k| k.name() == op).map(|k| k.traffic())
}

/// Exact counters for one invocation of `op` over `points` points
/// (coarse points for the coarse-granularity ops).
///
/// Ops outside the paper's table get partial coverage: `initZero` writes
/// one double per point; `residualNorm` (the convergence check) reads `x`
/// and `b` and reduces `b − A·x` in registers; anything else (e.g.
/// `exchange`, whose traffic is recorded by the comm runtime itself)
/// reports only its point count.
pub fn op_counters(op: &str, points: u64) -> Counters {
    if let Some(t) = per_point(op) {
        return Counters {
            bytes_read: t.reads as u64 * 8 * points,
            bytes_written: t.writes as u64 * 8 * points,
            flops: t.flops as u64 * points,
            stencil_points: points,
            ..Default::default()
        };
    }
    match op {
        "initZero" => Counters {
            bytes_written: 8 * points,
            stencil_points: points,
            ..Default::default()
        },
        // 8 of the stencil, the subtraction, and |v|, v², two sums, a max.
        "residualNorm" => Counters {
            bytes_read: 16 * points,
            flops: 14 * points,
            stencil_points: points,
            ..Default::default()
        },
        _ => Counters {
            stencil_points: points,
            ..Default::default()
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_stencil::ops::apply_op_def;

    #[test]
    fn apply_op_counters_match_static_analysis_exactly() {
        // The acceptance check: counter-derived bytes/FLOPs for a
        // fine-level applyOp must equal the gmg-stencil analysis exactly.
        let a = apply_op_def().analysis();
        let points = 4096u64; // one rank's 16³ owned region
        let c = op_counters("applyOp", points);
        assert_eq!(c.flops, a.flops_per_point as u64 * points);
        assert_eq!(
            c.bytes_read + c.bytes_written,
            a.doubles_moved_per_point as u64 * 8 * points
        );
        assert_eq!(c.stencil_points, points);
        assert_eq!(c.messages, 0);
    }

    #[test]
    fn all_five_paper_ops_are_covered() {
        for k in ALL_OPS {
            let t = per_point(k.name()).unwrap();
            let c = op_counters(k.name(), 10);
            assert_eq!(c.bytes_read, t.reads as u64 * 80);
            assert_eq!(c.bytes_written, t.writes as u64 * 80);
            assert_eq!(c.flops, t.flops as u64 * 10);
        }
    }

    #[test]
    fn unmodeled_ops_still_count_points() {
        assert!(per_point("exchange").is_none());
        let c = op_counters("exchange", 5);
        assert_eq!(c.stencil_points, 5);
        assert_eq!(c.total_bytes(), 0);
        let z = op_counters("initZero", 100);
        assert_eq!(z.bytes_written, 800);
        assert_eq!(z.bytes_read, 0);
        let n = op_counters("residualNorm", 100);
        assert_eq!((n.bytes_read, n.bytes_written), (1600, 0));
    }
}
