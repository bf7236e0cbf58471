//! Table IV: theoretical arithmetic intensity (FLOP/byte) per V-cycle
//! operation, computed from the operator traffic metadata — and
//! cross-checked against the DSL-derived analysis where the two counting
//! conventions coincide.

use gmg_stencil::ops::{apply_op_def, restriction_def, smooth_def};
use gmg_stencil::{OpKind, ALL_OPS};
use gmg_trace::{json, Json};

/// `(op, computed AI, paper AI)` rows.
pub fn rows() -> Vec<(OpKind, f64, f64)> {
    let paper = [0.50, 0.125, 0.15, 0.11, 0.06];
    ALL_OPS
        .iter()
        .zip(paper)
        .map(|(&op, p)| (op, op.traffic().theoretical_ai(), p))
        .collect()
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Table IV — theoretical arithmetic intensity (FLOP/B)");
    println!("{:<26} {:>10} {:>8}", "Operation", "computed", "paper");
    for (op, ai, paper) in rows() {
        println!("{:<26} {ai:>10.3} {paper:>8}", op.name());
    }
    println!("\nDSL cross-checks (FLOPs/point from the expression tree):");
    println!(
        "  applyOp     : {}",
        apply_op_def().analysis().flops_per_point
    );
    println!(
        "  smooth      : {}",
        smooth_def().analysis().flops_per_point
    );
    println!(
        "  restriction : {}",
        restriction_def().analysis().flops_per_point
    );
    json!({
        "rows": rows().iter().map(|(op, ai, p)| json!({
            "op": op.name(), "computed_ai": ai, "paper_ai": p,
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn computed_matches_paper_to_rounding() {
        for (op, ai, paper) in rows() {
            assert!(
                (ai - paper).abs() < 0.006,
                "{}: {ai:.3} vs {paper}",
                op.name()
            );
        }
    }
}
