//! Table III: performance portability Φ based on fraction of the roofline.

use gmg_machine::portability::{EfficiencyBasis, PortabilityTable};
use gmg_trace::{json, Json};

/// The computed table.
pub fn table() -> PortabilityTable {
    PortabilityTable::from_models(EfficiencyBasis::Roofline)
}

/// Shared pretty-printer for Tables III and V.
pub fn print_table(t: &PortabilityTable, paper_overall: f64) -> Json {
    println!(
        "{:<26} {:>10} {:>12} {:>10} {:>8}",
        "Operation", "A100/CUDA", "GCD/HIP", "PVC/SYCL", "per-op"
    );
    for row in &t.rows {
        println!(
            "{:<26} {:>9.0}% {:>11.0}% {:>9.0}% {:>7.0}%",
            row.op.name(),
            row.efficiency[0] * 100.0,
            row.efficiency[1] * 100.0,
            row.efficiency[2] * 100.0,
            row.per_op_phi * 100.0
        );
    }
    println!(
        "\noverall Φ (harmonic mean): {:.1}%   (paper: {:.0}%)",
        t.overall_phi * 100.0,
        paper_overall * 100.0
    );
    json!({
        "rows": t.rows.iter().map(|r| json!({
            "op": r.op.name(),
            "efficiency": r.efficiency,
            "per_op_phi": r.per_op_phi,
        })).collect::<Vec<_>>(),
        "overall_phi": t.overall_phi,
        "paper_overall_phi": paper_overall,
    })
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Table III — performance portability Φ (fraction of roofline)");
    print_table(&table(), 0.73)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_phi_is_73_percent() {
        let t = table();
        assert!((t.overall_phi - 0.73).abs() < 0.02, "{}", t.overall_phi);
    }
}
