//! Table V: performance portability Φ based on fraction of the theoretical
//! arithmetic intensity (data-movement proximity to compulsory misses).

use gmg_machine::portability::{EfficiencyBasis, PortabilityTable};
use gmg_trace::Json;

/// The computed table.
pub fn table() -> PortabilityTable {
    PortabilityTable::from_models(EfficiencyBasis::TheoreticalAi)
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Table V — performance portability Φ (fraction of theoretical AI)");
    crate::table3::print_table(&table(), 0.92)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overall_phi_is_92_percent() {
        let t = table();
        assert!((t.overall_phi - 0.92).abs() < 0.02, "{}", t.overall_phi);
    }

    #[test]
    fn ai_fractions_exceed_roofline_fractions_overall() {
        // The paper's observation: data movement is near-ideal (92%) even
        // where code-generation efficiency (73%) is not.
        let ai = table().overall_phi;
        let roofline = crate::table3::table().overall_phi;
        assert!(ai > roofline + 0.1);
    }
}
