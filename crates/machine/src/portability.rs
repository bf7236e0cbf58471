//! Performance-portability metrics.
//!
//! Implements the Pennycook metric the paper adopts:
//!
//! ```text
//! Φ(a, p, H) = |H| / Σ_{i∈H} 1/e_i(a,p)    if every i ∈ H is supported
//!            = 0                            otherwise
//! ```
//!
//! with two choices of efficiency `e_i`: fraction of the roofline
//! (Table III) and fraction of theoretical arithmetic intensity (Table V),
//! plus the potential-speedup algebra of Figure 7.

use crate::gpu::System;
use gmg_stencil::{OpKind, ALL_OPS};

/// Harmonic mean of efficiencies; `None` entries mean "unsupported" and
/// force the metric to zero, per the definition.
pub fn harmonic_mean_phi(effs: &[Option<f64>]) -> f64 {
    if effs.is_empty() {
        return 0.0;
    }
    let mut sum_inv = 0.0;
    for e in effs {
        match e {
            Some(v) if *v > 0.0 => sum_inv += 1.0 / v,
            _ => return 0.0,
        }
    }
    effs.len() as f64 / sum_inv
}

/// Potential speedup from improving code generation (roofline fraction)
/// and/or data locality (theoretical-AI fraction) — the iso-curves of
/// Figure 7: `100%/%Roofline × 100%/%TheoreticalAI`.
pub fn potential_speedup(roofline_fraction: f64, ai_fraction: f64) -> f64 {
    assert!(roofline_fraction > 0.0 && ai_fraction > 0.0);
    (1.0 / roofline_fraction) * (1.0 / ai_fraction)
}

/// Which efficiency definition a portability table uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EfficiencyBasis {
    /// Fraction of the empirical-AI roofline (paper Table III).
    Roofline,
    /// Fraction of the theoretical arithmetic intensity (paper Table V).
    TheoreticalAi,
}

/// One row of a portability table: an operation and its efficiency on each
/// platform, with the per-op harmonic mean.
#[derive(Clone, Debug)]
pub struct PortabilityRow {
    pub op: OpKind,
    /// Efficiency per system, in [`System::ALL`] order.
    pub efficiency: [f64; 3],
    /// Harmonic mean across platforms (the paper's per-op Ψ column).
    pub per_op_phi: f64,
}

/// A full portability table (Tables III / V) with the overall Φ.
#[derive(Clone, Debug)]
pub struct PortabilityTable {
    pub basis: EfficiencyBasis,
    pub rows: Vec<PortabilityRow>,
    /// Harmonic mean over all (op, platform) efficiencies — the paper's
    /// headline 73% (roofline basis) / 92% (theoretical-AI basis).
    pub overall_phi: f64,
}

impl PortabilityTable {
    /// Build the table from the calibrated machine models.
    pub fn from_models(basis: EfficiencyBasis) -> Self {
        let mut rows = Vec::with_capacity(ALL_OPS.len());
        let mut all: Vec<Option<f64>> = Vec::new();
        for op in ALL_OPS {
            let mut eff = [0.0; 3];
            for (i, sys) in System::ALL.iter().enumerate() {
                let e = sys.gpu().op_efficiency(op);
                eff[i] = match basis {
                    EfficiencyBasis::Roofline => e.roofline_fraction,
                    EfficiencyBasis::TheoreticalAi => e.ai_fraction,
                };
                all.push(Some(eff[i]));
            }
            rows.push(PortabilityRow {
                op,
                efficiency: eff,
                per_op_phi: harmonic_mean_phi(&eff.map(Some)),
            });
        }
        PortabilityTable {
            basis,
            rows,
            overall_phi: harmonic_mean_phi(&all),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_basics() {
        assert_eq!(harmonic_mean_phi(&[]), 0.0);
        assert_eq!(harmonic_mean_phi(&[Some(0.5)]), 0.5);
        let h = harmonic_mean_phi(&[Some(1.0), Some(0.5)]);
        assert!((h - 2.0 / 3.0).abs() < 1e-12);
        // Any unsupported platform zeroes the metric.
        assert_eq!(harmonic_mean_phi(&[Some(1.0), None]), 0.0);
        assert_eq!(harmonic_mean_phi(&[Some(1.0), Some(0.0)]), 0.0);
    }

    #[test]
    fn harmonic_mean_below_arithmetic() {
        let vals = [0.9, 0.4, 0.7];
        let h = harmonic_mean_phi(&vals.map(Some));
        let a = vals.iter().sum::<f64>() / 3.0;
        assert!(h < a);
        assert!(
            h > *vals
                .iter()
                .min_by(|a, b| a.partial_cmp(b).unwrap())
                .unwrap()
        );
    }

    #[test]
    fn roofline_table_reproduces_paper_headline() {
        // Paper: Φ ≥ 73% on the roofline basis.
        let t = PortabilityTable::from_models(EfficiencyBasis::Roofline);
        assert!(
            (0.72..0.76).contains(&t.overall_phi),
            "overall Φ = {:.3}",
            t.overall_phi
        );
        // Per-op values from Table III's Ψ column (±2 points).
        let expect = [0.76, 0.80, 0.83, 0.76, 0.55];
        for (row, e) in t.rows.iter().zip(expect) {
            assert!(
                (row.per_op_phi - e).abs() < 0.02,
                "{}: {:.3} vs {e}",
                row.op.name(),
                row.per_op_phi
            );
        }
    }

    #[test]
    fn theoretical_ai_table_reproduces_paper_headline() {
        // Paper: Φ ≈ 92% on the theoretical-AI basis.
        let t = PortabilityTable::from_models(EfficiencyBasis::TheoreticalAi);
        assert!(
            (0.90..0.94).contains(&t.overall_phi),
            "overall Φ = {:.3}",
            t.overall_phi
        );
        let expect = [0.90, 0.97, 0.88, 0.94, 0.90];
        for (row, e) in t.rows.iter().zip(expect) {
            assert!(
                (row.per_op_phi - e).abs() < 0.025,
                "{}: {:.3} vs {e}",
                row.op.name(),
                row.per_op_phi
            );
        }
    }

    #[test]
    fn potential_speedup_figure7() {
        // Perfect implementation: 1×.
        assert!((potential_speedup(1.0, 1.0) - 1.0).abs() < 1e-12);
        // Paper: NVIDIA at most ~1.2×; MI250X interpolation outlier ~4×.
        let a100 = System::Perlmutter.gpu();
        for op in ALL_OPS {
            let e = a100.op_efficiency(op);
            let s = potential_speedup(e.roofline_fraction, e.ai_fraction);
            assert!(s <= 1.25, "{}: {s}", op.name());
        }
        let gcd = System::Frontier.gpu();
        let e = gcd.op_efficiency(OpKind::InterpolationIncrement);
        let s = potential_speedup(e.roofline_fraction, e.ai_fraction);
        assert!((3.0..4.5).contains(&s), "outlier speedup {s}");
    }
}
