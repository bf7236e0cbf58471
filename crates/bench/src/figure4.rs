//! Figure 4: relative per-V-cycle performance of the bricked GMG against
//! the HPGMG-style conventional baseline.
//!
//! Paper values: 1.58× on Perlmutter, 1.46× on Frontier, and ≈1× when the
//! Sunspot result is held against HPGMG-CUDA (which has no SYCL port, so
//! the comparison is cross-machine, as in the paper's text).

use gmg_machine::gpu::System;
use gmg_mesh::Point3;
use gmg_scale::vcycle::{simulate, simulate_hpgmg, ScheduleConfig};
use gmg_trace::{json, Json};

/// One bar of the figure.
#[derive(Debug)]
pub struct Figure4Bar {
    pub system: System,
    pub brick_vcycle_s: f64,
    pub baseline_vcycle_s: f64,
    pub speedup: f64,
}

/// Compute all three bars.
pub fn bars() -> Vec<Figure4Bar> {
    System::ALL
        .iter()
        .map(|&sys| {
            let brick = simulate(&ScheduleConfig::paper_section6(sys));
            // HPGMG is CUDA-only: on Sunspot the paper compares against the
            // CUDA baseline on the A100.
            let baseline_sys = match sys {
                System::Sunspot => System::Perlmutter,
                other => other,
            };
            let base = simulate_hpgmg(baseline_sys, Point3::splat(512), 6, 12, 100, 12, 8);
            Figure4Bar {
                system: sys,
                brick_vcycle_s: brick.per_vcycle_seconds,
                baseline_vcycle_s: base.per_vcycle_seconds,
                speedup: base.per_vcycle_seconds / brick.per_vcycle_seconds,
            }
        })
        .collect()
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 4 — relative performance vs HPGMG (time per V-cycle)");
    let bars = bars();
    println!(
        "{:<12} {:>16} {:>16} {:>10}  paper",
        "system", "bricks/Vcycle", "HPGMG/Vcycle", "speedup"
    );
    let paper = [1.58, 1.46, 1.0];
    for (b, p) in bars.iter().zip(paper) {
        println!(
            "{:<12} {:>16} {:>16} {:>9.2}x  {p:.2}x",
            format!("{:?}", b.system),
            crate::report::fmt_time(b.brick_vcycle_s),
            crate::report::fmt_time(b.baseline_vcycle_s),
            b.speedup
        );
    }
    println!(
        "\n{}",
        crate::plot::bars(
            "speedup vs HPGMG (x)",
            &bars
                .iter()
                .map(|b| (format!("{:?}", b.system), b.speedup))
                .collect::<Vec<_>>(),
            40
        )
    );
    json!({
        "bars": bars.iter().map(|b| json!({
            "system": format!("{:?}", b.system),
            "brick_vcycle_s": b.brick_vcycle_s,
            "baseline_vcycle_s": b.baseline_vcycle_s,
            "speedup": b.speedup,
        })).collect::<Vec<_>>(),
        "paper_speedups": paper,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedups_match_paper_shape() {
        let b = bars();
        assert!(
            (b[0].speedup - 1.58).abs() < 0.15,
            "Perlmutter {}",
            b[0].speedup
        );
        assert!(
            (b[1].speedup - 1.46).abs() < 0.15,
            "Frontier {}",
            b[1].speedup
        );
        assert!((b[2].speedup - 1.0).abs() < 0.4, "Sunspot {}", b[2].speedup);
        // Bricks win on Perlmutter and Frontier.
        assert!(b[0].speedup > 1.2 && b[1].speedup > 1.2);
    }
}
