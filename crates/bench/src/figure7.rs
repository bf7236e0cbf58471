//! Figure 7: potential-speedup scatter — fraction of theoretical AI on the
//! x-axis, fraction of roofline on the y-axis, iso-speedup curves.

use gmg_machine::gpu::System;
use gmg_machine::portability::potential_speedup;
use gmg_stencil::ALL_OPS;
use gmg_trace::{json, Json};

/// One scatter point.
#[derive(Debug)]
pub struct ScatterPoint {
    pub system: System,
    pub op: &'static str,
    pub ai_fraction: f64,
    pub roofline_fraction: f64,
    pub potential_speedup: f64,
}

/// All 15 (op × system) points.
pub fn points() -> Vec<ScatterPoint> {
    let mut v = Vec::new();
    for sys in System::ALL {
        let gpu = sys.gpu();
        for op in ALL_OPS {
            let e = gpu.op_efficiency(op);
            v.push(ScatterPoint {
                system: sys,
                op: op.name(),
                ai_fraction: e.ai_fraction,
                roofline_fraction: e.roofline_fraction,
                potential_speedup: potential_speedup(e.roofline_fraction, e.ai_fraction),
            });
        }
    }
    v
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 7 — potential speedup (x: %theoretical AI, y: %roofline)");
    println!(
        "{:<12} {:<26} {:>8} {:>10} {:>9}",
        "system", "operation", "%AI", "%roofline", "speedup"
    );
    let pts = points();
    for p in &pts {
        println!(
            "{:<12} {:<26} {:>7.0}% {:>9.0}% {:>8.2}x",
            format!("{:?}", p.system),
            p.op,
            p.ai_fraction * 100.0,
            p.roofline_fraction * 100.0,
            p.potential_speedup
        );
    }
    json!({
        "points": pts.iter().map(|p| json!({
            "system": format!("{:?}", p.system),
            "op": p.op,
            "ai_fraction": p.ai_fraction,
            "roofline_fraction": p.roofline_fraction,
            "potential_speedup": p.potential_speedup,
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nvidia_points_cluster_near_ideal() {
        // Paper: NVIDIA at most ~1.2× potential speedup across all ops.
        for p in points().iter().filter(|p| p.system == System::Perlmutter) {
            assert!(
                p.potential_speedup <= 1.27,
                "{}: {}",
                p.op,
                p.potential_speedup
            );
        }
    }

    #[test]
    fn amd_interpolation_is_the_outlier() {
        // Paper: one GCD outlier close to 4× for interpolation+increment.
        let pts = points();
        let outlier = pts
            .iter()
            .find(|p| p.system == System::Frontier && p.op == "interpolation+increment")
            .unwrap();
        assert!(
            outlier.potential_speedup > 3.0,
            "{}",
            outlier.potential_speedup
        );
        // Everything else on Frontier stays within ~1.2–1.5×.
        for p in pts
            .iter()
            .filter(|p| p.system == System::Frontier && p.op != "interpolation+increment")
        {
            assert!(
                p.potential_speedup < 1.8,
                "{}: {}",
                p.op,
                p.potential_speedup
            );
        }
    }

    #[test]
    fn intel_range_1_5_to_2x_ish() {
        // Paper: PVC points range roughly 1.5–2×.
        for p in points().iter().filter(|p| p.system == System::Sunspot) {
            assert!(
                (1.0..2.6).contains(&p.potential_speedup),
                "{}: {}",
                p.op,
                p.potential_speedup
            );
        }
    }

    #[test]
    fn fifteen_points() {
        assert_eq!(points().len(), 15);
    }
}
