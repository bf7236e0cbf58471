//! Table II: percentage of finest-level time per V-cycle operation.

use gmg_machine::gpu::System;
use gmg_scale::vcycle::{simulate, ScheduleConfig};
use gmg_trace::{json, Json};

/// The operations Table II reports, in the paper's order.
pub const TABLE2_OPS: [&str; 5] = [
    "applyOp",
    "smooth+residual",
    "restriction",
    "interpolation+increment",
    "exchange",
];

/// Finest-level time fractions per op for one system (initZero, which the
/// paper does not list, is excluded from the denominator).
pub fn fractions(system: System) -> Vec<(String, f64)> {
    let r = simulate(&ScheduleConfig::paper_section6(system));
    let l0 = &r.levels[0];
    let denom: f64 = TABLE2_OPS.iter().map(|op| l0.op(op)).sum();
    TABLE2_OPS
        .iter()
        .map(|op| (op.to_string(), l0.op(op) / denom))
        .collect()
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Table II — % of finest-level time per operation");
    let all: Vec<(System, Vec<(String, f64)>)> =
        System::ALL.iter().map(|&s| (s, fractions(s))).collect();
    println!(
        "{:<26} {:>10} {:>12} {:>10}",
        "Operation", "A100/CUDA", "GCD/HIP", "PVC/SYCL"
    );
    for (i, op) in TABLE2_OPS.iter().enumerate() {
        print!("{op:<26}");
        for (_, fr) in &all {
            print!(" {:>9.1}%", fr[i].1 * 100.0);
        }
        println!();
    }
    // The paper's measured values for reference.
    println!("\npaper: applyOp 25.0/30.7/22.5  smooth+residual 54.5/50.0/53.1");
    println!("       restriction 1.0/1.1/1.5  interp+inc 1.9/5.4/2.5  exchange 17.5/12.8/20.4");
    json!({
        "systems": all.iter().map(|(s, fr)| json!({
            "system": format!("{s:?}"),
            "fractions": fr.iter().map(|(op, f)| json!({"op": op, "fraction": f})).collect::<Vec<_>>(),
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        for sys in System::ALL {
            let total: f64 = fractions(sys).iter().map(|(_, f)| f).sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ordering_matches_paper() {
        // smooth+residual dominates, then applyOp, then exchange; the
        // inter-grid ops are small.
        for sys in System::ALL {
            let fr = fractions(sys);
            let get = |name: &str| fr.iter().find(|(op, _)| op == name).unwrap().1;
            assert!(get("smooth+residual") > get("applyOp"), "{sys:?}");
            assert!(get("applyOp") > get("restriction"), "{sys:?}");
            assert!(get("exchange") > get("restriction"), "{sys:?}");
            assert!(get("restriction") < 0.05, "{sys:?}");
            assert!(get("interpolation+increment") < 0.10, "{sys:?}");
        }
    }

    #[test]
    fn smooth_residual_near_half() {
        // Paper: 50–55% on all three systems.
        for sys in System::ALL {
            let fr = fractions(sys);
            let sr = fr.iter().find(|(op, _)| op == "smooth+residual").unwrap().1;
            assert!((0.40..0.62).contains(&sr), "{sys:?}: {sr:.2}");
        }
    }
}
