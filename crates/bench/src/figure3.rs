//! Figure 3: total execution time per multigrid level on all three systems.
//!
//! Configuration from the paper's Section VI: 8 nodes, one rank (one A100 /
//! GCD / PVC tile) per node, 512³ elements per rank (1024³ total), 6-level
//! V-cycle, 12 smooths per level, 100 bottom smooths, 12 V-cycles to
//! convergence, communication-avoiding enabled, all optimizations on.

use gmg_machine::gpu::System;
use gmg_scale::vcycle::{simulate, ScheduleConfig, SimResult};
use gmg_trace::{json, Json};

/// Simulated runs for all three systems.
pub fn simulate_all() -> Vec<SimResult> {
    System::ALL
        .iter()
        .map(|&sys| simulate(&ScheduleConfig::paper_section6(sys)))
        .collect()
}

/// Run the harness: print the per-level series and return them as JSON.
pub fn run() -> Json {
    crate::report::heading("Figure 3 — total execution time per level (8 nodes, 512^3/rank)");
    let results = simulate_all();
    println!(
        "{:<7} {:>14} {:>14} {:>14}",
        "level", "Perlmutter", "Frontier", "Sunspot"
    );
    let nlevels = results[0].levels.len();
    for li in 0..nlevels {
        print!("{li:<7}");
        for r in &results {
            print!(
                " {:>14}",
                crate::report::fmt_time(r.levels[li].total_seconds)
            );
        }
        println!();
    }
    println!("\nper-level scaling ratios (level l / level l+1; paper: ~4x, comm-bound):");
    for r in &results {
        let ratios: Vec<String> = (0..nlevels - 1)
            .map(|l| {
                format!(
                    "{:.1}",
                    r.levels[l].total_seconds / r.levels[l + 1].total_seconds
                )
            })
            .collect();
        println!("  {:<12} {}", format!("{:?}", r.system), ratios.join("  "));
    }
    json!({
        "config": "8 nodes x 1 rank, 512^3/rank, 6 levels, 12 smooths, 100 bottom, 12 V-cycles",
        "systems": results.iter().map(|r| json!({
            "system": format!("{:?}", r.system),
            "level_seconds": r.levels.iter().map(|l| l.total_seconds).collect::<Vec<_>>(),
            "level_exchanges": r.levels.iter().map(|l| l.exchanges).collect::<Vec<_>>(),
            "total_seconds": r.total_seconds,
        })).collect::<Vec<_>>(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_decrease_with_flattening_tail() {
        for r in simulate_all() {
            let t: Vec<f64> = r.levels.iter().map(|l| l.total_seconds).collect();
            // Fine levels decrease steeply; the coarsest level is inflated
            // by the 100-smooth bottom solve (paper: "significant increase
            // in wall clock time").
            assert!(t[0] > t[1] && t[1] > t[2], "{:?}: {t:?}", r.system);
            assert!(
                t[5] > 0.05 * t[4],
                "{:?}: bottom solve should be visible: {t:?}",
                r.system
            );
        }
    }

    #[test]
    fn sunspot_slowest_at_coarse_levels() {
        // Paper: Perlmutter and Frontier get faster at the coarsest levels
        // compared to Sunspot (CXI setting + GPU-aware MPI).
        let rs = simulate_all();
        let coarse = |r: &SimResult| r.levels[4].total_seconds + r.levels[5].total_seconds;
        assert!(coarse(&rs[2]) > coarse(&rs[0]));
        assert!(coarse(&rs[2]) > coarse(&rs[1]));
    }
}
