//! Figure 8: weak scaling — GStencil/s and parallel efficiency with 512³
//! per rank, full nodes (4 ranks/node Perlmutter, 8 Frontier, 12 Sunspot),
//! 2→128 nodes (Perlmutter/Frontier) and 1→16 nodes (Sunspot testbed).

use gmg_machine::gpu::System;
use gmg_scale::vcycle::{simulate, ScheduleConfig, SimResult};
use gmg_trace::{json, Json};

/// Node counts swept per system (Sunspot capped at its 128-node testbed
/// scale, of which the paper could use 16).
pub fn node_sweep(system: System) -> Vec<usize> {
    match system {
        System::Sunspot => vec![1, 2, 4, 8, 16],
        _ => vec![2, 4, 8, 16, 32, 64, 128],
    }
}

/// One system's weak-scaling curve.
pub struct WeakCurve {
    pub system: System,
    /// `(nodes, ranks, GStencil/s, efficiency)` per sweep point.
    pub points: Vec<(usize, usize, f64, f64)>,
}

fn config(system: System, nodes: usize) -> ScheduleConfig {
    let mut c = ScheduleConfig::paper_section6(system);
    c.nodes = nodes;
    c.ranks_per_node = system.ranks_per_node();
    c
}

/// Build one system's curve.
pub fn curve(system: System) -> WeakCurve {
    let sweep = node_sweep(system);
    let runs: Vec<SimResult> = sweep
        .iter()
        .map(|&n| simulate(&config(system, n)))
        .collect();
    let base = &runs[0];
    let points = sweep
        .iter()
        .zip(&runs)
        .map(|(&n, r)| (n, r.nranks, r.gstencil_per_s, r.weak_efficiency(base)))
        .collect();
    WeakCurve { system, points }
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 8 — weak scaling (512^3 per rank, full nodes)");
    let mut out = Vec::new();
    for sys in System::ALL {
        let c = curve(sys);
        println!("\n{:?} ({} ranks/node):", sys, sys.ranks_per_node());
        println!(
            "{:>7} {:>7} {:>14} {:>11}",
            "nodes", "ranks", "GStencil/s", "efficiency"
        );
        for (nodes, ranks, gs, eff) in &c.points {
            println!("{nodes:>7} {ranks:>7} {gs:>14.2} {:>10.1}%", eff * 100.0);
        }
        out.push(json!({
            "system": format!("{:?}", sys),
            "nodes": c.points.iter().map(|p| p.0).collect::<Vec<_>>(),
            "ranks": c.points.iter().map(|p| p.1).collect::<Vec<_>>(),
            "gstencil_per_s": c.points.iter().map(|p| p.2).collect::<Vec<_>>(),
            "efficiency": c.points.iter().map(|p| p.3).collect::<Vec<_>>(),
        }));
    }
    json!({ "curves": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_stays_above_87_percent() {
        // The paper's headline: >87% parallel efficiency weak scaling to
        // 512 GPUs.
        for sys in System::ALL {
            let c = curve(sys);
            for (nodes, _, _, eff) in &c.points {
                assert!(
                    *eff >= 0.87,
                    "{sys:?} at {nodes} nodes: {:.1}%",
                    eff * 100.0
                );
            }
        }
    }

    #[test]
    fn throughput_grows_with_nodes() {
        for sys in System::ALL {
            let c = curve(sys);
            for w in c.points.windows(2) {
                assert!(
                    w[1].2 > w[0].2,
                    "{sys:?}: {:?}",
                    c.points.iter().map(|p| p.2).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn frontier_about_double_perlmutter_at_equal_nodes() {
        // Paper: "Frontier presents almost double GStencil/s performance
        // compared to Perlmutter" (8 GCDs vs 4 GPUs per node).
        let p = curve(System::Perlmutter);
        let f = curve(System::Frontier);
        for (pp, fp) in p.points.iter().zip(&f.points) {
            assert_eq!(pp.0, fp.0);
            let ratio = fp.2 / pp.2;
            assert!((1.5..2.5).contains(&ratio), "nodes {}: {ratio:.2}", pp.0);
        }
    }

    #[test]
    fn largest_jobs_reach_512_gpus() {
        let p = curve(System::Perlmutter);
        assert_eq!(p.points.last().unwrap().1, 512);
        let f = curve(System::Frontier);
        assert_eq!(f.points.last().unwrap().1, 1024); // 512 MI250X = 1024 GCD ranks
        let s = curve(System::Sunspot);
        assert_eq!(s.points.last().unwrap().1, 192); // 96 PVC = 192 tiles? (12 tiles/node × 16)
    }
}
