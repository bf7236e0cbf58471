//! Figure 9: strong scaling — fixed total domain (1024³ on Perlmutter,
//! 2×1024³ on Frontier, 3×1024³ on Sunspot), full nodes, growing rank
//! counts; efficiency nose-dives as per-rank levels go latency-bound.

use gmg_machine::gpu::System;
use gmg_mesh::Point3;
use gmg_scale::vcycle::{simulate, ScheduleConfig, SimResult};
use gmg_trace::{json, Json};

/// Fixed global domain per system (the paper's Section VIII sizes).
pub fn domain(system: System) -> Point3 {
    match system {
        System::Perlmutter => Point3::new(1024, 1024, 1024),
        System::Frontier => Point3::new(2048, 1024, 1024),
        System::Sunspot => Point3::new(3072, 1024, 1024),
    }
}

/// Greedy process-grid factorization that respects the domain's axis
/// extents: repeatedly assign the smallest prime factor of the remaining
/// rank count to the axis with the largest per-rank extent it divides.
pub fn grid_for(domain: Point3, ranks: usize) -> Point3 {
    let mut grid = Point3::splat(1);
    let mut per = domain;
    let mut rem = ranks;
    let mut p = 2;
    while rem > 1 {
        while !rem.is_multiple_of(p) {
            p += 1;
        }
        // Pick the divisible axis with the largest current extent.
        let axis = (0..3)
            .filter(|&a| per[a] % (p as i64) == 0)
            .max_by_key(|&a| per[a])
            .unwrap_or_else(|| panic!("{ranks} ranks do not divide {domain:?}"));
        grid[axis] *= p as i64;
        per[axis] /= p as i64;
        rem /= p;
    }
    grid
}

/// One system's strong-scaling curve.
pub struct StrongCurve {
    pub system: System,
    /// `(nodes, ranks, per-rank extent, GStencil/s, efficiency)`.
    pub points: Vec<(usize, usize, Point3, f64, f64)>,
}

fn config(system: System, nodes: usize) -> ScheduleConfig {
    let dom = domain(system);
    let ranks = nodes * system.ranks_per_node();
    let grid = grid_for(dom, ranks);
    let per = Point3::new(dom.x / grid.x, dom.y / grid.y, dom.z / grid.z);
    let mut c = ScheduleConfig::paper_section6(system);
    c.nodes = nodes;
    c.ranks_per_node = system.ranks_per_node();
    c.sub_extent = per;
    // Keep a 6-deep hierarchy while the per-rank extent supports it.
    let min_axis = per.x.min(per.y).min(per.z);
    c.num_levels = 6.min((min_axis as f64).log2() as usize);
    c
}

/// Build one system's curve.
pub fn curve(system: System) -> StrongCurve {
    let sweep: Vec<usize> = match system {
        System::Sunspot => vec![1, 2, 4, 8, 16],
        _ => vec![2, 4, 8, 16, 32, 64, 128],
    };
    let runs: Vec<(usize, ScheduleConfig, SimResult)> = sweep
        .iter()
        .map(|&n| {
            let cfg = config(system, n);
            let r = simulate(&cfg);
            (n, cfg, r)
        })
        .collect();
    let base = &runs[0].2;
    let points = runs
        .iter()
        .map(|(n, cfg, r)| {
            (
                *n,
                r.nranks,
                cfg.sub_extent,
                r.gstencil_per_s,
                r.strong_efficiency(base),
            )
        })
        .collect();
    StrongCurve { system, points }
}

/// Run the harness.
pub fn run() -> Json {
    crate::report::heading("Figure 9 — strong scaling (fixed total domain, full nodes)");
    let mut out = Vec::new();
    for sys in System::ALL {
        let c = curve(sys);
        println!("\n{:?} (domain {}):", sys, domain(sys));
        println!(
            "{:>7} {:>7} {:>16} {:>14} {:>11}",
            "nodes", "ranks", "per-rank", "GStencil/s", "efficiency"
        );
        for (nodes, ranks, per, gs, eff) in &c.points {
            println!(
                "{nodes:>7} {ranks:>7} {:>16} {gs:>14.2} {:>10.1}%",
                format!("{}x{}x{}", per.x, per.y, per.z),
                eff * 100.0
            );
        }
        out.push(json!({
            "system": format!("{:?}", sys),
            "domain": [domain(sys).x, domain(sys).y, domain(sys).z],
            "nodes": c.points.iter().map(|p| p.0).collect::<Vec<_>>(),
            "ranks": c.points.iter().map(|p| p.1).collect::<Vec<_>>(),
            "gstencil_per_s": c.points.iter().map(|p| p.3).collect::<Vec<_>>(),
            "efficiency": c.points.iter().map(|p| p.4).collect::<Vec<_>>(),
        }));
    }
    json!({ "curves": out })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_factorization_respects_domain() {
        let d = Point3::new(3072, 1024, 1024);
        for ranks in [12, 24, 48, 96, 192] {
            let g = grid_for(d, ranks);
            assert_eq!(g.product(), ranks as i64);
            for a in 0..3 {
                assert_eq!(d[a] % g[a], 0, "ranks {ranks}: {g:?}");
            }
        }
        assert_eq!(grid_for(Point3::splat(1024), 8), Point3::splat(2));
    }

    #[test]
    fn throughput_grows_sublinearly() {
        for sys in System::ALL {
            let c = curve(sys);
            // Throughput still increases with ranks...
            for w in c.points.windows(2) {
                assert!(w[1].3 > w[0].3 * 0.95, "{sys:?}");
            }
            // ...but the largest job is far from linear speedup.
            let last = c.points.last().unwrap();
            assert!(
                last.4 < 0.75,
                "{sys:?}: strong efficiency {:.2} should nose-dive",
                last.4
            );
        }
    }

    #[test]
    fn efficiency_monotonically_degrades() {
        for sys in [System::Perlmutter, System::Frontier] {
            let c = curve(sys);
            for w in c.points.windows(2) {
                assert!(
                    w[1].4 <= w[0].4 + 0.02,
                    "{sys:?}: efficiency should not recover: {:?}",
                    c.points.iter().map(|p| p.4).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn frontier_about_double_perlmutter_throughput() {
        // Paper: "performance throughput on Frontier is close to double
        // that of Perlmutter" (double the problem, double the GCDs).
        let p = curve(System::Perlmutter);
        let f = curve(System::Frontier);
        for (pp, fp) in p.points.iter().zip(&f.points) {
            let ratio = fp.3 / pp.3;
            assert!((1.3..2.6).contains(&ratio), "nodes {}: {ratio:.2}", pp.0);
        }
    }
}
