//! Distributed Poisson solve with its traced timing report.
//!
//! ```sh
//! cargo run --release --example poisson_solve -- [n] [px py pz] [levels] [smooths]
//! # defaults:                                     64   2  2  2     3        8
//! ```
//!
//! Mirrors the paper artifact's run (`<exe> -s ... -l ... -n ...`): solves
//! the model problem over a periodic process grid under a trace capture
//! and prints the trace analysis, whose first table is the per-level,
//! per-operation time breakdown across ranks (the paper's Table II).

use gmg_repro::metrics::Analysis;
use gmg_repro::prelude::*;

fn main() {
    let args: Vec<i64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let n = *args.first().unwrap_or(&64);
    let grid = if args.len() >= 4 {
        Point3::new(args[1], args[2], args[3])
    } else {
        Point3::splat(2)
    };
    let levels = *args.get(4).unwrap_or(&3) as usize;
    let smooths = *args.get(5).unwrap_or(&8) as usize;

    let decomp = Decomposition::new(Box3::cube(n), grid);
    let nranks = decomp.num_ranks();
    println!(
        "domain {n}^3, process grid {}x{}x{} = {nranks} ranks, {levels} levels, {smooths} smooths",
        grid.x, grid.y, grid.z
    );

    let config = SolverConfig {
        num_levels: levels,
        max_smooths: smooths,
        bottom_smooths: 60,
        tolerance: 1e-10,
        max_vcycles: 25,
        communication_avoiding: true,
        brick_dim: 8, // clamped per level to the shrinking subdomain

        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };

    let d = &decomp;
    let (mut out, trace) = gmg_repro::trace::capture(|| {
        RankWorld::run(nranks, move |mut ctx| {
            GmgSolver::new(d.clone(), ctx.rank(), config).solve(&mut ctx)
        })
    });
    let stats = out.remove(0);

    println!(
        "\nconverged: {} in {} V-cycles, final residual {:.3e}",
        stats.converged,
        stats.vcycles,
        stats.final_residual()
    );
    print!("\n{}", Analysis::from_trace(&trace, None).render());
    assert!(stats.converged, "solve must converge");
}
