//! Validation of the solver against the analytic PDE solution: the
//! converged discrete solution must approach `u = −b/(12π²)` at O(h²).

use gmg_repro::gmg::PoissonProblem;
use gmg_repro::prelude::*;

/// Solve at resolution `n` and return the max-norm error against the
/// analytic PDE solution (not the discrete one — this measures
/// discretization error, which must shrink as h²).
fn pde_error(n: i64) -> f64 {
    let decomp = Decomposition::single(Box3::cube(n));
    let cfg = SolverConfig {
        num_levels: 3,
        max_smooths: 8,
        bottom_smooths: 60,
        tolerance: 1e-12,
        max_vcycles: 40,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    let d = &decomp;
    let out = RankWorld::run(1, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        let stats = s.solve(&mut ctx);
        assert!(
            stats.converged,
            "must converge at n={n}: {:?}",
            stats.residual_history
        );
        let exact = PoissonProblem::new(n).rhs_tables(s.levels[0].owned);
        s.levels[0].max_error(|p| exact.exact_solution(p))
    });
    out[0]
}

#[test]
fn second_order_convergence_to_pde_solution() {
    let e16 = pde_error(16);
    let e32 = pde_error(32);
    let rate = e16 / e32;
    // O(h²): doubling resolution should shrink the error ~4×.
    assert!(
        (3.0..5.0).contains(&rate),
        "convergence rate {rate:.2} (errors {e16:.3e} -> {e32:.3e})"
    );
}

#[test]
fn converges_from_random_like_initial_guess() {
    // Robustness: start from a non-zero, rough initial guess.
    let n = 32;
    let decomp = Decomposition::single(Box3::cube(n));
    let cfg = SolverConfig {
        num_levels: 3,
        max_smooths: 8,
        bottom_smooths: 60,
        tolerance: 1e-9,
        max_vcycles: 40,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    let d = &decomp;
    let out = RankWorld::run(1, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        // Deterministic pseudo-random, zero-mean-ish rough field.
        let layout = s.levels[0].layout.clone();
        s.levels[0].x = gmg_repro::brick::BrickedField::from_fn(layout, |p| {
            let h = (p.x.wrapping_mul(2654435761) ^ p.y.wrapping_mul(40503) ^ p.z) as f64;
            (h % 1000.0) / 1000.0 - 0.5
        });
        s.solve(&mut ctx)
    });
    assert!(out[0].converged, "history: {:?}", out[0].residual_history);
}

#[test]
fn deeper_hierarchies_converge_faster_per_cycle() {
    // More levels -> cheaper coarse solves do more of the work; the
    // reduction factor per V-cycle should improve (or at least not get
    // dramatically worse) with depth.
    let reduction = |levels: usize| {
        let decomp = Decomposition::single(Box3::cube(32));
        let cfg = SolverConfig {
            num_levels: levels,
            max_smooths: 8,
            bottom_smooths: 60,
            tolerance: 0.0,
            max_vcycles: 4,
            communication_avoiding: true,
            brick_dim: 4,
            ordering: BrickOrdering::SurfaceMajor,
            ..SolverConfig::paper_default()
        };
        let d = &decomp;
        let out = RankWorld::run(1, move |mut ctx| {
            let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
            s.solve(&mut ctx).mean_reduction()
        });
        out[0]
    };
    let r1 = reduction(1);
    let r3 = reduction(3);
    assert!(
        r3 < r1 * 0.8,
        "3-level reduction {r3:.3} should beat 1-level {r1:.3}"
    );
}

#[test]
fn residual_reduction_rate_is_multigrid_like() {
    // The paper converges 1024³ to 1e-10 in 12 V-cycles — a per-cycle
    // reduction around 0.15. Our scaled-down problem should be in the same
    // regime (well under 0.5 per cycle).
    let n = 32;
    let decomp = Decomposition::single(Box3::cube(n));
    let cfg = SolverConfig {
        num_levels: 3,
        max_smooths: 12,
        bottom_smooths: 100,
        tolerance: 0.0,
        max_vcycles: 5,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    let d = &decomp;
    let out = RankWorld::run(1, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        s.solve(&mut ctx).mean_reduction()
    });
    assert!(out[0] < 0.5, "mean reduction {:.3}", out[0]);
}
