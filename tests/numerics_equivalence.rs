//! Cross-crate numerical equivalence: the bricked solver (gmg-core), the
//! conventional baseline (gmg-hpgmg), and every layout/distribution choice
//! must all compute the *same* V-cycle.

use gmg_repro::prelude::*;

fn brick_history(n: i64, grid: Point3, cfg: SolverConfig, vcycles: usize) -> Vec<f64> {
    let mut cfg = cfg;
    cfg.max_vcycles = vcycles;
    cfg.tolerance = 0.0;
    let decomp = Decomposition::new(Box3::cube(n), grid);
    let ranks = decomp.num_ranks();
    let d = &decomp;
    let out = RankWorld::run(ranks, move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        s.solve(&mut ctx).residual_history
    });
    out.into_iter().next().unwrap()
}

fn hpgmg_history(
    n: i64,
    grid: Point3,
    levels: usize,
    smooths: usize,
    bottom: usize,
    vcycles: usize,
) -> Vec<f64> {
    let decomp = Decomposition::new(Box3::cube(n), grid);
    let ranks = decomp.num_ranks();
    let d = &decomp;
    let out = RankWorld::run(ranks, move |mut ctx| {
        let mut s = gmg_repro::hpgmg::HpgmgSolver::new(
            d.clone(),
            ctx.rank(),
            levels,
            smooths,
            bottom,
            0.0,
            vcycles,
        );
        s.solve(&mut ctx).residual_history
    });
    out.into_iter().next().unwrap()
}

fn assert_close(a: &[f64], b: &[f64], tol: f64) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!(
            (x - y).abs() <= tol * x.abs().max(1e-30),
            "histories diverge: {x:.15e} vs {y:.15e}\n{a:?}\n{b:?}"
        );
    }
}

#[test]
fn bricked_and_conventional_solvers_agree_exactly() {
    // Same algorithm, different storage: residual histories must match to
    // floating-point noise.
    let cfg = SolverConfig {
        num_levels: 3,
        max_smooths: 6,
        bottom_smooths: 30,
        tolerance: 0.0,
        max_vcycles: 4,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    let brick = brick_history(32, Point3::splat(1), cfg, 4);
    let conv = hpgmg_history(32, Point3::splat(1), 3, 6, 30, 4);
    assert_close(&brick, &conv, 1e-9);
}

#[test]
fn agreement_holds_distributed() {
    let cfg = SolverConfig {
        num_levels: 2,
        max_smooths: 5,
        bottom_smooths: 20,
        tolerance: 0.0,
        max_vcycles: 3,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    // 8 ranks exchange all 26 directions; 2×2×1 exchanges 8 and wraps z
    // through the brick adjacency.
    for grid in [Point3::splat(2), Point3::new(2, 2, 1)] {
        let brick = brick_history(16, grid, cfg, 3);
        let conv = hpgmg_history(16, grid, 2, 5, 20, 3);
        assert_close(&brick, &conv, 1e-9);
    }
}

#[test]
fn rank_count_does_not_change_numerics() {
    let cfg = SolverConfig {
        num_levels: 2,
        max_smooths: 6,
        bottom_smooths: 24,
        tolerance: 0.0,
        max_vcycles: 3,
        communication_avoiding: true,
        brick_dim: 4,
        ordering: BrickOrdering::SurfaceMajor,
        ..SolverConfig::paper_default()
    };
    let h1 = brick_history(16, Point3::splat(1), cfg, 3);
    let h2 = brick_history(16, Point3::new(2, 1, 1), cfg, 3);
    let h4 = brick_history(16, Point3::new(2, 2, 1), cfg, 3);
    let h8 = brick_history(16, Point3::splat(2), cfg, 3);
    assert_close(&h1, &h2, 1e-10);
    assert_close(&h1, &h4, 1e-10);
    assert_close(&h1, &h8, 1e-10);
}

#[test]
fn brick_size_does_not_change_numerics() {
    let mk = |bd: i64| {
        let cfg = SolverConfig {
            num_levels: 2,
            max_smooths: 4,
            bottom_smooths: 16,
            tolerance: 0.0,
            max_vcycles: 2,
            communication_avoiding: true,
            brick_dim: bd,
            ordering: BrickOrdering::SurfaceMajor,
            ..SolverConfig::paper_default()
        };
        brick_history(32, Point3::splat(1), cfg, 2)
    };
    let h4 = mk(4);
    let h8 = mk(8);
    // Different brick sizes mean different CA regions; owned-region results
    // are still identical because the redundant ghost computation uses the
    // same (exchanged) data.
    assert_close(&h4, &h8, 1e-9);
}

#[test]
fn orderings_bitwise_equivalent() {
    let mk = |ord| {
        let cfg = SolverConfig {
            num_levels: 2,
            max_smooths: 4,
            bottom_smooths: 10,
            tolerance: 0.0,
            max_vcycles: 2,
            communication_avoiding: true,
            brick_dim: 4,
            ordering: ord,
            ..SolverConfig::paper_default()
        };
        brick_history(16, Point3::new(2, 2, 1), cfg, 2)
    };
    let a = mk(BrickOrdering::SurfaceMajor);
    let b = mk(BrickOrdering::Lexicographic);
    // The physical slot order must be completely invisible to numerics.
    assert_close(&a, &b, 1e-13);
}
