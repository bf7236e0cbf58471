//! Residual histories and owned-cell iterates pinned bit for bit.
//!
//! The constants were captured on the commit *before* smoothing became
//! demand-driven (residual stored on every smooth, every iteration run
//! over the whole remaining ghost margin, drop-out bricks carried). What
//! a smooth pass computes outside the dependency cone of its owned cells,
//! and which iterations store `r`, may change; what the owned cells hold
//! after every step may not. A mismatch prints the run's actual bits.

use gmg_repro::prelude::*;

/// FNV-1a over the bits of `x` on the owned cells, in `z → y → x` order.
fn digest(level: &gmg_repro::gmg::Level) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    level.owned.for_each(|p| {
        h = (h ^ level.x.get(p).to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
    });
    h
}

/// Solve `n³` on `grid` ranks; every rank must report `history` (as
/// `f64::to_bits`), and rank `i`'s finest owned iterate must hash to
/// `digests[i]`.
fn check(n: i64, grid: Point3, cfg: SolverConfig, history: &[u64], digests: &[u64]) {
    let decomp = Decomposition::new(Box3::cube(n), grid);
    let d = &decomp;
    let out = RankWorld::run(decomp.num_ranks(), move |mut ctx| {
        let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
        let stats = s.solve(&mut ctx);
        let bits: Vec<u64> = stats.residual_history.iter().map(|r| r.to_bits()).collect();
        (bits, digest(&s.levels[0]))
    });
    let got_digests: Vec<u64> = out.iter().map(|(_, d)| *d).collect();
    assert!(
        got_digests == digests,
        "{n}³ on {grid:?}: pinned iterate digests differ; this run: {got_digests:#x?}"
    );
    for (rank, (got, _)) in out.iter().enumerate() {
        assert!(
            got == history,
            "{n}³ on {grid:?}, rank {rank}: pinned history differs; this run: {got:#x?}"
        );
    }
}

const ONE: Point3 = Point3 { x: 1, y: 1, z: 1 };
const TWO: Point3 = Point3 { x: 2, y: 1, z: 1 };

fn paper(levels: usize) -> SolverConfig {
    SolverConfig {
        num_levels: levels,
        max_vcycles: 4,
        ..SolverConfig::paper_default()
    }
}

/// `paper_default` at `n³` with `levels` levels: the same history on one
/// rank and on 2×1×1 (the decomposition changes no owned cell's
/// arithmetic).
fn check_paper(n: i64, levels: usize, history: &[u64], one: &[u64], two: &[u64]) {
    check(n, ONE, paper(levels), history, one);
    check(n, TWO, paper(levels), history, two);
}

#[test]
#[rustfmt::skip]
fn paper_default_32() {
    check_paper(
        32, 3,
        &[0x3fef8a3a908e6754, 0x3fa1ebca5e234250, 0x3f47e7d4a5af9c00, 0x3ef0bad35ef38000, 0x3e97eda96ce00000],
        &[0x03974561f698add0],
        &[0xeeffb926a00c6c34, 0x9c5fad9d32576fa9],
    );
    check_paper(
        32, 4,
        &[0x3fef8a3a908e6754, 0x3fa241fbe92cfe70, 0x3f49803ec8199c00, 0x3ef28ebef0b38000, 0x3e9b8d13d4c00000],
        &[0x8122ac31fdbb28a8],
        &[0x770e04ceb87c8fc2, 0x443567acde82268f],
    );
}

#[test]
#[rustfmt::skip]
fn paper_default_64() {
    check_paper(
        64, 3,
        &[0x3fefe26eca5d3b64, 0x3fb38daf5cf48448, 0x3f5eefe2dbab1400, 0x3f0c7a38b9628000, 0x3eb8b294cc580000],
        &[0xe92204070248bb18],
        &[0xce82f698962f8211, 0x41bd4526eff1244c],
    );
    check_paper(
        64, 4,
        &[0x3fefe26eca5d3b64, 0x3fb2b657aebaecf8, 0x3f58bae099271400, 0x3f03ceaff9a28000, 0x3eadd488d8b00000],
        &[0xae280ad9dd2b5194],
        &[0x2144d3ecc53cadb8, 0x3dc2476fbf70a82d],
    );
}
