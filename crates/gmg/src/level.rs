//! One multigrid level: bricked fields and the single-level operators.

use crate::problem::PoissonProblem;
use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
use gmg_mesh::{Box3, Decomposition, Point3};
use gmg_stencil::exec_brick::{apply_star7_bricked, pointwise_mut2};
use gmg_stencil::exec_fused::{fused_multismooth_bricked, FusedStats, ResidualSink};
use std::sync::Arc;

/// One level of the multigrid hierarchy on one rank: the three fields of the
/// V-cycle (`x`, `b` and the one-pass smoother's second buffer `ax`) in
/// bricked storage, the level's operator coefficients and the
/// communication-avoiding ghost margin. The layout carries a ghost shell on
/// the axes where the rank grid is more than 1 wide; on the others the rank
/// is its own periodic neighbor and the bricks wrap through the adjacency.
/// The split [`Level::apply_op`] + [`Level::smooth_residual`] pair, the
/// storing smoother, the lazy `r` and [`restriction`] are no solver step:
/// only `benchmark/src/probes.rs` still times them, and the next change to
/// the benchmark deletes them.
pub struct Level {
    /// Level index (0 = finest).
    pub index: usize,
    /// Decomposition at this level.
    pub decomp: Decomposition,
    /// This rank's owned cell region at this level.
    pub owned: Box3,
    /// Shared brick layout for all the level's fields.
    pub layout: Arc<BrickLayout>,
    /// Solution / correction.
    pub x: BrickedField,
    /// Right-hand side.
    pub b: BrickedField,
    /// Scratch: the buffer `x` alternates with inside
    /// [`Level::fused_multi_smooth`], and `A·x` of [`Level::apply_op`].
    /// Every reader refreshes it first.
    pub ax: BrickedField,
    /// Residual `b − A·x` on the owned cells, as a storing smoother left
    /// it, for [`restriction`]. Allocated on first write (by
    /// [`Level::smooth_residual`] or a storing
    /// [`Level::fused_multi_smooth`]) and unallocated until then: the
    /// solver restricts as it goes ([`Level::fused_multi_smooth_restrict`])
    /// and never stores it. Kept only for the benchmark probes that time
    /// its writers.
    pub r: BrickedField,
    /// `α = −6/h²`.
    pub alpha: f64,
    /// `β = 1/h²`.
    pub beta: f64,
    /// `γ = h²/12`.
    pub gamma: f64,
    /// Valid ghost margin of `x`, in cells: `x` is specified on `owned`
    /// grown by `margin` on the layout's halo axes and nowhere else, so
    /// this is how many more radius-1 sweeps can run before an exchange is
    /// needed. Reset to the full ghost depth by an exchange or `initZero`;
    /// a smoothing step works in no more of it than the rest of its pass
    /// can consume and leaves that minus what it consumed — 0 at the end of
    /// every pass. Means nothing on a level without a halo axis, which
    /// never exchanges.
    pub margin: i64,
}

impl Level {
    /// Build level `index` for `rank` of `decomp` (already coarsened to
    /// this level), with brick side `brick_dim` and the given ordering.
    /// Fields start at zero; the caller initializes `b` on the finest level.
    pub fn new(
        problem: &PoissonProblem,
        decomp: Decomposition,
        rank: usize,
        index: usize,
        brick_dim: i64,
        ordering: BrickOrdering,
    ) -> Self {
        let owned = decomp.subdomain(rank);
        let wrap = decomp.self_neighbor_axes();
        let layout = Arc::new(BrickLayout::with_wrap(owned, brick_dim, 1, ordering, wrap));
        let x = BrickedField::new(layout.clone());
        let b = BrickedField::new(layout.clone());
        let ax = BrickedField::new(layout.clone());
        let r = BrickedField::unallocated(layout.clone());
        Self {
            index,
            decomp,
            owned,
            layout,
            x,
            b,
            ax,
            r,
            alpha: problem.alpha(index),
            beta: problem.beta(index),
            gamma: problem.gamma(index),
            margin: 0,
        }
    }

    /// Ghost depth in cells (brick dim × ghost bricks) on the halo axes.
    pub fn ghost_cells(&self) -> i64 {
        self.layout.ghost_cells()
    }

    /// Whether any axis carries a ghost shell, i.e. whether this level
    /// ever exchanges.
    pub fn has_halo(&self) -> bool {
        !self.layout.halo().is_empty()
    }

    /// `Ax ← A·x` over `region` (the paper's `applyOp`), clipped to the
    /// storage shell. Requires `x` valid one cell around it. No solver step:
    /// kept for the benchmark probes only.
    pub fn apply_op(&mut self, region: Box3) {
        apply_star7_bricked(&mut self.ax, &self.x, self.alpha, self.beta, region);
    }

    /// Give `r` its storage if nothing has written it yet.
    fn alloc_r(&mut self) {
        if !self.r.is_allocated() {
            self.r = BrickedField::new(self.layout.clone());
        }
    }

    /// Fused `r ← b − Ax; x ← x + γ(Ax − b)` over `region` (the paper's
    /// `smooth+residual`), from the `Ax` of the last [`Level::apply_op`].
    /// The residual corresponds to `x` *before* this update, exactly as in
    /// the paper's fused kernel. No solver step: kept for the benchmark
    /// probes only.
    pub fn smooth_residual(&mut self, region: Box3) {
        self.alloc_r();
        let gamma = self.gamma;
        let pieces = self.layout.slots_intersecting(region);
        pointwise_mut2(
            &mut self.x,
            &mut self.r,
            &self.ax,
            &self.b,
            &pieces,
            move |x, r, ax, b| {
                *r = b - ax;
                *x += gamma * (ax - b);
            },
        );
    }

    /// Apply `s` Jacobi iterations `x += gamma·(Ax − b)` over the shrinking
    /// communication-avoiding schedule rooted at `region` (clipped to the
    /// storage shell), each as one pass over the bricks (3 doubles moved
    /// per point). Afterwards `x` — and, `with_residual`, `r` as the last
    /// iteration's `smooth_residual` would leave it — are specified on
    /// `region` shrunk by `s − 1` on the halo axes only, bit-identical
    /// there to `s` sweeps of the DSL interpreter's `applyOp` + `smooth`
    /// (see [`gmg_stencil::exec_fused`]); `ax` holds garbage. The caller
    /// accounts the margin: that shrunk region is all that stays valid.
    /// The solver never stores the residual: `with_residual` is kept for
    /// the benchmark probes only.
    pub fn fused_multi_smooth(
        &mut self,
        region: Box3,
        s: usize,
        gamma: f64,
        with_residual: bool,
    ) -> FusedStats {
        if with_residual {
            self.alloc_r();
        }
        fused_multismooth_bricked(
            &mut self.x,
            &self.b,
            with_residual.then_some(ResidualSink::Store(&mut self.r)),
            self.alpha,
            self.beta,
            gamma,
            region,
            s,
            &mut self.ax,
        )
    }

    /// [`Level::fused_multi_smooth`] whose last iteration restricts its
    /// pre-update residual straight into `coarse.b`'s owned cells — bit for
    /// bit what [`restriction`] makes of the residual a storing call leaves
    /// in `r` — so `r` is neither written nor allocated. `region` shrunk by
    /// `s − 1` on the halo axes must be exactly the owned box (the last
    /// group of a pass, where the margin runs out) and the brick dim even
    /// (whole coarse cells per fine brick). `coarse.b`'s ghost shell is left
    /// as it was.
    pub fn fused_multi_smooth_restrict(
        &mut self,
        region: Box3,
        s: usize,
        gamma: f64,
        coarse: &mut Level,
    ) -> FusedStats {
        debug_assert_eq!(self.owned.coarsen(2), coarse.owned);
        fused_multismooth_bricked(
            &mut self.x,
            &self.b,
            Some(ResidualSink::Restrict(&mut coarse.b)),
            self.alpha,
            self.beta,
            gamma,
            region,
            s,
            &mut self.ax,
        )
    }

    /// `x ← 0` over the whole storage (the paper's `initZero`); the zero
    /// ghost shell is trivially valid, so the margin resets to full depth.
    pub fn init_zero(&mut self) {
        self.x.fill(0.0);
        self.margin = self.ghost_cells();
    }

    /// Error against a reference solution over owned cells (max-norm),
    /// shifted to remove the periodic-Poisson mean ambiguity: compares
    /// `x − mean(x)` against `f − mean(f)` is the caller's business; this
    /// is the raw max difference.
    pub fn max_error(&self, f: impl Fn(Point3) -> f64) -> f64 {
        self.x
            .reduce(self.owned, 0.0, |p, v| (v - f(p)).abs(), f64::max)
    }
}

/// Restriction (paper Algorithm 2 line 7) of the residual a storing
/// smoother left in `fine.r`: volume-average 8 fine cells into each coarse
/// right-hand-side cell of `coarse`'s owned box. The solver restricts as
/// it goes instead ([`Level::fused_multi_smooth_restrict`]), to the same
/// bits; this pass is kept for the benchmark probes only. No neighbor
/// communication — only fine cells owned by this rank feed coarse cells
/// owned by this rank. The fine brick dim must be even.
///
/// Streams the fine rows under each coarse brick in `z → y → x` order, so
/// every coarse cell still folds its eight fine cells from `0.0` in
/// `dz → dy → dx` order, without a per-cell brick lookup.
pub fn restriction(fine: &Level, coarse: &mut Level) {
    assert!(
        fine.r.is_allocated(),
        "restriction reads `r`, which nothing wrote"
    );
    let fine = &fine.r;
    debug_assert_eq!(fine.layout().cell_box().coarsen(2), coarse.owned);
    let clayout = coarse.layout.clone();
    let bd = clayout.brick_dim();
    let pieces = clayout.slots_intersecting(coarse.owned);
    // `owned` is brick-aligned, so every piece is a whole brick.
    coarse.b.update_bricks(&pieces, |_, cells, out| {
        out.fill(0.0);
        fine.for_each_row_piece(cells.refine(2), |p, f| {
            let l = p.div_floor(Point3::splat(2)) - cells.lo;
            let row = ((l.z * bd + l.y) * bd) as usize;
            add_fine_piece(&mut out[row..], f, (p.x - 2 * cells.lo.x) as usize);
        });
        out.iter_mut().for_each(|v| *v *= 0.125);
    });
}

/// `sum[t / 2] = (sum[t / 2] + f[t − t0]) + f[t − t0 + 1]` for every fine
/// pair `(t, t + 1)` of a row piece that starts at fine offset `t0`. With
/// an even fine brick dim every piece is whole pairs.
fn add_fine_piece(sum: &mut [f64], f: &[f64], t0: usize) {
    debug_assert!(
        t0.is_multiple_of(2) && f.len().is_multiple_of(2),
        "odd fine brick dim"
    );
    for (s, p) in sum[t0 / 2..].iter_mut().zip(f.chunks_exact(2)) {
        *s = (*s + p[0]) + p[1];
    }
}

/// Interpolation + increment (paper Algorithm 2 line 17): piecewise-constant
/// prolongation of the coarse correction, added into the fine solution.
/// No neighbor communication. Streams the coarse rows under each fine
/// brick, without a per-cell brick lookup.
pub fn interpolation_increment(coarse: &Level, fine: &mut Level) {
    debug_assert_eq!(fine.owned.coarsen(2), coarse.owned);
    let flayout = fine.layout.clone();
    let bd = flayout.brick_dim();
    let pieces = flayout.slots_intersecting(fine.owned);
    let coarse_x = &coarse.x;
    // `owned` is brick-aligned, so every piece is a whole brick.
    fine.x.update_bricks(&pieces, |_, cells, out| {
        coarse_x.for_each_row_piece(cells.coarsen(2), |p, c| {
            // The (up to) 2 × 2 fine rows of this brick over the coarse row.
            for fz in (2 * p.z).max(cells.lo.z)..(2 * p.z + 2).min(cells.hi.z) {
                for fy in (2 * p.y).max(cells.lo.y)..(2 * p.y + 2).min(cells.hi.y) {
                    let row = (((fz - cells.lo.z) * bd + (fy - cells.lo.y)) * bd) as usize;
                    let xs = &mut out[row..row + bd as usize];
                    add_coarse_piece(xs, c, 2 * p.x - cells.lo.x);
                }
            }
        });
    });
    // The fine ghost shell was not incremented; x is only valid on owned.
    fine.margin = 0;
}

/// `xs[t] += c[(t − t0) / 2]` for every fine cell `t` of the row under a
/// coarse row piece whose first cell covers fine offsets `t0, t0 + 1`.
/// With an even fine brick dim every coarse cell covers a whole pair.
fn add_coarse_piece(xs: &mut [f64], c: &[f64], t0: i64) {
    debug_assert!(
        t0 >= 0 && t0 % 2 == 0 && xs.len().is_multiple_of(2),
        "odd fine brick dim"
    );
    for (p, v) in xs[t0 as usize..].chunks_exact_mut(2).zip(c) {
        p[0] += v;
        p[1] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostics::LocalNorms;
    use gmg_mesh::Decomposition;

    fn single_level(n: i64, bd: i64, index: usize) -> Level {
        let problem = PoissonProblem::new(n << index);
        let decomp = Decomposition::single(Box3::cube(n));
        Level::new(&problem, decomp, 0, index, bd, BrickOrdering::SurfaceMajor)
    }

    #[test]
    fn apply_op_annihilates_constants() {
        // A·const = (α + 6β)·const = 0 for the Poisson coefficients.
        let mut l = single_level(16, 4, 0);
        l.x.fill(3.0);
        l.apply_op(l.owned);
        let m = l.ax.reduce(l.owned, 0.0, |_, v| v.abs(), f64::max);
        assert!(m < 1e-6 * l.beta.abs(), "max |A·const| = {m}");
    }

    #[test]
    fn apply_op_eigenmode() {
        // The separable sine is an eigenvector of the periodic operator.
        let n = 16;
        let problem = PoissonProblem::new(n);
        let mut l = single_level(n, 4, 0);
        let pr = problem;
        l.x = BrickedField::from_fn(l.layout.clone(), |p| pr.rhs(p.rem_euclid(Point3::splat(n))));
        l.apply_op(l.owned);
        let lambda = problem.discrete_eigenvalue();
        let err = l.ax.reduce(
            l.owned,
            0.0,
            |p, v| (v - lambda * pr.rhs(p)).abs(),
            f64::max,
        );
        assert!(err < 1e-6 * lambda.abs(), "eigenmode error {err}");
    }

    #[test]
    fn smooth_reduces_residual_on_eigenmode() {
        let n = 16;
        let problem = PoissonProblem::new(n);
        let mut l = single_level(n, 4, 0);
        let pr = problem;
        l.b = BrickedField::from_fn(l.layout.clone(), |p| pr.rhs(p.rem_euclid(Point3::splat(n))));
        l.init_zero();
        let mut prev = f64::INFINITY;
        for _ in 0..5 {
            l.fused_multi_smooth(l.owned, 1, l.gamma, false);
            let r = LocalNorms::of_residual(&l).max_abs;
            assert!(r < prev * 1.0001, "residual should not grow: {r} vs {prev}");
            prev = r;
        }
        // The eigenmode has damping |1 + γλ| < 1, so 5 smooths shrink it.
        assert!(prev < 1.0, "after 5 smooths: {prev}");
    }

    #[test]
    fn restriction_averages_eight_cells() {
        let problem = PoissonProblem::new(16);
        let decomp = Decomposition::single(Box3::cube(16));
        let fine = {
            let mut f = Level::new(
                &problem,
                decomp.clone(),
                0,
                0,
                4,
                BrickOrdering::SurfaceMajor,
            );
            f.r = BrickedField::from_fn(f.layout.clone(), |p| (p.x + 10 * p.y + 100 * p.z) as f64);
            f
        };
        let mut coarse = Level::new(
            &problem,
            decomp.coarsen(2),
            0,
            1,
            4,
            BrickOrdering::SurfaceMajor,
        );
        restriction(&fine, &mut coarse);
        coarse.owned.for_each(|c| {
            let mut sum = 0.0;
            for dz in 0..2 {
                for dy in 0..2 {
                    for dx in 0..2 {
                        sum += fine
                            .r
                            .get(Point3::new(2 * c.x + dx, 2 * c.y + dy, 2 * c.z + dz));
                    }
                }
            }
            assert!((coarse.b.get(c) - sum / 8.0).abs() < 1e-12, "at {c:?}");
        });
    }

    #[test]
    fn interpolation_increments_piecewise_constant() {
        let problem = PoissonProblem::new(16);
        let decomp = Decomposition::single(Box3::cube(16));
        let mut fine = Level::new(
            &problem,
            decomp.clone(),
            0,
            0,
            4,
            BrickOrdering::SurfaceMajor,
        );
        fine.x = BrickedField::from_fn(fine.layout.clone(), |_| 1.0);
        let mut coarse = Level::new(
            &problem,
            decomp.coarsen(2),
            0,
            1,
            4,
            BrickOrdering::SurfaceMajor,
        );
        coarse.x = BrickedField::from_fn(coarse.layout.clone(), |p| (p.x + p.y + p.z) as f64);
        interpolation_increment(&coarse, &mut fine);
        fine.owned.for_each(|p| {
            let c = p.div_floor(Point3::splat(2));
            let expect = 1.0 + (c.x + c.y + c.z) as f64;
            assert!((fine.x.get(p) - expect).abs() < 1e-12, "at {p:?}");
        });
        assert_eq!(fine.margin, 0, "interpolation invalidates the ghost shell");
    }

    #[test]
    fn inter_level_ops_bit_identical_to_per_cell_reference() {
        // Every brick-dim pairing a hierarchy produces (the fine dim is
        // even on every level that restricts): same bits as the per-cell
        // `dz → dy → dx` fold / per-cell increment.
        let f = |p: Point3| ((p.x * 7 + p.y * 3 - p.z * 5) % 13) as f64 / 3.0 + 0.1;
        for (n, bd_f, bd_c) in [(16, 8, 8), (16, 4, 8), (8, 8, 4), (4, 2, 2), (4, 2, 1)] {
            let problem = PoissonProblem::new(n);
            let decomp = Decomposition::single(Box3::cube(n));
            let ord = BrickOrdering::SurfaceMajor;
            let mut fine = Level::new(&problem, decomp.clone(), 0, 0, bd_f, ord);
            let mut coarse = Level::new(&problem, decomp.coarsen(2), 0, 1, bd_c, ord);
            fine.r = BrickedField::from_fn(fine.layout.clone(), f);
            coarse.b.fill(f64::NAN);
            restriction(&fine, &mut coarse);
            coarse.owned.for_each(|c| {
                let mut sum = 0.0;
                for dz in 0..2 {
                    for dy in 0..2 {
                        for dx in 0..2 {
                            sum += fine.r.get(c * 2 + Point3::new(dx, dy, dz));
                        }
                    }
                }
                assert_eq!(
                    coarse.b.get(c),
                    0.125 * sum,
                    "restriction {bd_f}->{bd_c} at {c:?}"
                );
            });
            coarse.x = BrickedField::from_fn(coarse.layout.clone(), f);
            fine.x = BrickedField::from_fn(fine.layout.clone(), |p| f(p) - 2.0);
            let before = fine.x.clone();
            interpolation_increment(&coarse, &mut fine);
            fine.layout.storage_cell_box().for_each(|p| {
                let expect = if fine.owned.contains(p) {
                    before.get(p) + coarse.x.get(p.div_floor(Point3::splat(2)))
                } else {
                    before.get(p)
                };
                assert_eq!(
                    fine.x.get(p),
                    expect,
                    "interpolation {bd_c}->{bd_f} at {p:?}"
                );
            });
        }
    }

    #[test]
    fn restricting_pass_bit_identical_to_store_then_restriction() {
        // The oracle of the communication-avoiding pass that restricts as it
        // goes is the two-step path it replaces: a storing group, then
        // `restriction` over the stored `r`. Every brick-dim pair a
        // hierarchy produces, both orderings, rank 0 of the 1×1×1, 2×1×1
        // and 2×2×2 rank grids (a ghost shell on 0, 1 and 3 axes), every
        // group depth the shell allows, with `y` (the `ax` buffer) and the
        // coarse `b` NaN on entry: the coarse owned cells and the fine
        // iterate match bit for bit, the coarse ghost shell is untouched,
        // and `r` is never allocated.
        let f = |p: Point3| ((p.x * 7 + p.y * 3 - p.z * 5) % 13) as f64 / 3.0 + 0.1;
        let g = |p: Point3| ((p.x * 2 - p.y * 5 + p.z * 11) % 9) as f64 - 1.25;
        for (sub, bd_f, bd_c) in [(16, 8, 8), (8, 8, 4), (8, 4, 4), (4, 4, 2), (2, 2, 1)] {
            for ord in [BrickOrdering::SurfaceMajor, BrickOrdering::Lexicographic] {
                for grid in [Point3::splat(1), Point3::new(2, 1, 1), Point3::splat(2)] {
                    let n = sub * grid.x;
                    let problem = PoissonProblem::new(n);
                    let decomp = Decomposition::new(Box3::cube(n), grid);
                    let pair = || {
                        let mut fine = Level::new(&problem, decomp.clone(), 0, 0, bd_f, ord);
                        fine.x = BrickedField::from_fn(fine.layout.clone(), f);
                        fine.b = BrickedField::from_fn(fine.layout.clone(), g);
                        let coarse = Level::new(&problem, decomp.coarsen(2), 0, 1, bd_c, ord);
                        (fine, coarse)
                    };
                    for s in 1..=bd_f.min(4) as usize {
                        let case = format!("{bd_f}->{bd_c} {ord:?} {grid:?} s={s}");
                        let (mut a, mut ca) = pair();
                        let region = a.layout.grow_halo(a.owned, s as i64 - 1);
                        let stored = a.fused_multi_smooth(region, s, a.gamma, true);
                        restriction(&a, &mut ca);
                        let (mut b, mut cb) = pair();
                        b.ax.fill(f64::NAN);
                        cb.b.fill(f64::NAN);
                        let fused = b.fused_multi_smooth_restrict(region, s, b.gamma, &mut cb);
                        assert!(!b.r.is_allocated(), "{case}");
                        cb.layout.storage_cell_box().for_each(|c| {
                            if cb.owned.contains(c) {
                                assert_eq!(
                                    ca.b.get(c).to_bits(),
                                    cb.b.get(c).to_bits(),
                                    "{c:?} {case}"
                                );
                            } else {
                                assert!(cb.b.get(c).is_nan(), "ghost {c:?} written: {case}");
                            }
                        });
                        a.owned.for_each(|p| {
                            assert_eq!(a.x.get(p).to_bits(), b.x.get(p).to_bits(), "{p:?} {case}");
                        });
                        // The coarse writes (|owned|/8) replace the `r` store,
                        // and the fold adds one flop per point and one per
                        // coarse cell.
                        let owned = a.owned.volume() as u64;
                        assert_eq!(fused.points_updated, stored.points_updated, "{case}");
                        assert_eq!(fused.doubles_read, stored.doubles_read, "{case}");
                        assert_eq!(
                            fused.doubles_written,
                            stored.doubles_written - owned + owned / 8,
                            "{case}"
                        );
                        assert_eq!(fused.flops, stored.flops + owned + owned / 8, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_field_is_allocated_by_its_first_writer() {
        let mut l = single_level(8, 4, 0);
        assert!(!l.r.is_allocated());
        assert!(l.r.as_slice().is_empty());
        l.fused_multi_smooth(l.owned, 2, l.gamma, false);
        let mut coarse = single_level(4, 2, 1);
        l.fused_multi_smooth_restrict(l.owned, 1, l.gamma, &mut coarse);
        assert!(!l.r.is_allocated(), "no storing op ran");
        l.fused_multi_smooth(l.owned, 1, l.gamma, true);
        assert_eq!(l.r.as_slice().len(), l.layout.storage_cells());
    }

    #[test]
    fn restriction_then_interpolation_preserves_constants() {
        // R then I on a constant field reproduces the constant exactly
        // (consistency of the inter-grid pair).
        let problem = PoissonProblem::new(8);
        let decomp = Decomposition::single(Box3::cube(8));
        let mut fine = Level::new(
            &problem,
            decomp.clone(),
            0,
            0,
            4,
            BrickOrdering::SurfaceMajor,
        );
        fine.r = BrickedField::from_fn(fine.layout.clone(), |_| 5.0);
        let mut coarse = Level::new(
            &problem,
            decomp.coarsen(2),
            0,
            1,
            4,
            BrickOrdering::SurfaceMajor,
        );
        restriction(&fine, &mut coarse);
        coarse.owned.for_each(|c| {
            assert!((coarse.b.get(c) - 5.0).abs() < 1e-12);
        });
        // Copy b into x (as a direct bottom solve of A·x = b would not do
        // for constants, but we are testing transfer consistency).
        coarse.x = coarse.b.clone();
        fine.init_zero();
        interpolation_increment(&coarse, &mut fine);
        fine.owned.for_each(|p| {
            assert!((fine.x.get(p) - 5.0).abs() < 1e-12);
        });
    }

    #[test]
    fn ca_smoothing_matches_non_ca() {
        // 2×1×1 ranks (a halo on x, the adjacency wrapping y and z): 4 CA
        // smooths after one exchange, over regions shrinking on x, must
        // leave exactly the owned values of exchange-every-step.
        use crate::ops::exchange_x;
        use gmg_comm::runtime::RankWorld;
        let n = 16;
        let problem = PoissonProblem::new(n);
        let decomp = Decomposition::new(Box3::cube(n), Point3::new(2, 1, 1));
        let (pr, d) = (&problem, &decomp);
        RankWorld::run(2, move |mut ctx| {
            let mk = || {
                let mut l =
                    Level::new(pr, d.clone(), ctx.rank(), 0, 4, BrickOrdering::SurfaceMajor);
                assert_eq!(l.layout.wrap(), [false, true, true]);
                l.b = BrickedField::from_fn(l.layout.clone(), |p| {
                    pr.rhs(p.rem_euclid(Point3::splat(n)))
                });
                l.init_zero();
                l
            };
            let mut ca = mk();
            let mut plain = mk();
            exchange_x(&mut ctx, &mut ca, 1);
            let region = ca.layout.grow_halo(ca.owned, ca.margin - 1);
            ca.fused_multi_smooth(region, 4, ca.gamma, false);
            for k in 0..4 {
                exchange_x(&mut ctx, &mut plain, 2 + k);
                plain.fused_multi_smooth(plain.owned, 1, plain.gamma, false);
            }
            plain.owned.for_each(|p| {
                assert_eq!(ca.x.get(p), plain.x.get(p), "x differs at {p:?}");
            });
        });
    }
}
