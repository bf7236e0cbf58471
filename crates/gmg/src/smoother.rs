//! Alternative smoothers.
//!
//! The paper uses point Jacobi and notes that "alternative smoothers could
//! include successive over-relaxation or Gauss-Seidel with similar
//! performance characteristics", and lists exploring other smoothers as
//! future work. This module implements that exploration:
//!
//! * [`Smoother::Jacobi`] — the paper's `x := x + γ(Ax − b)`, γ = h²/12.
//! * [`Smoother::WeightedJacobi`] — the same update with a configurable
//!   damping ω (γ = ω·h²/6; ω = ½ recovers the paper's smoother).
//! * [`Smoother::RedBlackGaussSeidel`] — two half-sweeps over the
//!   red/black cell coloring. Because every neighbor of a red cell is
//!   black, each half-sweep is a *pointwise* update over a fresh `Ax` —
//!   the same fused-kernel structure as Jacobi, at twice the applyOp
//!   traffic but markedly better per-sweep damping.
//! * [`Smoother::Sor`] — red-black SOR: Gauss-Seidel half-sweeps with
//!   over-relaxation ω.
//!
//! All smoothers consume one ghost-margin cell per *sweep component* that
//! reads neighbors, so communication-avoiding bookkeeping stays uniform:
//! [`Smoother::margin_per_iteration`] tells the solver how much margin one
//! smoothing iteration costs.

use crate::level::Level;
use gmg_mesh::Box3;
use gmg_stencil::exec_brick::pointwise_mut1;

/// Smoother selection for the V-cycle.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Smoother {
    /// The paper's point Jacobi, `x += γ(Ax − b)` with `γ = h²/12`.
    #[default]
    Jacobi,
    /// Damped Jacobi with weight `omega` (`omega = 0.5` ≡ [`Smoother::Jacobi`]).
    WeightedJacobi { omega: f64 },
    /// Red-black Gauss-Seidel (two colored half-sweeps per iteration).
    RedBlackGaussSeidel,
    /// Red-black successive over-relaxation with weight `omega`.
    Sor { omega: f64 },
}

impl Smoother {
    /// Ghost-margin cells consumed by one smoothing iteration (the number
    /// of neighbor-reading applyOp passes it makes).
    pub fn margin_per_iteration(&self) -> i64 {
        match self {
            Smoother::Jacobi | Smoother::WeightedJacobi { .. } => 1,
            Smoother::RedBlackGaussSeidel | Smoother::Sor { .. } => 2,
        }
    }

    /// The fused multi-smooth executor handles the Jacobi family
    /// (pointwise updates over a fresh `Ax`, one margin cell per
    /// iteration). Returns the effective γ it must apply given the
    /// level's paper γ = h²/12, or `None` for the colored smoothers,
    /// whose two neighbor-reading half-sweeps don't fuse.
    pub fn fused_gamma(&self, level_gamma: f64) -> Option<f64> {
        match *self {
            Smoother::Jacobi => Some(level_gamma),
            Smoother::WeightedJacobi { omega } => Some(omega * level_gamma / 0.5),
            Smoother::RedBlackGaussSeidel | Smoother::Sor { .. } => None,
        }
    }

    /// Display name (for timers and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Smoother::Jacobi => "jacobi",
            Smoother::WeightedJacobi { .. } => "weighted-jacobi",
            Smoother::RedBlackGaussSeidel => "rb-gauss-seidel",
            Smoother::Sor { .. } => "rb-sor",
        }
    }

    /// Run one smoothing iteration at `level` over `region`, optionally
    /// producing the fused residual (matching the paper's
    /// `smooth+residual`). Requires `x` valid on
    /// `region.grow(margin_per_iteration())`; updates `level.ax` as a side
    /// effect (it holds the most recent operator application).
    pub fn apply(&self, level: &mut Level, region: Box3, with_residual: bool) {
        match *self {
            Smoother::Jacobi => {
                level.apply_op(region);
                if with_residual {
                    level.smooth_residual(region);
                } else {
                    level.smooth(region);
                }
            }
            Smoother::WeightedJacobi { omega } => {
                level.apply_op(region);
                let gamma = omega * level.gamma / 0.5; // γ(ω) = ω·h²/6
                if with_residual {
                    weighted_update_with_residual(level, region, gamma);
                } else {
                    weighted_update(level, region, gamma);
                }
            }
            Smoother::RedBlackGaussSeidel => {
                self.red_black(level, region, 1.0, with_residual);
            }
            Smoother::Sor { omega } => {
                self.red_black(level, region, omega, with_residual);
            }
        }
    }

    /// Two colored half-sweeps. The GS update for cell `c` is
    /// `x_c ← (b − β·Σ x_nbr)/α = x_c + (b − Ax)_c / α`, which is
    /// pointwise given a fresh `Ax` because all neighbors have the other
    /// color. Over-relaxation scales the correction by ω.
    ///
    /// Geometry note: the *red* half-sweep must only read black neighbors
    /// with valid data, so the red pass runs on `region` (after an
    /// applyOp over `region`), and the black pass re-applies the operator
    /// on `region` shrunk by one cell on the halo axes — hence the 2-cell
    /// margin per iteration.
    fn red_black(&self, level: &mut Level, region: Box3, omega: f64, with_residual: bool) {
        let alpha = level.alpha;
        // Red pass (parity 0).
        level.apply_op(region);
        colored_update(level, region, omega / alpha, 0);
        // Black pass on the shrunk region with refreshed Ax.
        let inner = level.layout.grow_halo(region, -1).intersect(&region);
        let inner = if inner.is_empty() { region } else { inner };
        level.apply_op(inner);
        colored_update(level, inner, omega / alpha, 1);
        if with_residual {
            level.residual(inner);
        }
    }
}

fn weighted_update(level: &mut Level, region: Box3, gamma: f64) {
    let pieces = level.layout.slots_intersecting(region);
    pointwise_mut1(
        &mut level.x,
        &level.ax,
        &level.b,
        &pieces,
        move |x, ax, b| {
            *x += gamma * (ax - b);
        },
    );
}

fn weighted_update_with_residual(level: &mut Level, region: Box3, gamma: f64) {
    let pieces = level.layout.slots_intersecting(region);
    gmg_stencil::exec_brick::pointwise_mut2(
        &mut level.x,
        &mut level.r,
        &level.ax,
        &level.b,
        &pieces,
        move |x, r, ax, b| {
            *r = b - ax;
            *x += gamma * (ax - b);
        },
    );
}

/// Update only cells of the given parity: `x += scale·(b − Ax)` where
/// `scale = ω/α` (note `α < 0`, so this is a descent step).
fn colored_update(level: &mut Level, region: Box3, scale: f64, parity: i64) {
    let layout = level.layout.clone();
    let bd = layout.brick_dim();
    let bvol = layout.brick_volume();
    let pieces = layout.slots_intersecting(region);
    let ax = level.ax.as_slice();
    let b_slice = level.b.as_slice();
    level.x.update_bricks(&pieces, |slot, sub, out| {
        let base = slot as usize * bvol;
        let cells = layout.cells_of_slot(slot);
        for z in sub.lo.z..sub.hi.z {
            for y in sub.lo.y..sub.hi.y {
                for x in sub.lo.x..sub.hi.x {
                    if (x + y + z).rem_euclid(2) != parity {
                        continue;
                    }
                    let l = gmg_mesh::Point3::new(x, y, z) - cells.lo;
                    let i = base + ((l.z * bd + l.y) * bd + l.x) as usize;
                    out[i - base] += scale * (b_slice[i] - ax[i]);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::PoissonProblem;
    use gmg_brick::{BrickOrdering, BrickedField};
    use gmg_mesh::{Decomposition, Point3};

    fn setup(n: i64) -> Level {
        let problem = PoissonProblem::new(n);
        let decomp = Decomposition::single(Box3::cube(n));
        let mut l = Level::new(&problem, decomp, 0, 0, 4, BrickOrdering::SurfaceMajor);
        let pr = problem;
        l.b = BrickedField::from_fn(l.layout.clone(), move |p| {
            pr.rhs(p.rem_euclid(Point3::splat(n)))
        });
        l.init_zero();
        l
    }

    fn residual_after(smoother: Smoother, sweeps: usize) -> f64 {
        let n = 16;
        let mut l = setup(n);
        for _ in 0..sweeps {
            // A single-rank level has no halo axis: both colored passes
            // cover the owned box and read across the seam.
            let owned = l.owned;
            smoother.apply(&mut l, owned, false);
        }
        l.apply_op(l.owned);
        l.residual(l.owned);
        l.max_norm_r()
    }

    #[test]
    fn weighted_jacobi_half_equals_paper_jacobi() {
        let a = residual_after(Smoother::Jacobi, 4);
        let b = residual_after(Smoother::WeightedJacobi { omega: 0.5 }, 4);
        assert!((a - b).abs() < 1e-13, "{a} vs {b}");
    }

    #[test]
    fn all_smoothers_reduce_residual() {
        let initial = 1.0; // |b|_inf with x = 0
        for s in [
            Smoother::Jacobi,
            Smoother::WeightedJacobi { omega: 0.7 },
            Smoother::RedBlackGaussSeidel,
            Smoother::Sor { omega: 1.3 },
        ] {
            let r = residual_after(s, 6);
            assert!(r < initial, "{}: residual {r}", s.name());
        }
    }

    #[test]
    fn gauss_seidel_beats_jacobi_as_vcycle_smoother() {
        // The meaningful comparison is the V-cycle convergence factor:
        // red-black GS damps the oscillatory error modes the coarse grid
        // cannot represent more strongly than damped Jacobi.
        use crate::solver::{GmgSolver, SolverConfig};
        use gmg_comm::runtime::RankWorld;
        let reduction = |sm: Smoother| {
            let decomp = Decomposition::single(Box3::cube(32));
            let cfg = SolverConfig {
                num_levels: 3,
                max_smooths: 2,
                bottom_smooths: 20,
                tolerance: 0.0,
                max_vcycles: 4,
                smoother: sm,
                ..SolverConfig::test_default()
            };
            let d = &decomp;
            RankWorld::run(1, move |mut ctx| {
                let mut s = GmgSolver::new(d.clone(), ctx.rank(), cfg);
                s.solve(&mut ctx).mean_reduction()
            })[0]
        };
        let j = reduction(Smoother::Jacobi);
        let gs = reduction(Smoother::RedBlackGaussSeidel);
        assert!(
            gs < j,
            "GS V-cycle reduction {gs:.3} should beat Jacobi {j:.3}"
        );
    }

    #[test]
    fn sor_overrelaxation_accelerates_low_frequency_decay() {
        // On the smooth eigenmode, over-relaxation (ω > 1) converges
        // faster than plain GS.
        let gs = residual_after(Smoother::RedBlackGaussSeidel, 6);
        let sor = residual_after(Smoother::Sor { omega: 1.4 }, 6);
        assert!(sor < gs, "SOR {sor} vs GS {gs}");
    }

    #[test]
    fn margin_accounting() {
        assert_eq!(Smoother::Jacobi.margin_per_iteration(), 1);
        assert_eq!(Smoother::RedBlackGaussSeidel.margin_per_iteration(), 2);
        assert_eq!(Smoother::Sor { omega: 1.0 }.margin_per_iteration(), 2);
    }

    #[test]
    fn default_is_paper_smoother() {
        assert_eq!(Smoother::default(), Smoother::Jacobi);
        assert_eq!(Smoother::default().name(), "jacobi");
    }

    #[test]
    fn residual_flag_populates_r() {
        let n = 16;
        let mut l = setup(n);
        let region = l.owned;
        Smoother::RedBlackGaussSeidel.apply(&mut l, region, true);
        // r = b − Ax with the post-red-black Ax on the inner region; it
        // must be non-trivial (not all zeros).
        let m = l.max_norm_r();
        assert!(m > 0.0 && m.is_finite());
    }
}
