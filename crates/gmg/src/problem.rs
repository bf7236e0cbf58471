//! The paper's model problem: 3D Poisson on the periodic unit cube.

use gmg_mesh::{Box3, Point3};
use std::f64::consts::PI;

/// Constant-coefficient Poisson problem definition (paper Section IV-C).
///
/// The operator is the standard 7-point stencil with center coefficient
/// `α = −6/h²` and neighbor coefficient `β = 1/h²`; the smoother is point
/// Jacobi `x := x + γ(Ax − b)` with `γ = h²/12` (weighted Jacobi, ω = ½).
#[derive(Clone, Copy, Debug)]
pub struct PoissonProblem {
    /// Cells per dimension on the finest grid (`h = 1/n`).
    pub n_finest: i64,
}

impl PoissonProblem {
    /// Problem on an `n³` finest grid.
    pub fn new(n_finest: i64) -> Self {
        assert!(n_finest >= 2);
        Self { n_finest }
    }

    /// Grid spacing at `level` (level 0 finest).
    pub fn h(&self, level: usize) -> f64 {
        (1 << level) as f64 / self.n_finest as f64
    }

    /// Center coefficient `α = −6/h²` at `level`.
    pub fn alpha(&self, level: usize) -> f64 {
        let h = self.h(level);
        -6.0 / (h * h)
    }

    /// Neighbor coefficient `β = 1/h²` at `level`.
    pub fn beta(&self, level: usize) -> f64 {
        let h = self.h(level);
        1.0 / (h * h)
    }

    /// Jacobi damping `γ = h²/12` at `level`.
    pub fn gamma(&self, level: usize) -> f64 {
        let h = self.h(level);
        h * h / 12.0
    }

    /// Right-hand side `b = sin(2πx)·sin(2πy)·sin(2πz)` evaluated at the
    /// center of finest-level cell `p` (cell-centered finite volume:
    /// coordinate `(i + ½)·h`). The per-cell reference for
    /// [`PoissonProblem::rhs_tables`].
    pub fn rhs(&self, p: Point3) -> f64 {
        let h = self.h(0);
        let c = |i: i64| (i as f64 + 0.5) * h;
        (2.0 * PI * c(p.x)).sin() * (2.0 * PI * c(p.y)).sin() * (2.0 * PI * c(p.z)).sin()
    }

    /// The right-hand side over the finest-level cells of `cells`, which
    /// may reach past the domain on any side: [`RhsTables::rhs`]`(p)` is
    /// `rhs(p.rem_euclid(n))` bit for bit, at three table loads and two
    /// multiplies per cell instead of three `sin`.
    pub fn rhs_tables(&self, cells: Box3) -> RhsTables {
        let (n, h) = (self.n_finest, self.h(0));
        // The same expression and association as `rhs`, once per index.
        let axis = |a: usize| -> Vec<f64> {
            (cells.lo[a]..cells.hi[a])
                .map(|i| (2.0 * PI * ((i.rem_euclid(n) as f64 + 0.5) * h)).sin())
                .collect()
        };
        RhsTables {
            lo: cells.lo,
            sines: [axis(0), axis(1), axis(2)],
        }
    }

    /// The analytic solution of `∇²u = b` for this right-hand side:
    /// `u = −b / (12π²)` (each sine contributes `−4π²`). Exact for the PDE;
    /// the discrete solution differs by O(h²) discretization error — useful
    /// for validating convergence *to the right answer*.
    pub fn exact_solution(&self, p: Point3) -> f64 {
        exact_from_rhs(self.rhs(p))
    }

    /// The discrete operator's symbol on the rhs mode: applying the 7-point
    /// operator at spacing `h` to the separable sine gives the eigenvalue
    /// `λ(h) = 2(cos(2πh) − 1)·3/h²`. The exact *discrete* solution is
    /// `x = b/λ`, which converging iterates approach up to roundoff.
    pub fn discrete_eigenvalue(&self) -> f64 {
        let h = self.h(0);
        6.0 * ((2.0 * PI * h).cos() - 1.0) / (h * h)
    }
}

/// `u = −b / (12π²)`: the PDE solution where the right-hand side is `b`.
fn exact_from_rhs(b: f64) -> f64 {
    -b / (12.0 * PI * PI)
}

/// The model problem's right-hand side tabulated per axis over a box of
/// finest-level cells (see [`PoissonProblem::rhs_tables`]): the separable
/// sine is one sine per axis, indexed by offset from the box's low corner.
#[derive(Clone, Debug)]
pub struct RhsTables {
    lo: Point3,
    sines: [Vec<f64>; 3],
}

impl RhsTables {
    /// `b` at cell `p` of the box, multiplied in `rhs`'s x·y·z order.
    /// Panics outside the box.
    #[inline]
    pub fn rhs(&self, p: Point3) -> f64 {
        let o = p - self.lo;
        let [x, y, z] = &self.sines;
        x[o.x as usize] * y[o.y as usize] * z[o.z as usize]
    }

    /// [`PoissonProblem::exact_solution`] at cell `p` of the box.
    #[inline]
    pub fn exact_solution(&self, p: Point3) -> f64 {
        exact_from_rhs(self.rhs(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_brick::{BrickLayout, BrickOrdering};
    use gmg_mesh::Decomposition;

    #[test]
    fn coefficients_match_paper() {
        let p = PoissonProblem::new(64);
        let h = 1.0 / 64.0;
        assert!((p.h(0) - h).abs() < 1e-15);
        assert!((p.alpha(0) + 6.0 / (h * h)).abs() < 1e-9);
        assert!((p.beta(0) - 1.0 / (h * h)).abs() < 1e-9);
        assert!((p.gamma(0) - h * h / 12.0).abs() < 1e-15);
        // Coarser levels double h.
        assert!((p.h(3) - 8.0 * h).abs() < 1e-15);
        assert!((p.alpha(1) + 6.0 / (4.0 * h * h)).abs() < 1e-9);
    }

    #[test]
    fn rhs_is_zero_mean_and_bounded() {
        let p = PoissonProblem::new(16);
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    let v = p.rhs(Point3::new(x, y, z));
                    sum += v;
                    max = max.max(v.abs());
                }
            }
        }
        assert!(sum.abs() < 1e-10, "mean {sum}");
        assert!(max <= 1.0 + 1e-12);
        assert!(max > 0.9, "the mode should reach near ±1");
    }

    #[test]
    fn rhs_is_periodic() {
        let p = PoissonProblem::new(8);
        for q in [Point3::new(0, 3, 5), Point3::new(7, 0, 1)] {
            let shifted = q + Point3::new(8, -8, 16);
            assert!((p.rhs(q) - p.rhs(shifted)).abs() < 1e-12);
        }
    }

    #[test]
    fn rhs_tables_are_bit_identical_to_rhs() {
        // Rank 0's level-0 storage on a 2×2×2 grid (a ghost shell below 0
        // on every axis), and a one-rank box grown past both sides at
        // n = 24, where h is inexact and regrouping the sine's argument
        // changes bits.
        let d = Decomposition::new(Box3::cube(16), Point3::splat(2));
        let shell = BrickLayout::with_wrap(
            d.subdomain(0),
            4,
            1,
            BrickOrdering::SurfaceMajor,
            d.self_neighbor_axes(),
        )
        .storage_cell_box();
        assert_eq!(shell, Box3::cube(8).grow(4));
        for (n, cells) in [(16, shell), (24, Box3::cube(24).grow(1))] {
            let pr = PoissonProblem::new(n);
            let tables = pr.rhs_tables(cells);
            cells.for_each(|p| {
                let q = p.rem_euclid(Point3::splat(n));
                assert_eq!(
                    tables.rhs(p).to_bits(),
                    pr.rhs(q).to_bits(),
                    "n={n} at {p:?}"
                );
                assert_eq!(
                    tables.exact_solution(p).to_bits(),
                    pr.exact_solution(q).to_bits()
                );
            });
        }
    }

    #[test]
    fn discrete_eigenvalue_approaches_continuum() {
        // λ → −12π² as h → 0.
        let coarse = PoissonProblem::new(16).discrete_eigenvalue();
        let fine = PoissonProblem::new(256).discrete_eigenvalue();
        let continuum = -12.0 * PI * PI;
        assert!((fine - continuum).abs() < (coarse - continuum).abs());
        assert!((fine / continuum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn exact_solution_satisfies_pde_sign() {
        // u and b have opposite signs (−∇² positive definite on this mode).
        let p = PoissonProblem::new(32);
        let q = Point3::new(3, 7, 11);
        assert!(p.rhs(q) * p.exact_solution(q) <= 0.0);
    }
}
