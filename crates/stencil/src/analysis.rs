//! Static analysis of stencil definitions.
//!
//! The machine model (and the paper's Table IV) needs, per stencil point:
//! FLOPs, the number of doubles that *must* move assuming an infinite,
//! fully-associative cache (compulsory misses only), and the resulting
//! theoretical arithmetic intensity. The analysis also derives the ghost
//! radius that drives halo depth requirements.

use crate::expr::{Expr, StencilDef};
use gmg_mesh::Point3;
use std::collections::BTreeSet;

/// Results of analysing a [`StencilDef`].
#[derive(Clone, Debug, PartialEq)]
pub struct StencilAnalysis {
    /// Arithmetic operations (add/sub/mul/neg) per evaluated point, over
    /// all assignments.
    pub flops_per_point: usize,
    /// Distinct `(grid, offset)` references per point (loads before any
    /// register/cache reuse).
    pub distinct_refs: usize,
    /// Total grid references per point (counting repeats — the loads a
    /// naive code generator would issue).
    pub total_refs: usize,
    /// Number of distinct input grids actually referenced.
    pub grids_read: usize,
    /// Number of output grids written.
    pub grids_written: usize,
    /// Ghost radius per axis: the maximum absolute offset used.
    pub radius: Point3,
    /// Doubles moved per point under compulsory-miss assumptions: each
    /// referenced input grid is read once per point (streamed), each output
    /// written once.
    pub doubles_moved_per_point: usize,
}

impl StencilAnalysis {
    /// Analyse `def`.
    pub fn of(def: &StencilDef) -> Self {
        let mut flops = 0usize;
        let mut refs: Vec<(usize, Point3)> = Vec::new();
        let mut grids = BTreeSet::new();
        let mut radius = Point3::zero();
        for a in &def.assignments {
            a.expr.visit(&mut |e| match e {
                Expr::Add(..) | Expr::Sub(..) | Expr::Mul(..) | Expr::Neg(..) => flops += 1,
                Expr::Grid { grid, offset } => {
                    refs.push((*grid, *offset));
                    grids.insert(*grid);
                    radius =
                        radius.max(Point3::new(offset.x.abs(), offset.y.abs(), offset.z.abs()));
                }
                _ => {}
            });
        }
        let total_refs = refs.len();
        let distinct: BTreeSet<_> = refs.iter().map(|(g, o)| (*g, (o.x, o.y, o.z))).collect();
        let grids_read = grids.len();
        let grids_written = def.outputs.len();
        Self {
            flops_per_point: flops,
            distinct_refs: distinct.len(),
            total_refs,
            grids_read,
            grids_written,
            radius,
            // Streaming model: one read per referenced input grid per point
            // (neighboring points' reads hit cache), one write per output.
            doubles_moved_per_point: grids_read + grids_written,
        }
    }

    /// Theoretical (compulsory-miss) arithmetic intensity in FLOP/byte for
    /// double precision.
    pub fn theoretical_ai(&self) -> f64 {
        self.flops_per_point as f64 / (8.0 * self.doubles_moved_per_point as f64)
    }

    /// The "array common subexpression" reuse factor BrickLib's vector code
    /// generator exploits: total references divided by references after
    /// inter-point reuse (each grid loaded once per point). A 7-point
    /// stencil has factor 7 — seven loads collapse to one streamed read.
    pub fn reuse_factor(&self) -> f64 {
        if self.grids_read == 0 {
            return 1.0;
        }
        self.total_refs as f64 / self.grids_read as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::StencilDef;

    fn seven_point() -> StencilDef {
        StencilDef::build("applyOp", |b| {
            let x = b.input("x");
            let alpha = b.coeff("alpha");
            let beta = b.coeff("beta");
            let calc = alpha * x.at(0, 0, 0)
                + beta
                    * ((x.at(1, 0, 0) + x.at(-1, 0, 0))
                        + (x.at(0, 1, 0) + x.at(0, -1, 0))
                        + (x.at(0, 0, 1) + x.at(0, 0, -1)));
            b.assign("Ax", calc);
        })
    }

    #[test]
    fn seven_point_analysis() {
        let a = seven_point().analysis();
        // Factored: 2 muls + 6 adds.
        assert_eq!(a.flops_per_point, 8);
        assert_eq!(a.distinct_refs, 7);
        assert_eq!(a.total_refs, 7);
        assert_eq!(a.grids_read, 1);
        assert_eq!(a.grids_written, 1);
        assert_eq!(a.radius, Point3::splat(1));
        assert_eq!(a.doubles_moved_per_point, 2);
        // Paper Table IV: applyOp theoretical AI = 0.50.
        assert!((a.theoretical_ai() - 0.5).abs() < 1e-12);
        assert!((a.reuse_factor() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn pointwise_smooth_analysis() {
        // x := x + γ(Ax − b) as a pointwise stencil over precomputed Ax.
        let s = StencilDef::build("smooth", |b| {
            let x = b.input("x");
            let ax = b.input("Ax");
            let rhs = b.input("b");
            let gamma = b.coeff("gamma");
            b.assign(
                "x",
                x.at(0, 0, 0) + gamma * (ax.at(0, 0, 0) - rhs.at(0, 0, 0)),
            );
        });
        let a = s.analysis();
        assert_eq!(a.flops_per_point, 3); // sub, mul, add
        assert_eq!(a.radius, Point3::zero());
        assert_eq!(a.grids_read, 3);
        assert_eq!(a.grids_written, 1);
        assert_eq!(a.doubles_moved_per_point, 4);
    }

    #[test]
    fn high_order_radius() {
        let s = StencilDef::build("r2", |b| {
            let x = b.input("x");
            b.assign("y", x.at(2, 0, 0) + x.at(0, -2, 1));
        });
        let a = s.analysis();
        assert_eq!(a.radius, Point3::new(2, 2, 1));
        assert_eq!(a.flops_per_point, 1);
        assert_eq!(a.distinct_refs, 2);
    }

    #[test]
    fn repeated_refs_counted_once_in_distinct() {
        let s = StencilDef::build("rep", |b| {
            let x = b.input("x");
            b.assign("y", x.at(0, 0, 0) * x.at(0, 0, 0) + x.at(1, 0, 0));
        });
        let a = s.analysis();
        assert_eq!(a.total_refs, 3);
        assert_eq!(a.distinct_refs, 2);
    }

    #[test]
    fn multi_output_counts_all_assignments() {
        let s = StencilDef::build("sr", |b| {
            let x = b.input("x");
            let ax = b.input("Ax");
            let rhs = b.input("b");
            let gamma = b.coeff("gamma");
            b.assign("res", rhs.at(0, 0, 0) - ax.at(0, 0, 0));
            b.assign(
                "x",
                x.at(0, 0, 0) + gamma * (ax.at(0, 0, 0) - rhs.at(0, 0, 0)),
            );
        });
        let a = s.analysis();
        assert_eq!(a.flops_per_point, 4); // 1 sub + (sub, mul, add)
        assert_eq!(a.grids_read, 3);
        assert_eq!(a.grids_written, 2);
        assert_eq!(a.doubles_moved_per_point, 5);
    }

    #[test]
    fn coeff_only_stencil_moves_output_only() {
        let s = StencilDef::build("zero", |b| {
            b.assign("x", b.constant(0.0));
        });
        let a = s.analysis();
        assert_eq!(a.flops_per_point, 0);
        assert_eq!(a.grids_read, 0);
        assert_eq!(a.doubles_moved_per_point, 1);
        assert_eq!(a.reuse_factor(), 1.0);
    }
}
