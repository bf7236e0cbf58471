//! The reference stencil interpreter: any [`StencilDef`] on either layout.
//!
//! [`run_stencil`] evaluates a definition point by point through
//! [`Expr::eval`](crate::expr::Expr::eval), reading and writing cells by
//! global index through [`StencilGrid`], which [`Array3`] and
//! [`BrickedField`] implement. Both layouts therefore run the same
//! arithmetic in the same order and agree bit for bit. Slow and obviously
//! correct: the fast 7-point kernels of [`crate::exec_array`] and
//! [`crate::exec_brick`] are validated against it, and any other operator
//! (variable coefficients, the 13-point star) runs through it.

use crate::expr::StencilDef;
use gmg_brick::BrickedField;
use gmg_mesh::{Array3, Box3, Point3};

/// The cell access [`run_stencil`] needs from a storage layout.
pub trait StencilGrid {
    /// The value at global cell `p`.
    fn read(&self, p: Point3) -> f64;
    /// Set the value at global cell `p`.
    fn write(&mut self, p: Point3, v: f64);
    /// True when every read within `radius` (per axis) of a cell of
    /// `region` lands in storage.
    fn covers(&self, region: Box3, radius: Point3) -> bool;
}

impl StencilGrid for Array3<f64> {
    #[inline]
    fn read(&self, p: Point3) -> f64 {
        self[p]
    }

    #[inline]
    fn write(&mut self, p: Point3, v: f64) {
        self[p] = v;
    }

    /// The storage box holds `region` grown by `radius`.
    fn covers(&self, region: Box3, radius: Point3) -> bool {
        let grown = Box3::new(region.lo - radius, region.hi + radius);
        self.storage_box().contains_box(&grown)
    }
}

impl StencilGrid for BrickedField {
    #[inline]
    fn read(&self, p: Point3) -> f64 {
        self.get(p)
    }

    #[inline]
    fn write(&mut self, p: Point3, v: f64) {
        self.set(p, v);
    }

    /// The radius fits in one brick and the layout serves the reads:
    /// inside the ghost shell on a halo axis, across the seam on a
    /// wrapped one.
    fn covers(&self, region: Box3, radius: Point3) -> bool {
        let r = radius.x.max(radius.y).max(radius.z);
        r <= self.layout().brick_dim() && self.layout().covers_reads(region, r)
    }
}

/// Execute `def` over `region` with the given bindings (all ordered to
/// match `def.inputs` / `def.coeffs` / `def.outputs`).
///
/// Evaluation is per point: all assignment expressions are evaluated before
/// any output is written, so an output grid may alias semantics with an
/// input *grid name* as long as distinct grids are passed (the usual
/// "x_out vs x" convention).
///
/// Inputs must cover `region` grown by the stencil radius
/// ([`StencilGrid::covers`]); outputs must cover `region`.
pub fn run_stencil<G: StencilGrid>(
    def: &StencilDef,
    inputs: &[&G],
    coeffs: &[f64],
    outputs: &mut [&mut G],
    region: Box3,
) {
    assert_eq!(inputs.len(), def.inputs.len(), "input binding count");
    assert_eq!(coeffs.len(), def.coeffs.len(), "coeff binding count");
    assert_eq!(outputs.len(), def.outputs.len(), "output binding count");
    let radius = def.analysis().radius;
    for (name, g) in def.inputs.iter().zip(inputs) {
        assert!(
            g.covers(region, radius),
            "input {name:?} does not cover {region:?} + {radius:?}"
        );
    }
    for (name, g) in def.outputs.iter().zip(outputs.iter()) {
        assert!(
            g.covers(region, Point3::zero()),
            "output {name:?} does not cover {region:?}"
        );
    }
    let mut values = vec![0.0; def.assignments.len()];
    region.for_each(|p| {
        for (v, a) in values.iter_mut().zip(&def.assignments) {
            *v = a
                .expr
                .eval(&|g, off| inputs[g].read(p + off), &|c| coeffs[c]);
        }
        for (&v, a) in values.iter().zip(&def.assignments) {
            outputs[a.output].write(p, v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{apply_op_def, smooth_residual_def};
    use gmg_brick::{BrickLayout, BrickOrdering};
    use std::sync::Arc;

    fn idx_fn(p: Point3) -> f64 {
        ((p.x * 7 + p.y * 3 - p.z * 5) % 13) as f64 + 0.5
    }

    #[test]
    fn interpreter_matches_manual_seven_point() {
        let def = apply_op_def();
        let v = Box3::cube(8);
        let src = Array3::from_fn(v, 1, idx_fn);
        let mut dst = Array3::new(v, 1);
        let (alpha, beta) = (-6.0, 1.0);
        run_stencil(&def, &[&src], &[alpha, beta], &mut [&mut dst], v);
        v.for_each(|p| {
            let expect = alpha * src[p]
                + beta
                    * (src[p + Point3::new(1, 0, 0)]
                        + src[p - Point3::new(1, 0, 0)]
                        + src[p + Point3::new(0, 1, 0)]
                        + src[p - Point3::new(0, 1, 0)]
                        + src[p + Point3::new(0, 0, 1)]
                        + src[p - Point3::new(0, 0, 1)]);
            assert!((dst[p] - expect).abs() < 1e-12, "at {p:?}");
        });
    }

    #[test]
    fn multi_output_interpreter() {
        let def = smooth_residual_def();
        let v = Box3::cube(4);
        let x = Array3::from_fn(v, 0, |p| p.x as f64);
        let ax = Array3::from_fn(v, 0, |p| (p.y) as f64);
        let b = Array3::from_fn(v, 0, |p| (p.z) as f64);
        let mut r = Array3::new(v, 0);
        let mut x_out = Array3::new(v, 0);
        let gamma = 0.5;
        run_stencil(&def, &[&x, &ax, &b], &[gamma], &mut [&mut r, &mut x_out], v);
        v.for_each(|p| {
            assert_eq!(r[p], b[p] - ax[p]);
            assert_eq!(x_out[p], x[p] + gamma * (ax[p] - b[p]));
        });
    }

    #[test]
    #[should_panic]
    fn missing_halo_panics() {
        let def = apply_op_def();
        let v = Box3::cube(4);
        let src = Array3::from_fn(v, 0, idx_fn); // no ghost!
        let mut dst = Array3::new(v, 0);
        run_stencil(&def, &[&src], &[-6.0, 1.0], &mut [&mut dst], v);
    }

    #[test]
    fn bricked_interpreter_matches_array_interpreter() {
        let def = apply_op_def();
        let n = 8;
        let layout = Arc::new(BrickLayout::new(
            Box3::cube(n),
            4,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        let src_b = BrickedField::from_fn(layout.clone(), idx_fn);
        let mut dst_b = BrickedField::new(layout);
        run_stencil(
            &def,
            &[&src_b],
            &[-6.0, 1.0],
            &mut [&mut dst_b],
            Box3::cube(n),
        );

        let src_a = Array3::from_fn(Box3::cube(n), 4, idx_fn);
        let mut dst_a = Array3::new(Box3::cube(n), 4);
        run_stencil(
            &def,
            &[&src_a],
            &[-6.0, 1.0],
            &mut [&mut dst_a],
            Box3::cube(n),
        );

        Box3::cube(n).for_each(|p| {
            assert_eq!(dst_b.get(p).to_bits(), dst_a[p].to_bits(), "at {p:?}");
        });
    }
}
