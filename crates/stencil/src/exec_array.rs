//! Stencil execution over conventional [`Array3`] storage.
//!
//! Two tiers:
//!
//! * [`run_stencil_array`] — a sequential reference interpreter for any
//!   [`StencilDef`]. Slow, obviously correct; every fast kernel in this
//!   workspace is validated against it.
//! * [`apply_star7_array`] — the hand-optimized 7-point kernel over the
//!   conventional layout, used by the HPGMG-style baseline. It is a tight
//!   row-wise sweep; its performance *relative to the bricked kernel* is
//!   what the layout benchmarks measure.

use crate::expr::StencilDef;
use gmg_mesh::{Array3, Box3, Point3};

/// Execute `def` over `region` with the given bindings (all ordered to
/// match `def.inputs` / `def.coeffs` / `def.outputs`).
///
/// Evaluation is per point: all assignment expressions are evaluated before
/// any output is written, so an output grid may alias semantics with an
/// input *grid name* as long as distinct arrays are passed (the usual
/// "x_out vs x" convention).
///
/// Inputs must cover `region` grown by the stencil radius; outputs must
/// cover `region`.
pub fn run_stencil_array(
    def: &StencilDef,
    inputs: &[&Array3<f64>],
    coeffs: &[f64],
    outputs: &mut [&mut Array3<f64>],
    region: Box3,
) {
    assert_eq!(inputs.len(), def.inputs.len(), "input binding count");
    assert_eq!(coeffs.len(), def.coeffs.len(), "coeff binding count");
    assert_eq!(outputs.len(), def.outputs.len(), "output binding count");
    let radius = def.analysis().radius;
    let grown = Box3::new(region.lo - radius, region.hi + radius);
    for (i, a) in inputs.iter().enumerate() {
        assert!(
            a.storage_box().contains_box(&grown),
            "input {:?} does not cover {grown:?}",
            def.inputs[i]
        );
    }
    for (i, a) in outputs.iter().enumerate() {
        assert!(
            a.storage_box().contains_box(&region),
            "output {:?} does not cover {region:?}",
            def.outputs[i]
        );
    }
    let mut values = vec![0.0; def.assignments.len()];
    region.for_each(|p| {
        for (vi, a) in def.assignments.iter().enumerate() {
            values[vi] = a.expr.eval(&|g, off| inputs[g][p + off], &|c| coeffs[c]);
        }
        for (vi, a) in def.assignments.iter().enumerate() {
            outputs[a.output][p] = values[vi];
        }
    });
}

/// Fast 7-point constant-coefficient apply over conventional arrays:
/// `dst[p] = alpha·src[p] + beta·Σ src[p ± e]` for `p ∈ region`, row by row.
///
/// `src` must be valid on `region.grow(1)`.
pub fn apply_star7_array(
    dst: &mut Array3<f64>,
    src: &Array3<f64>,
    alpha: f64,
    beta: f64,
    region: Box3,
) {
    assert!(
        src.storage_box().contains_box(&region.grow(1)),
        "src does not cover {:?}",
        region.grow(1)
    );
    assert!(
        dst.storage_box().contains_box(&region),
        "dst does not cover {region:?}"
    );
    assert_eq!(
        src.storage_box(),
        dst.storage_box(),
        "src/dst layouts must match for the fast path"
    );
    if region.is_empty() {
        return;
    }
    let [_, sy, sz] = src.strides();
    let s = src.as_slice();
    // The array kernel is one unit-stride stream: its whole body is
    // "interior" work, with no adjacency or index sub-phases.
    let _kernel = gmg_prof::phase(gmg_prof::APPLYOP_ARRAY);
    let _p = gmg_prof::phase(gmg_prof::ARRAY_INTERIOR);
    let n = (region.hi.x - region.lo.x) as usize;
    // Safety-free formulation: compute each x-row via slice windows.
    for z in region.lo.z..region.hi.z {
        for y in region.lo.y..region.hi.y {
            // src and dst share a storage box, so one offset serves both.
            let g = src.offset(Point3::new(region.lo.x, y, z));
            let c = &s[g..g + n];
            let xm = &s[g - 1..g - 1 + n];
            let xp = &s[g + 1..g + 1 + n];
            let ym = &s[g - sy..g - sy + n];
            let yp = &s[g + sy..g + sy + n];
            let zm = &s[g - sz..g - sz + n];
            let zp = &s[g + sz..g + sz + n];
            let out = &mut dst.as_mut_slice()[g..g + n];
            for i in 0..n {
                out[i] =
                    alpha * c[i] + beta * ((xm[i] + xp[i]) + (ym[i] + yp[i]) + (zm[i] + zp[i]));
            }
        }
    }
}

/// Fast variable-coefficient 7-point apply over conventional arrays
/// (face-averaged cell-centered β) — the array-layout twin of
/// `gmg_stencil::exec_brick::apply_star7_var_bricked`.
pub fn apply_star7_var_array(
    dst: &mut Array3<f64>,
    x: &Array3<f64>,
    beta: &Array3<f64>,
    inv_h2: f64,
    region: Box3,
) {
    assert!(x.storage_box().contains_box(&region.grow(1)));
    assert!(beta.storage_box().contains_box(&region.grow(1)));
    assert_eq!(x.storage_box(), dst.storage_box());
    let offsets = [
        Point3::new(1, 0, 0),
        Point3::new(-1, 0, 0),
        Point3::new(0, 1, 0),
        Point3::new(0, -1, 0),
        Point3::new(0, 0, 1),
        Point3::new(0, 0, -1),
    ];
    region.for_each(|p| {
        let xc = x[p];
        let bc = beta[p];
        let mut sum = 0.0;
        for d in offsets {
            sum += 0.5 * (bc + beta[p + d]) * (x[p + d] - xc);
        }
        dst[p] = inv_h2 * sum;
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::apply_op_def;

    fn idx_fn(p: Point3) -> f64 {
        (p.x * p.x + 2 * p.y - p.z * p.x) as f64
    }

    #[test]
    fn interpreter_matches_manual_seven_point() {
        let def = apply_op_def();
        let v = Box3::cube(8);
        let src = Array3::from_fn(v, 1, idx_fn);
        let mut dst = Array3::new(v, 1);
        let (alpha, beta) = (-6.0, 1.0);
        run_stencil_array(&def, &[&src], &[alpha, beta], &mut [&mut dst], v);
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
    fn fast_star7_matches_interpreter() {
        let def = apply_op_def();
        let v = Box3::cube(12);
        let src = Array3::from_fn(v, 1, idx_fn);
        let mut ref_dst = Array3::new(v, 1);
        let mut fast_dst = Array3::new(v, 1);
        run_stencil_array(&def, &[&src], &[-6.0, 1.0], &mut [&mut ref_dst], v);
        apply_star7_array(&mut fast_dst, &src, -6.0, 1.0, v);
        v.for_each(|p| assert_eq!(fast_dst[p], ref_dst[p], "at {p:?}"));
    }

    #[test]
    fn fast_star7_subregion_only_touches_region() {
        let v = Box3::cube(8);
        let src = Array3::from_fn(v, 1, |_| 1.0);
        let mut dst = Array3::new(v, 1);
        let sub = Box3::new(Point3::splat(2), Point3::splat(6));
        apply_star7_array(&mut dst, &src, -6.0, 1.0, sub);
        v.for_each(|p| {
            if sub.contains(p) {
                assert_eq!(dst[p], 0.0 * 1.0); // -6 + 6 = 0
            } else {
                assert_eq!(dst[p], 0.0);
            }
        });
    }

    #[test]
    fn var_coeff_array_matches_interpreter() {
        let def = crate::ops::apply_op_var_def();
        let v = Box3::cube(8);
        let x = Array3::from_fn(v, 1, idx_fn);
        let beta = Array3::from_fn(v, 1, |p| 1.0 + 0.1 * ((p.x - p.y + p.z) % 4) as f64);
        let inv_h2 = 9.0;
        let mut fast = Array3::new(v, 1);
        apply_star7_var_array(&mut fast, &x, &beta, inv_h2, v);
        let mut reference = Array3::new(v, 1);
        run_stencil_array(&def, &[&x, &beta], &[inv_h2], &mut [&mut reference], v);
        v.for_each(|p| {
            assert!((fast[p] - reference[p]).abs() < 1e-9, "at {p:?}");
        });
    }

    #[test]
    fn multi_output_interpreter() {
        let def = crate::ops::smooth_residual_def();
        let v = Box3::cube(4);
        let x = Array3::from_fn(v, 0, |p| p.x as f64);
        let ax = Array3::from_fn(v, 0, |p| (p.y) as f64);
        let b = Array3::from_fn(v, 0, |p| (p.z) as f64);
        let mut r = Array3::new(v, 0);
        let mut x_out = Array3::new(v, 0);
        let gamma = 0.5;
        run_stencil_array(&def, &[&x, &ax, &b], &[gamma], &mut [&mut r, &mut x_out], v);
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
        run_stencil_array(&def, &[&src], &[-6.0, 1.0], &mut [&mut dst], v);
    }
}
