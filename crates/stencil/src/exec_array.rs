//! The fast 7-point kernel over conventional [`Array3`] storage.
//!
//! [`apply_star7_array`] is the hand-optimized 7-point kernel over the
//! conventional layout, used by the HPGMG-style baseline. It is a tight
//! row-wise sweep; its performance *relative to the bricked kernel* is
//! what the layout benchmarks measure. Any other stencil runs on arrays
//! through the reference interpreter, [`crate::interp::run_stencil`].

use gmg_mesh::{Array3, Box3, Point3};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_stencil;
    use crate::ops::apply_op_def;

    fn idx_fn(p: Point3) -> f64 {
        (p.x * p.x + 2 * p.y - p.z * p.x) as f64
    }

    #[test]
    fn fast_star7_matches_interpreter() {
        let def = apply_op_def();
        let v = Box3::cube(12);
        let src = Array3::from_fn(v, 1, idx_fn);
        let mut ref_dst = Array3::new(v, 1);
        let mut fast_dst = Array3::new(v, 1);
        run_stencil(&def, &[&src], &[-6.0, 1.0], &mut [&mut ref_dst], v);
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
}
