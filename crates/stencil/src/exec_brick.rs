//! Stencil execution over bricked storage.
//!
//! The fast 7-point kernel here is the moral equivalent of BrickLib's
//! generated GPU code: every brick is streamed row-by-row over its
//! contiguous storage with neighbor values read at fixed offsets into the
//! seven per-brick face slices resolved once up front
//! ([`gmg_brick::BrickFaces`]) — no per-point adjacency lookups anywhere,
//! and the inner kernel is monomorphized per [`gmg_brick::BrickShape`]
//! (see `brick_rows`). Both the apply and the residual norms run at the
//! instruction-set tier [`Isa::detect`] picks ([`crate::isa`]). Every other
//! stencil runs on bricks through the reference interpreter,
//! [`crate::interp::run_stencil`], which validates the fast kernel.

use crate::brick_rows::{stream_star7_generic, stream_star7_rows, stream_star7_spec, RowBounds};
use crate::isa::Isa;
use gmg_brick::{BrickFaces, BrickShape, BrickedField};
use gmg_mesh::Box3;

/// Fast 7-point constant-coefficient apply over bricks:
/// `dst[p] = alpha·src[p] + beta·Σ src[p ± e]` for `p ∈ region`, brick by
/// brick. `src` and `dst` must share a layout; `region` is clipped to the
/// storage shell, and `src` must be valid one cell around it — inside the
/// ghost shell on a halo axis, across the seam on a wrapped one.
///
/// Every brick — full or clipped by the region — runs the row-streamed
/// kernel of `brick_rows`: the six face-neighbor base slices are
/// resolved once per brick, so boundary cells stream at the same cost as
/// interior cells and the old per-cell `brick_boundary` adjacency pass no
/// longer exists. The inner kernel is monomorphized for the
/// [`BrickShape`]s the perf gate exercises (4³, 8³) with a runtime-dim
/// fallback executing bit-identical arithmetic.
pub fn apply_star7_bricked(
    dst: &mut BrickedField,
    src: &BrickedField,
    alpha: f64,
    beta: f64,
    region: Box3,
) {
    apply_star7_bricked_on(Isa::detect(), dst, src, alpha, beta, region, true);
}

/// [`apply_star7_bricked`] forced through the runtime-dim generic kernel
/// even for brick shapes that have a monomorphized specialization.
/// Exists so differential tests can pin the two paths bit-identical.
pub fn apply_star7_bricked_generic(
    dst: &mut BrickedField,
    src: &BrickedField,
    alpha: f64,
    beta: f64,
    region: Box3,
) {
    apply_star7_bricked_on(Isa::detect(), dst, src, alpha, beta, region, false);
}

/// [`apply_star7_bricked`] at the tier `isa`, through the monomorphized
/// kernels when `specialize`, else through the runtime-dim one.
pub(crate) fn apply_star7_bricked_on(
    isa: Isa,
    dst: &mut BrickedField,
    src: &BrickedField,
    alpha: f64,
    beta: f64,
    region: Box3,
    specialize: bool,
) {
    let layout = src.layout().clone();
    assert!(
        std::sync::Arc::ptr_eq(&layout, dst.layout()),
        "layout mismatch"
    );
    assert!(
        layout.covers_reads(region, 1),
        "src does not cover {:?}",
        region.grow(1)
    );
    let pieces = layout.slots_intersecting(region);
    let b = layout.brick_dim();
    let shape = if specialize {
        layout.shape()
    } else {
        BrickShape::Generic(b)
    };
    isa.run(
        #[inline(always)]
        || {
            dst.update_bricks(
                &pieces,
                #[inline(always)]
                |slot, sub, out| {
                    let faces = BrickFaces::new(src, slot);
                    let rb = RowBounds::within(sub, layout.cells_of_slot(slot).lo);
                    match shape {
                        BrickShape::B4 => stream_star7_spec::<4>(&faces, out, alpha, beta, &rb),
                        BrickShape::B8 => stream_star7_spec::<8>(&faces, out, alpha, beta, &rb),
                        BrickShape::Generic(_) => {
                            stream_star7_generic(b as usize, &faces, alpha, beta, &rb, |i, ax| {
                                out[i] = ax
                            })
                        }
                    }
                },
            )
        },
    );
}

/// `(max |v|, Σ v², Σ v)` of the residual `v = b − A·x` over `region`, in
/// one read-only pass: every row's `A·x` is reduced while still in
/// registers, so neither `A·x` nor `v` is ever stored. `x` must be valid
/// on `region.grow(1)`. Each brick folds its cells in a fixed order and
/// the bricks fold in piece order; `max` skips NaN (`f64::max`), the sums
/// propagate it.
pub fn residual_norms_bricked(
    x: &BrickedField,
    b: &BrickedField,
    alpha: f64,
    beta: f64,
    region: Box3,
) -> (f64, f64, f64) {
    residual_norms_on(Isa::detect(), x, b, alpha, beta, region)
}

/// [`residual_norms_bricked`] at the tier `isa`.
pub(crate) fn residual_norms_on(
    isa: Isa,
    x: &BrickedField,
    b: &BrickedField,
    alpha: f64,
    beta: f64,
    region: Box3,
) -> (f64, f64, f64) {
    let layout = x.layout().clone();
    assert!(
        std::sync::Arc::ptr_eq(&layout, b.layout()),
        "layout mismatch"
    );
    assert!(
        layout.covers_reads(region, 1),
        "x does not cover {:?}",
        region.grow(1)
    );
    let bd = layout.brick_dim() as usize;
    let shape = layout.shape();
    let pieces = layout.slots_intersecting(region);
    isa.run(
        #[inline(always)]
        || {
            let mut acc = NORMS_ZERO;
            for &(slot, sub) in &pieces {
                let faces = BrickFaces::new(x, slot);
                let rb = RowBounds::within(sub, layout.cells_of_slot(slot).lo);
                let bb = b.brick(slot);
                let partial = match shape {
                    BrickShape::B4 => norms_brick::<4>(&faces, bb, alpha, beta, &rb),
                    BrickShape::B8 => norms_brick::<8>(&faces, bb, alpha, beta, &rb),
                    BrickShape::Generic(_) => {
                        let mut part = NORMS_ZERO;
                        stream_star7_generic(bd, &faces, alpha, beta, &rb, |i, ax| {
                            part = fold_norms(part, norms_of(bb[i] - ax));
                        });
                        part
                    }
                };
                acc = fold_norms(acc, partial);
            }
            acc
        },
    )
}

const NORMS_ZERO: (f64, f64, f64) = (0.0, 0.0, 0.0);

#[inline(always)]
fn norms_of(v: f64) -> (f64, f64, f64) {
    (v.abs(), v * v, v)
}

#[inline(always)]
fn fold_norms(a: (f64, f64, f64), b: (f64, f64, f64)) -> (f64, f64, f64) {
    (a.0.max(b.0), a.1 + b.1, a.2 + b.2)
}

/// One const-dim brick of [`residual_norms_bricked`]: every x-lane of the
/// rows accumulates on its own (so the reduction vectorizes), then the
/// lanes fold in x order.
#[inline(always)]
fn norms_brick<const B: usize>(
    faces: &BrickFaces<'_>,
    b: &[f64],
    alpha: f64,
    beta: f64,
    rb: &RowBounds,
) -> (f64, f64, f64) {
    let mut lanes = [NORMS_ZERO; B];
    stream_star7_rows::<B>(
        faces,
        alpha,
        beta,
        rb,
        #[inline(always)]
        |row, xs, ax| {
            let b = &b[row..row + B];
            for x in 0..B {
                // A lane the clipped row does not cover adds the identity.
                let v = if xs.contains(&x) { b[x] - ax[x] } else { 0.0 };
                lanes[x] = fold_norms(lanes[x], norms_of(v));
            }
        },
    );
    lanes.into_iter().fold(NORMS_ZERO, fold_norms)
}

/// Pointwise update with one mutable field and two read fields (all
/// sharing a layout): for every cell of every piece,
/// `f(&mut out_cell, read1_cell, read2_cell)`.
pub fn pointwise_mut1(
    out: &mut BrickedField,
    read1: &BrickedField,
    read2: &BrickedField,
    pieces: &[(u32, Box3)],
    f: impl Fn(&mut f64, f64, f64),
) {
    pointwise_mut1_on(Isa::detect(), out, read1, read2, pieces, f);
}

/// [`pointwise_mut1`] at the tier `isa`.
pub(crate) fn pointwise_mut1_on(
    isa: Isa,
    out: &mut BrickedField,
    read1: &BrickedField,
    read2: &BrickedField,
    pieces: &[(u32, Box3)],
    f: impl Fn(&mut f64, f64, f64),
) {
    let layout = out.layout().clone();
    let b = layout.brick_dim() as usize;
    isa.run(
        #[inline(always)]
        || {
            out.update_bricks(
                pieces,
                #[inline(always)]
                |slot, sub, o| {
                    let (r1, r2) = (read1.brick(slot), read2.brick(slot));
                    RowBounds::within(sub, layout.cells_of_slot(slot).lo).for_each_span(
                        b,
                        #[inline(always)]
                        |s| {
                            for ((o, &r1), &r2) in
                                o[s.clone()].iter_mut().zip(&r1[s.clone()]).zip(&r2[s])
                            {
                                f(o, r1, r2);
                            }
                        },
                    );
                },
            )
        },
    );
}

/// Pointwise update with two mutable fields and two read fields (the
/// fused smooth+residual shape): per cell,
/// `f(&mut out1, &mut out2, read1, read2)`.
pub fn pointwise_mut2(
    out1: &mut BrickedField,
    out2: &mut BrickedField,
    read1: &BrickedField,
    read2: &BrickedField,
    pieces: &[(u32, Box3)],
    f: impl Fn(&mut f64, &mut f64, f64, f64),
) {
    pointwise_mut2_on(Isa::detect(), out1, out2, read1, read2, pieces, f);
}

/// [`pointwise_mut2`] at the tier `isa`.
pub(crate) fn pointwise_mut2_on(
    isa: Isa,
    out1: &mut BrickedField,
    out2: &mut BrickedField,
    read1: &BrickedField,
    read2: &BrickedField,
    pieces: &[(u32, Box3)],
    f: impl Fn(&mut f64, &mut f64, f64, f64),
) {
    let layout = out1.layout().clone();
    assert!(
        std::sync::Arc::ptr_eq(&layout, out2.layout()),
        "layout mismatch"
    );
    let b = layout.brick_dim() as usize;
    isa.run(
        #[inline(always)]
        || {
            out1.update_bricks(
                pieces,
                #[inline(always)]
                |slot, sub, o1| {
                    let o2 = out2.brick_mut(slot);
                    let (r1, r2) = (read1.brick(slot), read2.brick(slot));
                    RowBounds::within(sub, layout.cells_of_slot(slot).lo).for_each_span(
                        b,
                        #[inline(always)]
                        |s| {
                            let outs = o1[s.clone()].iter_mut().zip(&mut o2[s.clone()]);
                            for (((o1, o2), &r1), &r2) in outs.zip(&r1[s.clone()]).zip(&r2[s]) {
                                f(o1, o2, r1, r2);
                            }
                        },
                    );
                },
            )
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec_array::apply_star7_array_on;
    use crate::interp::run_stencil;
    use crate::ops::{apply_op_def, apply_op_var_def, star13_def};
    use gmg_brick::{BrickLayout, BrickOrdering};
    use gmg_mesh::{Array3, Point3};
    use std::sync::Arc;

    fn idx_fn(p: Point3) -> f64 {
        ((p.x * 7 + p.y * 3 - p.z * 5) % 13) as f64 + 0.5
    }

    fn mk_field(n: i64, bd: i64) -> BrickedField {
        let l = Arc::new(BrickLayout::new(
            Box3::cube(n),
            bd,
            1,
            BrickOrdering::SurfaceMajor,
        ));
        BrickedField::from_fn(l, idx_fn)
    }

    #[test]
    fn fast_bricked_star7_matches_reference() {
        let def = apply_op_def();
        for bd in [2, 4, 8] {
            let n = 16;
            let src = mk_field(n, bd);
            let mut fast = BrickedField::new(src.layout().clone());
            let mut reference = BrickedField::new(src.layout().clone());
            apply_star7_bricked(&mut fast, &src, -6.0, 1.0, Box3::cube(n));
            run_stencil(
                &def,
                &[&src],
                &[-6.0, 1.0],
                &mut [&mut reference],
                Box3::cube(n),
            );
            Box3::cube(n).for_each(|p| {
                assert!(
                    (fast.get(p) - reference.get(p)).abs() < 1e-12,
                    "bd={bd} at {p:?}: {} vs {}",
                    fast.get(p),
                    reference.get(p)
                );
            });
        }
    }

    #[test]
    fn fast_bricked_star7_on_shifted_subregion() {
        // Exercise partial-brick pieces (CA-style shrinking regions), at
        // every instruction-set tier the CPU reports: both layouts' kernels
        // give the bits they give at `Isa::Baseline`.
        let n = 16;
        let bd = 4;
        let src = mk_field(n, bd);
        let region = Box3::new(Point3::new(-3, 1, 2), Point3::new(19, 15, 14));
        let src_a = Array3::from_fn(Box3::cube(n), bd, idx_fn);
        let run = |isa| {
            let mut fast = BrickedField::new(src.layout().clone());
            apply_star7_bricked_on(isa, &mut fast, &src, -6.0, 1.0, region, true);
            let mut arr = Array3::new(Box3::cube(n), bd);
            apply_star7_array_on(isa, &mut arr, &src_a, -6.0, 1.0, region);
            (fast, arr)
        };
        let (base, base_a) = run(Isa::Baseline);
        region.for_each(|p| {
            assert!((base.get(p) - base_a[p]).abs() < 1e-12, "at {p:?}");
        });
        // Outside the region nothing is written.
        assert_eq!(base.get(Point3::new(0, 0, 0)), 0.0);
        for isa in Isa::available() {
            let (fast, arr) = run(isa);
            let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(fast.as_slice()), bits(base.as_slice()), "{isa:?}");
            assert_eq!(bits(arr.as_slice()), bits(base_a.as_slice()), "{isa:?}");
        }
    }

    #[test]
    fn residual_norms_match_the_stored_residual() {
        // Const-dim and runtime-dim bricks, a region clipped on every
        // side: the max must equal the max over a stored `b − A·x` bit for
        // bit, the sums to rounding; a NaN cell is skipped by the max and
        // poisons the sums. Every instruction-set tier the CPU reports gives
        // the bits `Isa::Baseline` gives.
        for bd in [2i64, 3, 4, 8] {
            let n = 2 * bd;
            let mut x = mk_field(n, bd);
            let b = BrickedField::from_fn(x.layout().clone(), |p| idx_fn(p) * 0.5 - 3.0);
            let region = Box3::cube(n).grow(bd - 1).shrink(1);
            let reference = |x: &BrickedField| {
                let mut ax = BrickedField::new(x.layout().clone());
                apply_star7_bricked(&mut ax, x, -6.0, 1.0, region);
                let (mut max, mut sq, mut sum) = (0.0f64, 0.0, 0.0);
                region.for_each(|p| {
                    let v = b.get(p) - ax.get(p);
                    (max, sq, sum) = (max.max(v.abs()), sq + v * v, sum + v);
                });
                (max, sq, sum)
            };
            let (max, sq, sum) = reference(&x);
            let norms = |x: &BrickedField, isa| {
                let (max, sq, sum) = residual_norms_on(isa, x, &b, -6.0, 1.0, region);
                [max.to_bits(), sq.to_bits(), sum.to_bits()]
            };
            let got = residual_norms_bricked(&x, &b, -6.0, 1.0, region);
            assert_eq!(got.0.to_bits(), max.to_bits(), "bd={bd}");
            assert!((got.1 - sq).abs() <= 1e-12 * sq, "bd={bd}");
            assert!((got.2 - sum).abs() <= 1e-12 * sq.sqrt(), "bd={bd}");
            for isa in Isa::available() {
                assert_eq!(norms(&x, isa), norms(&x, Isa::Baseline), "bd={bd} {isa:?}");
            }
            x.set(Point3::splat(bd), f64::NAN);
            let got = residual_norms_bricked(&x, &b, -6.0, 1.0, region);
            assert!(got.0.is_finite() && got.1.is_nan() && got.2.is_nan());
            for isa in Isa::available() {
                assert_eq!(
                    norms(&x, isa),
                    norms(&x, Isa::Baseline),
                    "bd={bd} {isa:?} NaN"
                );
            }
        }
    }

    #[test]
    fn specialized_kernel_bit_identical_to_generic_fallback() {
        // The monomorphized 4³/8³ kernels must produce the exact same bits
        // as the runtime-dim fallback, including on clipped sub-bricks.
        for bd in [4, 8] {
            let n = 16;
            let src = mk_field(n, bd);
            let region = Box3::new(Point3::new(-2, 1, 0), Point3::new(15, 16, 13));
            let mut spec = BrickedField::new(src.layout().clone());
            let mut gen = BrickedField::new(src.layout().clone());
            apply_star7_bricked(&mut spec, &src, -6.0, 1.0, region);
            apply_star7_bricked_generic(&mut gen, &src, -6.0, 1.0, region);
            assert_eq!(spec.as_slice(), gen.as_slice(), "bd={bd}");
        }
    }

    #[test]
    fn pointwise_mut1_smooth_shape() {
        let n = 8;
        let x0 = mk_field(n, 4);
        let mut x = x0.clone();
        let ax = BrickedField::from_fn(x.layout().clone(), |p| idx_fn(p) * 2.0);
        let b = BrickedField::from_fn(x.layout().clone(), |p| idx_fn(p) - 1.0);
        let gamma = 0.25;
        let pieces = x.layout().slots_intersecting(Box3::cube(n));
        pointwise_mut1(&mut x, &ax, &b, &pieces, |xv, axv, bv| {
            *xv += gamma * (axv - bv);
        });
        Box3::cube(n).for_each(|p| {
            let expect = x0.get(p) + gamma * (ax.get(p) - b.get(p));
            assert!((x.get(p) - expect).abs() < 1e-12);
        });
    }

    #[test]
    fn pointwise_mut2_fused_smooth_residual() {
        let n = 8;
        let x0 = mk_field(n, 4);
        let mut x = x0.clone();
        let mut r = BrickedField::new(x.layout().clone());
        let ax = BrickedField::from_fn(x.layout().clone(), |p| idx_fn(p) * 3.0);
        let b = BrickedField::from_fn(x.layout().clone(), |p| idx_fn(p) + 2.0);
        let gamma = 0.1;
        let pieces = x.layout().slots_intersecting(Box3::cube(n));
        pointwise_mut2(&mut x, &mut r, &ax, &b, &pieces, |xv, rv, axv, bv| {
            *rv = bv - axv;
            *xv += gamma * (axv - bv);
        });
        Box3::cube(n).for_each(|p| {
            assert!((r.get(p) - (b.get(p) - ax.get(p))).abs() < 1e-12);
            let expect = x0.get(p) + gamma * (ax.get(p) - b.get(p));
            assert!((x.get(p) - expect).abs() < 1e-12);
        });
    }

    #[test]
    fn pointwise_updates_are_bit_identical_at_every_tier() {
        // The smoother's triads on partial pieces, at every tier the CPU
        // reports, give the bits they give at `Isa::Baseline`.
        let n = 12;
        let x0 = mk_field(n, 4);
        let ax = BrickedField::from_fn(x0.layout().clone(), |p| (idx_fn(p) * 0.37).sin());
        let b = BrickedField::from_fn(x0.layout().clone(), |p| (idx_fn(p) * 0.11).cos());
        let pieces = x0
            .layout()
            .slots_intersecting(Box3::new(Point3::new(1, -1, 2), Point3::new(11, 10, 13)));
        let gamma = 0.3;
        let run = |isa| {
            let (mut x1, mut x2) = (x0.clone(), x0.clone());
            let mut r = BrickedField::new(x0.layout().clone());
            pointwise_mut1_on(isa, &mut x1, &ax, &b, &pieces, |x, ax, b| {
                *x += gamma * (ax - b)
            });
            pointwise_mut2_on(isa, &mut x2, &mut r, &ax, &b, &pieces, |x, r, ax, b| {
                *r = b - ax;
                *x += gamma * (ax - b);
            });
            let bits =
                |f: &BrickedField| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (bits(&x1), bits(&x2), bits(&r))
        };
        let base = run(Isa::Baseline);
        for isa in Isa::available() {
            assert!(run(isa) == base, "{isa:?}");
        }
    }

    #[test]
    fn constant_beta_reduces_to_constant_kernel() {
        // With β ≡ 1, the variable-coefficient operator is exactly the
        // constant 7-point operator with α = −6/h², β = 1/h².
        let n = 8;
        let inv_h2 = 16.0;
        let x = mk_field(n, 4);
        let beta = BrickedField::from_fn(x.layout().clone(), |_| 1.0);
        let mut var = BrickedField::new(x.layout().clone());
        run_stencil(
            &apply_op_var_def(),
            &[&x, &beta],
            &[inv_h2],
            &mut [&mut var],
            Box3::cube(n),
        );
        let mut con = BrickedField::new(x.layout().clone());
        apply_star7_bricked(&mut con, &x, -6.0 * inv_h2, inv_h2, Box3::cube(n));
        Box3::cube(n).for_each(|p| {
            assert!((var.get(p) - con.get(p)).abs() < 1e-9, "at {p:?}");
        });
    }

    #[test]
    fn variable_coefficient_annihilates_constants() {
        // Σ β_f (c − c) = 0 for any coefficient field: discrete
        // conservation.
        let n = 8;
        let layout = mk_field(n, 4).layout().clone();
        let x = BrickedField::from_fn(layout.clone(), |_| 3.5);
        let beta = BrickedField::from_fn(layout.clone(), |p| 1.0 + (p.x as f64) * 0.25);
        let mut out = BrickedField::new(layout);
        run_stencil(
            &apply_op_var_def(),
            &[&x, &beta],
            &[100.0],
            &mut [&mut out],
            Box3::cube(n),
        );
        let m = out.reduce(Box3::cube(n), 0.0, |_, v| v.abs(), f64::max);
        assert!(m < 1e-10, "max |A·const| = {m}");
    }

    #[test]
    fn star13_is_fourth_order_on_the_sine_mode() {
        // The 13-point operator's eigenvalue on the separable sine mode
        // converges to −12π² at O(h⁴), versus O(h²) for the 7-point star.
        use std::f64::consts::PI;
        let eig_err = |n: i64| {
            let h = 1.0 / n as f64;
            let l = Arc::new(BrickLayout::new(
                Box3::cube(n),
                4,
                1,
                BrickOrdering::SurfaceMajor,
            ));
            let mode = move |p: Point3| {
                let q = p.rem_euclid(Point3::splat(n));
                let c = |i: i64| (i as f64 + 0.5) * h;
                (2.0 * PI * c(q.x)).sin() * (2.0 * PI * c(q.y)).sin() * (2.0 * PI * c(q.z)).sin()
            };
            let src = BrickedField::from_fn(l.clone(), mode);
            let mut out = BrickedField::new(l);
            let inv_12h2 = 1.0 / (12.0 * h * h);
            run_stencil(
                &star13_def(),
                &[&src],
                &[inv_12h2],
                &mut [&mut out],
                Box3::cube(n),
            );
            // Estimate the Rayleigh quotient at a probe cell away from
            // zeros of the mode.
            let p = Point3::new(n / 8, n / 8, n / 8);
            let lambda = out.get(p) / src.get(p);
            (lambda + 12.0 * PI * PI).abs()
        };
        let e16 = eig_err(16);
        let e32 = eig_err(32);
        let rate = e16 / e32;
        assert!(
            rate > 10.0,
            "fourth-order rate should be ~16x: {rate:.1} ({e16:.3e} -> {e32:.3e})"
        );
    }

    #[test]
    fn lexicographic_ordering_gives_same_results() {
        // Numerics must be independent of the physical slot order.
        let n = 8;
        let bd = 4;
        let mk = |ord| {
            let l = Arc::new(BrickLayout::new(Box3::cube(n), bd, 1, ord));
            BrickedField::from_fn(l, idx_fn)
        };
        let src_s = mk(BrickOrdering::SurfaceMajor);
        let src_l = mk(BrickOrdering::Lexicographic);
        let mut dst_s = BrickedField::new(src_s.layout().clone());
        let mut dst_l = BrickedField::new(src_l.layout().clone());
        apply_star7_bricked(&mut dst_s, &src_s, -6.0, 1.0, Box3::cube(n));
        apply_star7_bricked(&mut dst_l, &src_l, -6.0, 1.0, Box3::cube(n));
        Box3::cube(n).for_each(|p| {
            assert_eq!(dst_s.get(p), dst_l.get(p), "at {p:?}");
        });
    }
}
