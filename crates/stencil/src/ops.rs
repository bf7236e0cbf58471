//! Canonical V-cycle operator definitions and their traffic metadata.
//!
//! The five operators of the paper's V-cycle (Algorithm 2), both as DSL
//! definitions (for analysis and the reference interpreter) and as
//! [`OpTraffic`] records — the per-point read/write/FLOP counts the
//! roofline and latency-throughput models consume. The traffic numbers
//! follow the paper's counting conventions so that the Table IV harness
//! reproduces its values exactly:
//!
//! | operation               | reads | writes | flops | AI (FLOP/B) |
//! |-------------------------|-------|--------|-------|-------------|
//! | applyOp                 | 1     | 1      | 8     | 0.50        |
//! | smooth                  | 2     | 1      | 3     | 0.125       |
//! | smooth+residual         | 3     | 2      | 6     | 0.15        |
//! | restriction             | 8     | 1      | 8     | 0.11 (per coarse point) |
//! | interpolation+increment | 9     | 8      | 8     | 0.06 (per coarse point) |
//!
//! `restriction` and `interpolation+increment` counts are per *coarse*
//! point (8 fine cells); their per-fine-point equivalents are provided by
//! [`OpTraffic::per_fine_point`].
//!
//! The order those operators run in — Algorithm 2 with the Section V
//! communication-avoiding margin — is [`VcycleSchedule`], the one place
//! the schedule is written down: the performance simulators price its
//! steps and both solvers execute them.

use crate::expr::StencilDef;
use gmg_mesh::Point3;

/// The V-cycle operations the paper measures, in its reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `Ax = A·x` with the 7-point constant-coefficient operator.
    ApplyOp,
    /// Point Jacobi `x := x + γ(Ax − b)`.
    Smooth,
    /// Fused smooth and residual `r = b − Ax`.
    SmoothResidual,
    /// Volume-average 8 fine cells into 1 coarse cell.
    Restriction,
    /// Piecewise-constant interpolation with increment of 8 fine cells.
    InterpolationIncrement,
}

impl OpKind {
    /// The paper's display name for this operation.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::ApplyOp => "applyOp",
            OpKind::Smooth => "smooth",
            OpKind::SmoothResidual => "smooth+residual",
            OpKind::Restriction => "restriction",
            OpKind::InterpolationIncrement => "interpolation+increment",
        }
    }

    /// Traffic metadata for this op.
    pub fn traffic(&self) -> OpTraffic {
        match self {
            OpKind::ApplyOp => OpTraffic {
                kind: *self,
                reads: 1.0,
                writes: 1.0,
                flops: 8.0,
                coarse_granularity: false,
            },
            OpKind::Smooth => OpTraffic {
                kind: *self,
                reads: 2.0,
                writes: 1.0,
                flops: 3.0,
                coarse_granularity: false,
            },
            OpKind::SmoothResidual => OpTraffic {
                kind: *self,
                reads: 3.0,
                writes: 2.0,
                flops: 6.0,
                coarse_granularity: false,
            },
            OpKind::Restriction => OpTraffic {
                kind: *self,
                reads: 8.0,
                writes: 1.0,
                flops: 8.0,
                coarse_granularity: true,
            },
            OpKind::InterpolationIncrement => OpTraffic {
                kind: *self,
                reads: 9.0,
                writes: 8.0,
                flops: 8.0,
                coarse_granularity: true,
            },
        }
    }
}

/// All five ops in the paper's reporting order.
pub const ALL_OPS: [OpKind; 5] = [
    OpKind::ApplyOp,
    OpKind::Smooth,
    OpKind::SmoothResidual,
    OpKind::Restriction,
    OpKind::InterpolationIncrement,
];

/// Per-point data movement and arithmetic for one V-cycle operation, in the
/// paper's counting convention. For `coarse_granularity` ops the unit is
/// one *coarse* point (covering 8 fine cells).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpTraffic {
    pub kind: OpKind,
    /// Doubles read per point.
    pub reads: f64,
    /// Doubles written per point.
    pub writes: f64,
    /// FLOPs per point.
    pub flops: f64,
    /// Whether the point unit is a coarse cell (restriction/interpolation).
    pub coarse_granularity: bool,
}

impl OpTraffic {
    /// Bytes moved per point (doubles × 8).
    pub fn bytes_per_point(&self) -> f64 {
        8.0 * (self.reads + self.writes)
    }

    /// Theoretical arithmetic intensity (FLOP/byte).
    pub fn theoretical_ai(&self) -> f64 {
        self.flops / self.bytes_per_point()
    }

    /// Traffic normalized per *fine* point (divides coarse-granularity
    /// counts by 8). Useful for throughput in fine-grid GStencil/s.
    pub fn per_fine_point(&self) -> OpTraffic {
        if !self.coarse_granularity {
            return *self;
        }
        OpTraffic {
            kind: self.kind,
            reads: self.reads / 8.0,
            writes: self.writes / 8.0,
            flops: self.flops / 8.0,
            coarse_granularity: false,
        }
    }
}

/// Everything one rank's V-cycle op schedule depends on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcycleShape {
    /// Owned extent per level, finest first; the length is the level count.
    pub extents: Vec<Point3>,
    /// Ghost depth per level, in cells, on the halo axes: the
    /// communication-avoiding margin an exchange (or `initZero`) restores.
    pub ghost_depth: Vec<i64>,
    /// Which axes carry that ghost shell. An axis on which the rank is its
    /// own periodic neighbor (a 1-wide rank-grid axis) has depth 0: its
    /// bricks wrap through the adjacency, nothing is exchanged or
    /// recomputed there.
    pub halo_axes: [bool; 3],
    /// Smooths per level on the way down and again on the way up.
    pub smooths: usize,
    /// Smooths of the bottom solver.
    pub bottom_smooths: usize,
    /// Deep-ghost communication-avoiding smoothing (Section V); off means
    /// an exchange before every smooth and none after restriction.
    pub communication_avoiding: bool,
}

impl VcycleShape {
    /// The hierarchy every configuration in this repo uses: the extent
    /// halves per level and the ghost shell is one brick deep, with bricks
    /// shrinking to fit the coarsest subdomains — on all three axes, the
    /// interior rank of a 3-D rank grid the simulators model.
    pub fn halving(
        sub_extent: Point3,
        num_levels: usize,
        brick_dim: i64,
        smooths: usize,
        bottom_smooths: usize,
        communication_avoiding: bool,
    ) -> Self {
        assert!(num_levels >= 1);
        let extents: Vec<Point3> = (0..num_levels)
            .map(|li| {
                let s = 1i64 << li;
                let e = Point3::new(sub_extent.x / s, sub_extent.y / s, sub_extent.z / s);
                assert!(
                    e.x >= 1 && e.y >= 1 && e.z >= 1,
                    "level {li} extent {e:?} vanished; reduce num_levels"
                );
                e
            })
            .collect();
        let ghost_depth = extents
            .iter()
            .map(|e| brick_dim.min(e.x).min(e.y).min(e.z))
            .collect();
        Self {
            extents,
            ghost_depth,
            halo_axes: [true; 3],
            smooths,
            bottom_smooths,
            communication_avoiding,
        }
    }

    /// Owned cells per rank at level `li`.
    pub fn cells(&self, li: usize) -> usize {
        self.extents[li].product() as usize
    }
}

/// One step of the V-cycle schedule, as [`VcycleSchedule::vcycle`] yields
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VcycleStep {
    /// Ghost exchange at `level`: of `b` right after an `InitZero` that
    /// says so, of `x` otherwise. Never yielded for a shape without a halo
    /// axis.
    Exchange { level: usize },
    /// One smoothing iteration at `level` over the owned box grown by
    /// `reach − 1` on the halo axes: as much of the valid margin as the
    /// rest of the pass can consume (1 without communication avoiding or
    /// a halo axis). Its two `Kernel` steps follow it.
    Smooth { level: usize, reach: i64 },
    /// One kernel over `points` cells of `level`. A smoothing iteration is
    /// two of them over its region, `applyOp` then `smooth`
    /// (`smooth+residual` on the way down and up, the paper's op mix —
    /// which iterations really store `r` is the executor's business);
    /// restriction and interpolation+increment cover the owned cells of
    /// their fine level.
    Kernel {
        level: usize,
        op: OpKind,
        points: usize,
    },
    /// Zero the iterate of `level`, ghost shell included. With
    /// `exchange_b` the next step exchanges `level`'s `b`: the restriction
    /// before filled it on owned cells only, and communication-avoiding
    /// smoothing reads it in the ghost shell.
    InitZero { level: usize, exchange_b: bool },
}

/// The V-cycle op schedule (Algorithm 2 plus the Section V
/// communication-avoiding margin) as a pure walker. The performance
/// simulators price the steps it yields; the real solvers execute them.
#[derive(Clone, Debug)]
pub struct VcycleSchedule {
    shape: VcycleShape,
    /// Valid ghost margin of `x` per level, as the solver's levels track
    /// it: 0 after every smooth pass, full after an exchange or an
    /// `initZero`. So every V-cycle of [`VcycleSchedule::new`] opens with
    /// an exchange of the finest level — the one Algorithm 1's convergence
    /// check makes in `solve`.
    margins: Vec<i64>,
}

impl VcycleSchedule {
    /// A schedule at its start: no ghost shell is valid yet.
    pub fn new(shape: VcycleShape) -> Self {
        assert!(!shape.extents.is_empty());
        assert_eq!(shape.extents.len(), shape.ghost_depth.len());
        let margins = vec![0; shape.extents.len()];
        Self { shape, margins }
    }

    /// This schedule with `margin` valid ghost cells on the finest level:
    /// a solver whose convergence check has just exchanged it walks its
    /// V-cycle from there.
    pub fn with_finest_margin(mut self, margin: i64) -> Self {
        self.margins[0] = margin;
        self
    }

    /// Walk one V-cycle, handing every step to `step` in execution order.
    pub fn vcycle(&mut self, mut step: impl FnMut(VcycleStep)) {
        let top = self.shape.extents.len() - 1;
        let smooths = self.shape.smooths;
        for l in 0..top {
            self.smooth_steps(l, smooths, OpKind::SmoothResidual, &mut step);
            step(VcycleStep::Kernel {
                level: l,
                op: OpKind::Restriction,
                points: self.shape.cells(l),
            });
            let exchange_b = self.shape.communication_avoiding && self.has_halo();
            step(VcycleStep::InitZero {
                level: l + 1,
                exchange_b,
            });
            // A zero iterate is trivially valid through the ghost shell.
            self.margins[l + 1] = self.shape.ghost_depth[l + 1];
            if exchange_b {
                step(VcycleStep::Exchange { level: l + 1 });
            }
        }
        self.smooth_steps(top, self.shape.bottom_smooths, OpKind::Smooth, &mut step);
        for l in (0..top).rev() {
            step(VcycleStep::Kernel {
                level: l,
                op: OpKind::InterpolationIncrement,
                points: self.shape.cells(l),
            });
            self.margins[l] = 0; // interpolation invalidates the ghost shell
            self.smooth_steps(l, smooths, OpKind::SmoothResidual, &mut step);
        }
    }

    fn has_halo(&self) -> bool {
        self.shape.halo_axes.contains(&true)
    }

    /// `n` smooths at `li`: exchange when the margin is exhausted (always,
    /// without communication avoiding; never, without a halo axis), reach
    /// as far into the margin as the rest of the pass can still consume —
    /// capped at one cell per remaining smooth — and keep what this smooth
    /// did not use of it: no pass leaves a margin behind.
    fn smooth_steps(
        &mut self,
        li: usize,
        n: usize,
        smooth: OpKind,
        step: &mut impl FnMut(VcycleStep),
    ) {
        let ca = self.shape.communication_avoiding;
        let halo = self.has_halo();
        let e = self.shape.extents[li];
        for left in (1..=n as i64).rev() {
            if halo && (!ca || self.margins[li] < 1) {
                step(VcycleStep::Exchange { level: li });
                self.margins[li] = self.shape.ghost_depth[li];
            }
            let m = if ca && halo {
                self.margins[li].min(left)
            } else {
                1
            };
            let g = 2 * (m - 1);
            let points = (0..3)
                .map(|a| e[a] + if self.shape.halo_axes[a] { g } else { 0 })
                .product::<i64>() as usize;
            step(VcycleStep::Smooth {
                level: li,
                reach: m,
            });
            for op in [OpKind::ApplyOp, smooth] {
                step(VcycleStep::Kernel {
                    level: li,
                    op,
                    points,
                });
            }
            self.margins[li] = m - 1;
        }
    }
}

/// DSL definition of the 7-point constant-coefficient `applyOp` (paper
/// Figure 1, factored form).
pub fn apply_op_def() -> StencilDef {
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

/// DSL definition of the point Jacobi smooth `x := x + γ(Ax − b)` over a
/// precomputed `Ax`.
pub fn smooth_def() -> StencilDef {
    StencilDef::build("smooth", |b| {
        let x = b.input("x");
        let ax = b.input("Ax");
        let rhs = b.input("b");
        let gamma = b.coeff("gamma");
        b.assign(
            "x_out",
            x.at(0, 0, 0) + gamma * (ax.at(0, 0, 0) - rhs.at(0, 0, 0)),
        );
    })
}

/// DSL definition of the residual `r = b − Ax` over a precomputed `Ax`.
pub fn residual_def() -> StencilDef {
    StencilDef::build("residual", |b| {
        let ax = b.input("Ax");
        let rhs = b.input("b");
        b.assign("r", rhs.at(0, 0, 0) - ax.at(0, 0, 0));
    })
}

/// DSL definition of the fused smooth+residual.
pub fn smooth_residual_def() -> StencilDef {
    StencilDef::build("smooth+residual", |b| {
        let x = b.input("x");
        let ax = b.input("Ax");
        let rhs = b.input("b");
        let gamma = b.coeff("gamma");
        b.assign("r", rhs.at(0, 0, 0) - ax.at(0, 0, 0));
        b.assign(
            "x_out",
            x.at(0, 0, 0) + gamma * (ax.at(0, 0, 0) - rhs.at(0, 0, 0)),
        );
    })
}

/// DSL definition of restriction expressed on the *coarse* index space:
/// coarse cell (I,J,K) averages fine cells (2I+di, 2J+dj, 2K+dk). The DSL
/// has no coarse/fine index mapping, so the fine grid is referenced through
/// even offsets — executors for inter-level ops live in `gmg-core`; this
/// definition exists for analysis and documentation.
pub fn restriction_def() -> StencilDef {
    StencilDef::build("restriction", |b| {
        let fine = b.input("r_fine");
        let eighth = b.constant(0.125);
        let mut sum = fine.at(0, 0, 0);
        for (dx, dy, dz) in [
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 0),
            (0, 0, 1),
            (1, 0, 1),
            (0, 1, 1),
            (1, 1, 1),
        ] {
            sum = sum + fine.at(dx, dy, dz);
        }
        b.assign("b_coarse", eighth * sum);
    })
}

/// DSL definition of the *variable-coefficient* 7-point operator
/// (the paper notes the DSL handles non-constant coefficients):
///
/// `(A x)_c = inv_h2 · Σ_f ½(β_c + β_nbr) · (x_nbr − x_c)`
///
/// with a cell-centered coefficient grid `beta` averaged to faces.
pub fn apply_op_var_def() -> StencilDef {
    StencilDef::build("applyOpVar", |b| {
        let x = b.input("x");
        let beta = b.input("beta");
        let inv_h2 = b.coeff("inv_h2");
        let half = b.constant(0.5);
        let mut sum = None;
        for (dx, dy, dz) in [
            (1i64, 0i64, 0i64),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        ] {
            let face = half.clone() * (beta.at(0, 0, 0) + beta.at(dx, dy, dz));
            let term = face * (x.at(dx, dy, dz) - x.at(0, 0, 0));
            sum = Some(match sum {
                None => term,
                Some(acc) => acc + term,
            });
        }
        b.assign("Ax", inv_h2 * sum.expect("six faces"));
    })
}

/// DSL definition of the 13-point, radius-2 star stencil: the standard
/// fourth-order Laplacian `(−u[±2] + 16u[±1] − 30u[0])/(12h²)` per axis —
/// the "high-order stencils" BrickLib's vector code generator targets with
/// its scatter/reuse transformations.
pub fn star13_def() -> StencilDef {
    StencilDef::build("star13", |b| {
        let x = b.input("x");
        let inv12h2 = b.coeff("inv_12h2");
        let c0 = b.constant(-90.0); // 3 axes × (−30)
        let c1 = b.constant(16.0);
        let c2 = b.constant(-1.0);
        let mut expr = c0 * x.at(0, 0, 0);
        for (dx, dy, dz) in [
            (1i64, 0i64, 0i64),
            (-1, 0, 0),
            (0, 1, 0),
            (0, -1, 0),
            (0, 0, 1),
            (0, 0, -1),
        ] {
            expr = expr + c1.clone() * x.at(dx, dy, dz);
            expr = expr + c2.clone() * x.at(2 * dx, 2 * dy, 2 * dz);
        }
        b.assign("Ax", inv12h2 * expr);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_exchanges_and_grows_on_halo_axes_only() {
        let tally = |halo_axes: [bool; 3]| {
            let shape = VcycleShape {
                halo_axes,
                ..VcycleShape::halving(Point3::splat(16), 2, 4, 6, 10, true)
            };
            let (mut exchanges, mut points) = (0, 0);
            VcycleSchedule::new(shape).vcycle(|step| match step {
                VcycleStep::Exchange { .. } => exchanges += 1,
                VcycleStep::Kernel {
                    level: 0,
                    op: OpKind::ApplyOp,
                    points: p,
                } => points += p,
                _ => {}
            });
            (exchanges, points)
        };
        // No halo axis: no exchange, every smooth covers the owned box.
        assert_eq!(tally([false; 3]), (0, 12 * 16 * 16 * 16));
        // One halo axis: the margin is consumed (and the shell counted)
        // along x only; a 4-cell margin serves 6 smooths with 2 exchanges.
        let grown: usize = [4, 3, 2, 1, 2, 1].iter().map(|m| 16 + 2 * (m - 1)).sum();
        let (exchanges, points) = tally([true, false, false]);
        assert_eq!(points, 2 * grown * 16 * 16);
        assert_eq!(exchanges, tally([true; 3]).0);
        assert!(points < tally([true; 3]).1);
    }

    #[test]
    fn steps_carry_what_an_executor_needs() {
        let shape = VcycleShape::halving(Point3::splat(16), 2, 4, 6, 10, true);
        let walk = |mut schedule: VcycleSchedule| {
            let mut steps = Vec::new();
            schedule.vcycle(|s| steps.push(s));
            steps
        };
        let steps = walk(VcycleSchedule::new(shape.clone()));
        // Each smoothing iteration's kernels cover its reach's region.
        for w in steps.windows(2) {
            if let [VcycleStep::Smooth { level, reach }, next] = *w {
                let e = shape.extents[level];
                let points = (0..3).map(|a| e[a] + 2 * (reach - 1)).product::<i64>();
                let op = OpKind::ApplyOp;
                assert_eq!(
                    next,
                    VcycleStep::Kernel {
                        level,
                        op,
                        points: points as usize
                    }
                );
            }
        }
        // The exchange of `b` follows the `InitZero` that announces it.
        let iz = steps
            .iter()
            .position(|s| matches!(s, VcycleStep::InitZero { .. }))
            .unwrap();
        let b = VcycleStep::InitZero {
            level: 1,
            exchange_b: true,
        };
        assert_eq!(steps[iz..iz + 2], [b, VcycleStep::Exchange { level: 1 }]);
        // A finest level the convergence check just exchanged skips the
        // opening exchange and nothing else.
        assert_eq!(steps[0], VcycleStep::Exchange { level: 0 });
        let resumed = walk(VcycleSchedule::new(shape).with_finest_margin(4));
        assert_eq!(resumed[..], steps[1..]);
    }

    #[test]
    fn table4_theoretical_ai_matches_paper() {
        // Paper Table IV values.
        let expect = [
            (OpKind::ApplyOp, 0.50),
            (OpKind::Smooth, 0.125),
            (OpKind::SmoothResidual, 0.15),
            (OpKind::Restriction, 0.11),
            (OpKind::InterpolationIncrement, 0.06),
        ];
        for (op, ai) in expect {
            let got = op.traffic().theoretical_ai();
            assert!(
                (got - ai).abs() < 0.005,
                "{}: computed AI {got:.3} vs paper {ai}",
                op.name()
            );
        }
    }

    #[test]
    fn dsl_defs_are_consistent_with_traffic() {
        // The DSL-derived analysis should agree with the OpTraffic FLOP
        // counts for the fused kernels (where conventions coincide).
        let a = apply_op_def().analysis();
        assert_eq!(a.flops_per_point as f64, OpKind::ApplyOp.traffic().flops);
        assert_eq!(a.grids_read + a.grids_written, 2);

        let s = smooth_def().analysis();
        assert_eq!(s.flops_per_point as f64, OpKind::Smooth.traffic().flops);

        let r = restriction_def().analysis();
        assert_eq!(
            r.flops_per_point as f64,
            OpKind::Restriction.traffic().flops
        );
        assert_eq!(r.distinct_refs, 8);
    }

    #[test]
    fn per_fine_point_normalization() {
        let t = OpKind::Restriction.traffic();
        let f = t.per_fine_point();
        assert!(!f.coarse_granularity);
        assert!((f.reads - 1.0).abs() < 1e-12);
        assert!((f.writes - 0.125).abs() < 1e-12);
        assert!((f.flops - 1.0).abs() < 1e-12);
        // Fine-granularity ops pass through unchanged.
        let a = OpKind::ApplyOp.traffic();
        assert_eq!(a.per_fine_point(), a);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(OpKind::ApplyOp.name(), "applyOp");
        assert_eq!(OpKind::SmoothResidual.name(), "smooth+residual");
        assert_eq!(
            OpKind::InterpolationIncrement.name(),
            "interpolation+increment"
        );
        assert_eq!(ALL_OPS.len(), 5);
    }

    #[test]
    fn variable_coefficient_def_analysis() {
        let a = apply_op_var_def().analysis();
        assert_eq!(a.grids_read, 2); // x and beta
        assert_eq!(a.grids_written, 1);
        assert_eq!(a.radius, gmg_mesh::Point3::splat(1));
        // 7 distinct x refs + 7 distinct beta refs.
        assert_eq!(a.distinct_refs, 14);
        assert!(a.flops_per_point > 20);
    }

    #[test]
    fn star13_analysis() {
        let a = star13_def().analysis();
        assert_eq!(a.distinct_refs, 13);
        assert_eq!(a.radius, gmg_mesh::Point3::splat(2));
        assert_eq!(a.grids_read, 1);
        // One streamed read + one write: same compulsory traffic as the
        // 7-point operator, ~3× the FLOPs — higher arithmetic intensity,
        // which is why high-order stencils profit most from reuse.
        assert_eq!(a.doubles_moved_per_point, 2);
        assert!(a.theoretical_ai() > 1.0);
        assert!(a.reuse_factor() >= 13.0);
    }

    #[test]
    fn residual_def_is_one_sub() {
        let a = residual_def().analysis();
        assert_eq!(a.flops_per_point, 1);
        assert_eq!(a.grids_read, 2);
        assert_eq!(a.grids_written, 1);
    }
}
