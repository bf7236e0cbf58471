//! # gmg-stencil — stencil DSL, analysis, and executors
//!
//! BrickLib couples its brick layout to a Python-syntax stencil DSL and a
//! vector code generator (paper Figure 1). This crate is the Rust analog:
//!
//! * [`expr`] — an expression-builder DSL. The paper's 7-point example
//!   translates directly:
//!
//! ```
//! use gmg_stencil::expr::StencilDef;
//!
//! let apply_op = StencilDef::build("applyOp", |b| {
//!     let x = b.input("x");
//!     let alpha = b.coeff("alpha");
//!     let beta = b.coeff("beta");
//!     let calc = alpha * x.at(0, 0, 0)
//!         + beta
//!             * ((x.at(1, 0, 0) + x.at(-1, 0, 0))
//!                 + (x.at(0, 1, 0) + x.at(0, -1, 0))
//!                 + (x.at(0, 0, 1) + x.at(0, 0, -1)));
//!     b.assign("Ax", calc);
//! });
//! assert_eq!(apply_op.analysis().flops_per_point, 8);
//! ```
//!
//! * [`analysis`] — static analysis of a stencil definition: FLOPs per
//!   point, distinct reads, ghost radius, and the theoretical (compulsory
//!   cache miss) arithmetic intensity that regenerates the paper's Table IV.
//! * [`interp`] — the one reference interpreter: [`interp::run_stencil`]
//!   runs any definition on conventional arrays and on bricks alike, bit
//!   for bit the same. The variable-coefficient and 13-point operators of
//!   [`ops`] run through it on both layouts.
//! * [`exec_array`] / [`exec_brick`] — one hand-specialized 7-point
//!   kernel per layout, the role BrickLib's generated code plays (tight
//!   per-brick inner loops with neighbor indirection only on brick
//!   faces), plus the bricked residual norms and pointwise updates the
//!   solver runs.
//! * [`exec_fused`] — the one-pass communication-avoiding Jacobi smoother:
//!   per iteration every brick's `A·x` goes row by row from the stencil
//!   straight into `x` of a second buffer (3 doubles moved per point
//!   instead of the sweep pair's 5, no `A·x` field; the last iteration
//!   also stores `r`), bit-identical on its valid region to the
//!   sweep-by-sweep schedule.
//! * [`isa`] — the instruction-set tier (AVX-512, AVX2 or the build's
//!   baseline) every hand-written 7-point kernel above runs at, detected
//!   once per process; one source compiled per tier, the same bits at each.
//! * [`ops`] — the canonical V-cycle operator definitions, their traffic
//!   metadata used by the performance models, and the V-cycle op schedule
//!   ([`VcycleSchedule`]) those models price and both solvers execute.

pub mod analysis;
mod brick_rows;
pub mod exec_array;
pub mod exec_brick;
pub mod exec_fused;
pub mod expr;
pub mod interp;
pub mod isa;
pub mod ops;

pub use analysis::StencilAnalysis;
pub use expr::{Expr, StencilDef};
pub use isa::Isa;
pub use ops::{OpKind, OpTraffic, VcycleSchedule, VcycleShape, VcycleStep, ALL_OPS};
