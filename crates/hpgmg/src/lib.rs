//! # gmg-hpgmg — the conventional-layout GMG baseline
//!
//! The paper's Figure 4 compares the bricked GMG against HPGMG-CUDA, the
//! open-source finite-volume geometric multigrid proxy. This crate is our
//! stand-in baseline: the *same* V-cycle (Algorithm 2, same smoother, same
//! operators, the steps of the same `gmg_stencil::VcycleSchedule`)
//! implemented the conventional way —
//!
//! * fields in plain lexicographic `ijk` arrays with a 1-deep ghost shell,
//! * pack/unpack staging buffers for every halo message,
//! * an exchange before **every** smooth (no communication-avoiding),
//! * no data blocking.
//!
//! Because the numerics are identical, the baseline doubles as a
//! correctness oracle: residual histories must match the bricked solver to
//! rounding. The performance differences — which the layout benchmarks and
//! the Figure 4 harness measure — come purely from data movement and
//! communication structure, exactly the paper's claim.

pub mod solver;

pub use solver::{HpgmgSolver, HpgmgStats};
