//! # gmg-repro — facade crate
//!
//! Re-exports the whole workspace under one roof so examples, integration
//! tests and downstream users can write `use gmg_repro::prelude::*`.
//!
//! Reproduction of *"High-Performance, Scalable Geometric Multigrid via
//! Fine-Grain Data Blocking for GPUs"* (SC 2024). See `README.md` for the
//! quickstart, `DESIGN.md` for the system inventory, and `EXPERIMENTS.md`
//! for paper-vs-measured results.

pub use gmg_brick as brick;
pub use gmg_comm as comm;
pub use gmg_core as gmg;
pub use gmg_flight as flight;
pub use gmg_hpgmg as hpgmg;
pub use gmg_machine as machine;
pub use gmg_mesh as mesh;
pub use gmg_metrics as metrics;
pub use gmg_scale as scale;
pub use gmg_stencil as stencil;
pub use gmg_trace as trace;

/// The most common imports for building and running a solver.
pub mod prelude {
    pub use gmg_brick::{BrickLayout, BrickOrdering, BrickedField};
    pub use gmg_comm::runtime::{RankCtx, RankWorld};
    pub use gmg_core::{GmgSolver, PoissonProblem, SolveStats, SolverConfig};
    pub use gmg_machine::gpu::System;
    pub use gmg_mesh::{Array3, Box3, Decomposition, Point3};
    pub use gmg_scale::vcycle::{simulate, ScheduleConfig};
    pub use gmg_stencil::expr::StencilDef;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let d = Decomposition::single(Box3::cube(8));
        assert_eq!(d.num_ranks(), 1);
        let cfg = SolverConfig::test_default();
        assert_eq!(cfg.brick_dim, 4);
    }
}
