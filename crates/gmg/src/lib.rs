//! # gmg-core — geometric multigrid on fine-grain data-blocked grids
//!
//! The paper's primary contribution: a full GMG V-cycle (Algorithms 1–2)
//! where every field lives in bricked storage, ghost zones are a whole
//! brick deep (enabling communication-avoiding smoothing), and halo
//! exchange uses the surface-major pack-free brick ordering.
//!
//! The solver ([`solver`]) runs distributed over the threaded or
//! process rank runtime of `gmg-comm`, numerics verified against the
//! analytic model problem. Its V-cycle executes the steps of
//! `gmg_stencil::VcycleSchedule`; the same schedule priced against GPU and
//! network models, at scales (512 GPUs, 512³ per rank) no test machine
//! holds in memory, is `gmg-scale`'s `vcycle` simulator.
//!
//! The model problem is the paper's: 3D Poisson, unit cube, periodic
//! boundaries, `b = sin(2πx)·sin(2πy)·sin(2πz)`, 7-point operator with
//! `α = −6/h²`, `β = 1/h²`, point-Jacobi smoothing `x += γ(Ax − b)` with
//! `γ = h²/12`, convergence at max-norm residual < 1e-10.

pub mod diagnostics;
pub mod level;
pub mod ops;
pub mod problem;
pub mod rejoin;
pub mod solver;
pub mod timers;
pub mod trace;

pub use diagnostics::{HealthMonitor, RecoveryPolicy, SolveHealth};
pub use level::Level;
pub use problem::PoissonProblem;
pub use rejoin::{RejoinStore, SolverCheckpoint};
pub use solver::{GmgSolver, SolveStats, SolverConfig};
pub use timers::OpTimer;
