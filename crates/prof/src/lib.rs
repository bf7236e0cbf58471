//! # gmg-prof — in-process sampling profiler for the GMG kernels
//!
//! The committed perfgate trajectory shows the paper's headline mechanism
//! losing on this host: bricked applyOp at ~0.10× the plain-array kernel.
//! Whole-kernel spans (gmg-trace) can say *that*; they cannot say *where
//! inside the kernel* the time goes — interior stencil math, per-point
//! brick-adjacency lookups, index arithmetic, or boundary handling. This
//! crate is the layer below the span: a sampling profiler whose units are
//! **sub-kernel phases**.
//!
//! * [`stack`] — per-thread, fixed-depth phase stacks with seqlock
//!   readers, following `gmg-flight`'s single-writer/no-alloc discipline.
//!   The stack is the profiler's sink behind `gmg_trace::probe` (solver
//!   ops push their frame through their probe guard); [`phase`] is the
//!   marker for what lies below an op: push a `'static` sub-kernel phase
//!   name, get an RAII pop.
//! * [`sampler`] — a background thread snapshots every registered stack
//!   at a configurable interval ([`Session`] / [`Profile`]), accumulating
//!   flamegraph-compatible folded stacks plus per-phase self/total counts
//!   and per-root wall occupancy. Health (samples taken/dropped, threads,
//!   truncation) exports as gmg-metrics gauges.
//! * [`folded`] — the `a;b;c N` text codec (encode + inverse parse).
//! * [`report`] — the kernel efficiency report: per-phase shares, derived
//!   GB/s and GStencil/s against the [`gmg_metrics::MachineEnvelope`]
//!   roofline, a sampled-vs-traced consistency gate, and the named
//!   bricked-vs-array gap decomposition.
//!
//! The attribution loop closes in `gmg-bench --bin flame`: it runs the
//! perfgate hot kernels under a session, writes `results/flame.folded`
//! and `results/efficiency.md`, and can deliberately slow one phase
//! ([`set_slowdown`], `--inject-slowdown`) to prove the profiler sees
//! exactly the phase that got slower.
//!
//! ```
//! use std::time::Duration;
//! let session = gmg_prof::start(Duration::from_micros(100));
//! {
//!     let _k = gmg_prof::phase("kernel");
//!     let _p = gmg_prof::phase("inner");
//!     std::thread::sleep(Duration::from_millis(5));
//! }
//! let profile = session.stop();
//! assert!(profile.to_folded().contains("kernel"));
//! ```

pub mod folded;
pub mod report;
pub mod sampler;
pub mod stack;

pub use report::{consistency_tolerance, render, KernelReport, ReportVerdict};
pub use sampler::{start, PhaseCounts, Profile, RootBreakdown, Session};
pub use stack::{
    brick_phases, phase, profiling, set_slowdown, BrickPhases, ManualEnable, PhaseGuard,
    PhaseStack, APPLYOP_ARRAY, ARRAY_INTERIOR, MAX_DEPTH,
};
