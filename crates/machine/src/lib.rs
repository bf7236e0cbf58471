//! # gmg-machine — GPU machine models and performance methodology
//!
//! The paper analyzes every kernel and communication operation through two
//! models:
//!
//! 1. the **roofline** (attainable GFLOP/s = min(peak, AI × bandwidth)),
//!    from which it derives per-operation GStencil/s ceilings, and
//! 2. the **latency-throughput model** `f(x) = x / (α + x/β)`, from which
//!    it extracts empirical latency/overhead (α) and sustained
//!    throughput/bandwidth (β).
//!
//! This crate implements both, plus the machine descriptions of the three
//! GPUs the paper evaluates (NVIDIA A100, AMD MI250X GCD, Intel PVC tile)
//! and the Pennycook performance-portability metric Φ with the paper's
//! additional fraction-of-theoretical-AI metric Ψ.
//!
//! ## Substitution note
//!
//! Without the physical GPUs, per-op efficiencies (fraction of roofline,
//! fraction of theoretical AI) are *calibrated from the paper's own
//! measurements* (Tables III and V) and carried as machine-model constants;
//! every downstream quantity — kernel times, GStencil/s curves, portability
//! aggregates, potential speedups — is **recomputed** from these primitives
//! by the harnesses, so the models stay internally consistent.

pub mod contention;
pub mod cpu;
pub mod gpu;
pub mod microbench;
pub mod model;
pub mod portability;
pub mod timing;

pub use contention::ContentionModel;
pub use cpu::CpuModel;
pub use gpu::{GpuModel, OpEfficiency, System};
pub use microbench::HostRoofline;
pub use model::LatencyThroughput;
pub use portability::{harmonic_mean_phi, potential_speedup, PortabilityTable};
pub use timing::KernelTiming;
