//! `gmg-metrics` — the trace-analysis engine.
//!
//! [`analysis`] consumes a captured [`gmg_trace::Trace`] and computes the
//! per-V-cycle cross-rank critical path (any receive the trace joins to
//! its send by wire sequence number is a wait, whatever op encloses it),
//! the wait-state class of every receive over the same join, per-level
//! load-imbalance factors, MAD-based straggler detection, and roofline
//! attribution against `gmg-machine` numbers (passed in as a plain
//! [`analysis::MachineEnvelope`] so this crate stays leaf-level). The
//! `gmg-bench` `analyze` binary renders all of it as a markdown report.
//!
//! Like `gmg-trace`, this crate is deliberately free of external
//! dependencies.

pub mod analysis;

pub use analysis::{imbalance_from_seconds, Analysis, MachineEnvelope};

/// Whether a metrics registry records: there is none, so never. A
/// solve's answers live in its `OpTimer` table, the span log and the
/// flight ring. Kept, like the `crates/prof` stub, because the
/// `gmgbench` probes (`benchmark/src/probes.rs`) still call it.
#[inline]
pub fn enabled() -> bool {
    false
}
