//! `gmg-metrics` — the trace-analysis engine and its histogram.
//!
//! **Analysis** ([`analysis`]): consumes a captured [`gmg_trace::Trace`]
//! and computes the per-V-cycle cross-rank critical path (following the
//! flight recorder's exact [`gmg_flight::MessageEdge`]s where a dump
//! supplies them), per-level load-imbalance factors, MAD-based
//! straggler detection, and roofline attribution against `gmg-machine`
//! numbers (passed in as a plain [`analysis::MachineEnvelope`] so this
//! crate stays leaf-level). The `gmg-bench` `analyze` binary renders all
//! of it as a markdown report.
//!
//! **Histogram** ([`hist::Histogram`]): a mergeable log-bucketed
//! histogram; perfgate's trajectory entries keep their per-metric
//! sample distributions in it.
//!
//! Like `gmg-trace`, this crate is deliberately free of external
//! dependencies.

pub mod analysis;
pub mod hist;

pub use analysis::{imbalance_from_seconds, Analysis, MachineEnvelope};
pub use hist::Histogram;

/// Whether a metrics registry records: there is none, so never. A
/// solve's answers live in its `OpTimer` table, the span log and the
/// flight ring. Kept, like the `crates/prof` stub, because the
/// `gmgbench` probes (`benchmark/src/probes.rs`) still call it.
#[inline]
pub fn enabled() -> bool {
    false
}
