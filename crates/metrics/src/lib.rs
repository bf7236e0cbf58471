//! `gmg-metrics` — metrics registry and trace-analysis engine.
//!
//! Two halves, one goal: turn the raw instrumentation the solver and
//! comm runtime already emit into *actionable* performance attribution.
//!
//! **Registry** ([`Registry`], [`hist::Histogram`]): a thread-safe
//! hierarchical store of monotonic counters, gauges, and mergeable
//! log-bucketed histograms, keyed by the probe's `{rank, level, op}`
//! [`Key`]. It is one of the sinks behind `gmg_trace::probe` ([`sink`]
//! names every series the instrumented code feeds); [`enable`] /
//! [`enabled`] switch it.
//! Snapshots serialize to JSON ([`Snapshot::to_json`], what
//! `GMG_METRICS` writes), and snapshot *deltas*
//! ([`Snapshot::delta_since`]) isolate what one phase recorded in the
//! shared global registry.
//!
//! **Analysis** ([`analysis`]): consumes a captured [`gmg_trace::Trace`]
//! and computes the per-V-cycle cross-rank critical path, per-level
//! load-imbalance factors, MAD-based straggler detection, and roofline
//! attribution against `gmg-machine` numbers (passed in as a plain
//! [`analysis::MachineEnvelope`] so this crate stays leaf-level). The
//! `gmg-bench` `analyze` binary renders all of it as a markdown report.
//!
//! Like `gmg-trace`, this crate is deliberately free of external
//! dependencies: it sits behind solver/comm hot paths and must never
//! perturb bench builds through feature unification.

pub mod analysis;
pub mod hist;
pub mod registry;
pub mod sink;
pub mod snapshot;

pub use analysis::{imbalance_from_seconds, Analysis, MachineEnvelope, MessageEdge};
pub use hist::Histogram;
pub use registry::{disable, enable, enabled, Counter, Gauge, HistogramHandle, Key, Registry};
pub use snapshot::{Snapshot, SnapshotEntry, Value};

/// Shorthand for a handle on the global registry's counter `name`,
/// keyed `{rank, level, op}`.
pub fn counter(name: &'static str, rank: usize, level: Option<usize>, op: &'static str) -> Counter {
    Registry::global().counter(name, Key::new(rank, level, op))
}

/// Shorthand for a handle on the global registry's gauge `name`.
pub fn gauge(name: &'static str, rank: usize, level: Option<usize>, op: &'static str) -> Gauge {
    Registry::global().gauge(name, Key::new(rank, level, op))
}

/// Shorthand for a handle on the global registry's histogram `name`.
pub fn histogram(
    name: &'static str,
    rank: usize,
    level: Option<usize>,
    op: &'static str,
) -> HistogramHandle {
    Registry::global().histogram(name, Key::new(rank, level, op))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_shorthands_hit_one_registry() {
        counter("lib_test_total", 3, Some(1), "op").add(2);
        histogram("lib_test_ns", 3, None, "op").record(42);
        let snap = Registry::global().snapshot();
        assert_eq!(
            snap.counter_total("lib_test_total"),
            counter("lib_test_total", 3, Some(1), "op").get()
        );
        assert!(snap.histogram_total("lib_test_ns").count() >= 1);
    }
}
