//! gmg-flight: an always-on flight recorder for the distributed solver.
//!
//! Large-scale multigrid failures are rarely reproducible: a rank dies,
//! a message is lost, a residual diverges — and the evidence evaporates
//! with the process. Every probe already writes into its rank's
//! fixed-capacity, lock-free ring of POD events (`gmg_trace::ring`, the
//! aviation black-box model): cheap enough to leave on in production
//! runs, bounded in memory, and overwriting the oldest events on wrap so
//! the *most recent* history is always present. This crate keeps those
//! rings for a run and turns them into evidence.
//!
//! Three layers:
//!
//! * [`recorder`] — the per-run [`FlightWorld`] of rings (every rank's
//!   in a thread world, its own in a process-world child), installing a
//!   rank's ring on its thread (the comm runtime and the solvers record
//!   through `gmg_trace::probe`; events inherit the level of the op they
//!   happen inside).
//! * [`synth`] — `Vec`-backed builders producing the same `RankLog`
//!   schema for *simulated* worlds (the `gmg-scale` observatory), so
//!   the analysis layer runs on modelled timelines unchanged.
//! * [`dump`] — the rings as data: persist or reload dumps — black boxes
//!   written on failure, and the captures a `GMG_TRACE` run saves
//!   ([`dump_logs`]) — each rank a [`RankLog`] that also carries its
//!   ring's health (events `written` and `lost`), which
//!   [`rebuild_trace`] — the conversion a live capture uses too — turns
//!   into one `gmg_trace::Trace`. Every analysis — the critical path,
//!   the wait-state classifier, the failure verdict, the Perfetto export
//!   — reads that trace (`gmg-metrics`, rendered by `analyze`).
//!
//! The recorder has no off switch. Where dumps land (`GMG_FLIGHT_DIR`)
//! is parsed by [`gmg_trace::ObsConfig`] and reaches this crate through
//! [`FlightWorld::for_run`] and [`merge_dumps`]; a run's rings hold
//! [`RING_CAPACITY`] events each, and a process writes at most
//! [`MAX_DUMPS`] dumps.

pub mod dump;
pub mod recorder;
pub mod synth;

pub use dump::{
    dump_installed, dump_logs, dump_world, dump_world_to, load_dump, merge_dumps, DumpBundle,
    MAX_DUMPS, MAX_DUMP_RANKS,
};
pub use gmg_trace::{
    rebuild_trace, FlightEvent, FlightRing, Kind, RankLog, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG,
    RING_CAPACITY,
};
pub use recorder::{installed, record_compute, FlightWorld, Installed};
pub use synth::{into_logs, SynthLog};
