//! gmg-flight: an always-on flight recorder for the distributed solver.
//!
//! Large-scale multigrid failures are rarely reproducible: a rank dies,
//! a message is lost, a residual diverges — and the evidence evaporates
//! with the process. This crate keeps a fixed-capacity, lock-free ring
//! buffer of POD events per rank (the aviation black-box model): cheap
//! enough to leave on in production runs, bounded in memory, and
//! overwriting the oldest events on wrap so the *most recent* history is
//! always present.
//!
//! Four layers:
//!
//! * [`ring`] — the per-rank seqlock ring. Writers never block, never
//!   allocate, and never tear; readers get validated whole events.
//! * [`recorder`] — the per-run [`FlightWorld`], the ring as one of the
//!   sinks behind `gmg_trace::probe` (the comm runtime and the solvers
//!   record through the probe; events inherit the level of the op they
//!   happen inside), and the process-wide switch.
//! * [`synth`] — `Vec`-backed builders producing the same `RankLog`
//!   schema for *simulated* worlds (the `gmg-scale` observatory), so
//!   the analysis layer runs on modelled timelines unchanged.
//! * [`log`] + [`dump`] — the rings as data: persist or reload
//!   black-box dumps for crash postmortems, each rank a [`RankLog`] that
//!   also carries its ring's health (events `written` and `lost`), and
//!   [`rebuild_trace`] turning the rings into one `gmg_trace::Trace`.
//!   Every analysis — the critical path, the wait-state classifier, the
//!   Perfetto export — reads that trace (`gmg-metrics`).
//!
//! The `GMG_FLIGHT` and `GMG_FLIGHT_DIR` environment knobs are parsed by
//! [`gmg_trace::ObsConfig`] and reach this crate through
//! [`FlightWorld::for_run`] and [`merge_dumps`]; a run's rings hold
//! [`RING_CAPACITY`] events each, and a process writes at most
//! [`MAX_DUMPS`] dumps.

pub mod dump;
pub mod log;
pub mod recorder;
pub mod ring;
pub mod synth;

pub use dump::{
    dump_installed, dump_world, dump_world_to, load_dump, merge_dumps, DumpBundle, MAX_DUMPS,
    MAX_DUMP_RANKS,
};
pub use log::{rebuild_trace, RankLog};
pub use recorder::{installed, record_compute, set_enabled, FlightWorld, RING_CAPACITY};
pub use ring::{EventKind, FlightEvent, FlightRing, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};
pub use synth::{into_logs, SynthLog};
