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
//! * [`waitstate`] + [`dump`] — offline analysis: join send/recv pairs
//!   into causal cross-rank message edges, classify every comm wait
//!   (late-sender / late-receiver / ARQ-stall / starvation), and persist
//!   or reload black-box dumps for crash postmortems. A dump's
//!   per-rank [`RankLog`] also carries its ring's health: events
//!   `written` and `lost`.
//!
//! The `GMG_FLIGHT*` environment knobs are parsed by
//! [`gmg_trace::ObsConfig`] and reach this crate through
//! [`FlightWorld::for_run`] and [`merge_dumps`].

pub mod dump;
pub mod recorder;
pub mod ring;
pub mod synth;
pub mod waitstate;

pub use dump::{
    dump_installed, dump_world, dump_world_to, load_dump, merge_dumps, DumpBundle, MAX_DUMP_RANKS,
};
pub use recorder::{installed, record_compute, set_enabled, FlightWorld};
pub use ring::{EventKind, FlightEvent, FlightRing, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};
pub use synth::{into_logs, SynthLog};
pub use waitstate::{
    analyze, MessageEdge, RankLog, WaitAnalysis, WaitClass, WaitSample, WaitStats,
};
