//! # gmg-trace — structured span/counter tracing for the GMG stack
//!
//! The paper's whole argument is observability-driven: Table II (% of
//! finest-level time per op), Figure 5 (achieved GStencil/s against the
//! latency-throughput model) and Figure 6 (exchange GB/s) are all derived
//! from per-op, per-level, per-rank instrumentation of the running solver.
//! This crate is that instrumentation layer for the reproduction:
//!
//! * [`probe`] — the one seam instrumented code names: a guard per timed
//!   op, a builder per instant, one per-thread context, and the one store
//!   behind it, the thread's flight ring. This is the leaf crate every
//!   instrumented crate can depend on, and it owns the epoch clock.
//! * [`ring`] — that store: the POD ring event and the per-rank
//!   lock-free ring buffer (`gmg-flight` keeps the per-run world of them,
//!   dumps and synthetic logs).
//! * [`log`] — a ring (or a window on it) as data, and
//!   [`rebuild_trace`], the one conversion from ring events to the
//!   [`Trace`] every analysis reads.
//! * [`config`] — the observability environment variables, parsed in
//!   one place into a typed [`ObsConfig`].
//! * [`capture`] — capture sessions and their [`Trace`]: **spans** with
//!   `{rank, level, op}` attribution and monotonic timestamps from one
//!   process-wide epoch, and **counters** (bytes read/written, FLOPs,
//!   stencil points, messages, message bytes).
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter, and
//!   only that: a run persists as a flight dump, which `gmg-flight`
//!   writes and reads. One Perfetto process per rank, with
//!   a dedicated `comm` thread track, so `RankWorld` send/recv intervals
//!   render as a real timeline at <https://ui.perfetto.dev>, with an
//!   arrow from each send to the `recv` it completed (the one
//!   send ↔ receive join, [`Trace::messages`], by the sender's wire
//!   sequence number).
//! * [`folded`] — flamegraph folded stacks: a trace's span tree folded
//!   into `rank;op@L<level>;… self-ns` lines, and their text.
//! * [`summary`] — [`TraceSummary`], the one cross-rank Table II: per-op
//!   time fractions and achieved GStencil/s / GB/s *from a trace*, for
//!   side-by-side comparison with the machine-model roofline.
//! * [`json`] — the minimal self-contained JSON codec backing [`chrome`]
//!   and the dumps (this crate is deliberately dependency-free).
//!
//! ## Capture model
//!
//! Every probe writes one event into its thread's flight ring, traced or
//! not. A [`capture`] session is the window `[head at open, head at
//! close)` on the rings of the threads it covers: the thread that opened
//! it, and every rank thread of a `RankWorld` started under it (each
//! rank's ring joins the capture). A thread with no ring — a harness
//! thread outside any world — gets one from the capture at its first
//! record. While a capture is open the probes also price
//! compute ops into byte / FLOP counters, time sends and record pack /
//! unpack spans. Concurrent captures on different threads read different
//! rings, which keeps parallel tests deterministic; a window longer than
//! its ring is reported in [`Trace::lost`], never silently cut.
//!
//! ```
//! use gmg_trace::{capture, span, Counters, Track};
//!
//! let (result, trace) = capture(|| {
//!     let mut s = span(0, 0, "applyOp", Track::Compute);
//!     s.counters(Counters { flops: 8 * 4096, stencil_points: 4096, ..Default::default() });
//!     drop(s);
//!     42
//! });
//! assert_eq!(result, 42);
//! assert_eq!(trace.events.len(), 1);
//! assert!(trace.to_chrome_string().contains("applyOp"));
//! ```

pub mod capture;
pub mod chrome;
pub mod config;
pub mod folded;
pub mod json;
pub mod log;
pub mod probe;
pub mod ring;
pub mod summary;

pub use capture::{
    capture, current_scope, enabled, epoch, instant_ns, intern, now_ns, span, Counters, OpId,
    Trace, TraceEvent, TraceScope, Track, LEVEL_NONE,
};
pub use config::ObsConfig;
pub use json::Json;
pub use log::{rebuild_trace, RankLog};
pub use ring::{
    FlightEvent, FlightRing, Kind, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG, RING_CAPACITY,
};
pub use summary::{OpRow, TraceSummary};
