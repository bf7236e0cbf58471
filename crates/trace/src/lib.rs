//! # gmg-trace — structured span/counter tracing for the GMG stack
//!
//! The paper's whole argument is observability-driven: Table II (% of
//! finest-level time per op), Figure 5 (achieved GStencil/s against the
//! latency-throughput model) and Figure 6 (exchange GB/s) are all derived
//! from per-op, per-level, per-rank instrumentation of the running solver.
//! This crate is that instrumentation layer for the reproduction:
//!
//! * [`probe`] — the one seam instrumented code names: a guard per timed
//!   op, a builder per instant, one `{rank, level, op}` key, one
//!   per-thread context, and the two sinks (span log, flight ring)
//!   behind it. This is the leaf crate every instrumented crate can
//!   depend on, and it owns the epoch clock.
//! * [`config`] — the four observability environment variables, parsed
//!   in one place into a typed [`ObsConfig`].
//! * [`sink`] — the span log: **spans** (begin/end with `{rank, level,
//!   op}` attribution, monotonic timestamps from one process-wide epoch)
//!   and **counters** (bytes read/written, FLOPs, stencil points,
//!   messages, message bytes), buffered per thread.
//! * [`chrome`] — a Chrome trace-event / Perfetto JSON exporter (and
//!   parser, for round-trip testing). One Perfetto process per rank, with
//!   a dedicated `comm` thread track, so `RankWorld` send/recv intervals
//!   render as a real timeline at <https://ui.perfetto.dev>, with an
//!   arrow from each send to the `recv` it completed (the one
//!   send ↔ receive join, [`Trace::messages`], by the sender's wire
//!   sequence number).
//! * [`folded`] — flamegraph folded stacks: a trace's span tree folded
//!   into `rank;op@L<level>;… self-ns` lines, and the text codec.
//! * [`summary`] — [`TraceSummary`], which recomputes Table II's per-op
//!   time fractions and the achieved GStencil/s / GB/s *from a trace*,
//!   for side-by-side comparison with the machine-model roofline.
//! * [`json`] — the minimal self-contained JSON codec backing [`chrome`]
//!   (this crate is deliberately dependency-free).
//!
//! ## Capture model
//!
//! Events are only recorded inside a [`capture`] session. A session owns a
//! [`TraceScope`] installed in the thread's probe context; `gmg-comm`'s
//! `RankWorld` propagates the spawning thread's scope into every rank
//! thread, so a capture around `RankWorld::run` sees all ranks. Concurrent
//! captures in one process are isolated from each other (each has its own
//! sink), which keeps parallel tests deterministic.
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

pub mod chrome;
pub mod config;
pub mod folded;
pub mod json;
pub mod probe;
pub mod sink;
pub mod summary;

pub use config::ObsConfig;
pub use json::Json;
pub use sink::{
    capture, current_scope, enabled, epoch, instant_ns, intern, now_ns, record, span, Counters,
    OpId, Trace, TraceEvent, TraceScope, Track, LEVEL_NONE,
};
pub use summary::{OpRow, TraceSummary};
