//! gmg-live: the cross-process live telemetry plane.
//!
//! The solver's existing observability (gmg-metrics registries,
//! gmg-flight rings, gmg-trace spans) is *post-hoc*: each rank owns its
//! state and nothing aggregates until the run ends. This crate adds the
//! live, cross-process view:
//!
//! * [`Shipper`] — per-rank, hangs off the solver's `progress_hook`;
//!   ships heartbeat/progress beacons every V-cycle, periodic
//!   `Snapshot::delta_since` metric deltas, and a final flight/trace
//!   digest as best-effort [`gmg_comm::FrameKind::Telemetry`] datagrams
//!   on the controller's sidecar socket (`t.sock`), or straight into a
//!   local collector for thread transports. No ARQ, no blocking: a lost
//!   frame is counted, never retried, and the solve's residual history
//!   is bit-identical with the shipper on or off (`GMG_LIVE=0` is the
//!   kill switch).
//! * [`Collector`] — merges per-rank deltas (seq-deduped, seq-gap
//!   accounted, membership-epoch fenced) into one global live registry
//!   and runs the [`AlertEngine`]: divergence, silent-rank, straggler
//!   (MAD outliers over per-rank per-level op times), ARQ-storm.
//! * [`PromServer`] — std-only HTTP/1.0 endpoint (`GMG_PROM_ADDR`)
//!   serving the merged registry as Prometheus text plus a JSON status
//!   document; the collector can also mirror status to files.
//!
//! Dependency-free beyond the workspace, like everything else here.

pub mod alert;
pub mod collect;
pub mod http;
pub mod ship;
pub mod wire;

pub use alert::{Alert, AlertConfig, AlertEngine, AlertKind, RankObservation};
pub use collect::{Collector, CollectorHandle};
pub use http::{http_get, PromServer};
pub use ship::{Beacon, Shipper};
