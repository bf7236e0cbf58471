//! # gmg-comm — interconnect model and MPI-like rank runtime
//!
//! The paper's communication story has two layers, and so does this crate:
//!
//! * [`model`] — a message-level performance model of a Slingshot-11-class
//!   NIC: sustained bandwidth, software latency, eager vs rendezvous
//!   protocol selection (the `FI_CXI_RDZV_*` environment knobs of Table I),
//!   hardware message matching, GPU-aware vs host-staged injection, and a
//!   mild contention term for multi-node jobs. Calibrated per system from
//!   the paper's Figure 6 discussion.
//! * [`plan`] — geometry → message plan: which of the 26 neighbors gets how
//!   many bytes per ghost exchange at a given level, ghost depth and layout
//!   (bricked plans also carry the contiguous-run counts that quantify the
//!   pack-free property of the surface-major ordering).
//! * [`runtime`] — a real, threaded, in-process rank runtime with
//!   ISend/IRecv/WaitAll semantics (channels + tag matching) used to execute
//!   the *actual* distributed V-cycle numerics at test scale, including the
//!   26-neighbor bricked and conventional ghost exchanges.
//! * [`fault`] — a deterministic, seedable fault-injection layer (drop /
//!   reorder / duplicate / corrupt / stall / kill) plus the typed
//!   [`CommError`] / [`WorldFailure`] vocabulary; the runtime's reliable
//!   protocol (sequence numbers, checksums, ACK + bounded retransmission)
//!   absorbs the recoverable faults and reports the rest structurally.
//! * [`transport`] / [`frame`] / [`socket`] / [`process`] — the runtime's
//!   `Transport` abstraction and its two backends: the original
//!   in-process channels (`ThreadTransport`) and a one-OS-process-per-rank
//!   backend over Unix-domain-socket datagrams with a checksummed,
//!   fragmenting frame codec.
//!   `process` adds the elastic-membership controller: heartbeat failure
//!   detection, respawn, and checkpoint-based rank rejoin, as the IO shell
//!   of the sans-IO `membership` core.

pub mod fault;
pub mod frame;
#[cfg(unix)]
pub(crate) mod membership;
pub mod model;
pub mod plan;
#[cfg(unix)]
pub mod process;
pub(crate) mod reliable;
pub mod runtime;
#[cfg(unix)]
pub mod socket;
pub(crate) mod transport;

pub use fault::{CommError, FaultConfig, FaultPlan, RankFailure, RetryPolicy, WorldFailure};
pub use frame::{Frame, FrameError, FrameKind};
pub use model::{NetworkModel, Protocol};
pub use plan::{ArrayExchangePlan, BrickExchangePlan};
#[cfg(unix)]
pub use process::{ProcessReport, ProcessWorld, RejoinEvent};
pub use runtime::{exchange_array, exchange_bricked, ArqStats, RankCtx, RankWorld};
#[cfg(unix)]
pub use socket::{SocketKind, SocketTransport};
