//! # gmg-scale — simulated V-cycles, from one rank to 10k
//!
//! Both simulators walk the *real* V-cycle schedule
//! ([`gmg_stencil::VcycleSchedule`]) and price it on one [`Platform`]:
//! the [`gmg_machine`] GPU and CPU models plus the `gmg-comm` network.
//! The observatory adds a fabric
//! [`ContentionModel`](gmg_machine::ContentionModel) and emits its results
//! through the **existing pipes**: ranks inside a configurable window
//! record synthetic flight-recorder logs ([`gmg_flight::SynthLog`]) with
//! exact `(rank, msg_seq)` send↔recv identity, so the production
//! wait-state classifier and critical path (`gmg_metrics::analysis`),
//! per-level imbalance and Perfetto export debug 10k-rank simulated runs
//! as they do 8-rank real ones.
//!
//! Module map:
//!
//! - [`platform`] — the one cost model: [`Platform::paper`] (the only
//!   `System` → network table) and the HPGMG baseline [`Platform::hpgmg`].
//! - [`vcycle`] — one rank's V-cycles: the paper's Figures 3, 4, 8, 9,
//!   Table II and the ablations.
//! - [`topology`] — near-cubic periodic rank grids and rank↔node maps
//!   at arbitrary rank counts.
//! - [`sim`] — the per-phase virtual-clock observatory: deterministic
//!   jitter and loss, communication-avoiding ghost margins, CPU
//!   offload of coarse levels, planted per-level slowdown injection,
//!   and analytic per-level predictions for attribution.
//! - [`fit`] — least-squares fit of the alpha–beta+contention model
//!   over a scaling sweep, with relative-RMS misfit for gating.

pub mod fit;
pub mod platform;
pub mod sim;
pub mod topology;
pub mod vcycle;

pub use fit::{fit_scaling_model, ScalingFit, SweepPoint};
pub use platform::{ExchangeKind, Platform};
pub use sim::{simulate, LevelDecomp, RecordMode, ScaleConfig, ScaleResult, ALLREDUCE_TAG};
pub use topology::{node_of, nodes_for, RankGrid, FACE_DIRS};
