//! # gmg-mesh — structured-grid substrate
//!
//! This crate provides the index algebra and conventional (non-bricked)
//! storage that the rest of the geometric-multigrid reproduction builds on:
//!
//! * [`Point3`] / [`Box3`] — integer index algebra over 3D cell index space.
//! * [`Array3`] — a conventional lexicographic *ijk* array with ghost cells,
//!   the layout the paper's baseline (and HPGMG) uses and against which
//!   fine-grain data blocking is compared.
//! * [`Decomposition`] — a periodic Cartesian decomposition of a global
//!   domain over MPI-like ranks with 26-neighbor topology.
//! * [`ghost`] — send/receive region geometry for halo exchange at arbitrary
//!   ghost depth (the communication-avoiding optimization needs depth > 1).
//!
//! Everything is deliberately free of any performance *model*; this crate is
//! pure geometry and storage. Timing and machine models live in
//! `gmg-machine` / `gmg-comm`.

pub mod array3;
pub mod box3;
pub mod decomp;
pub mod ghost;
pub mod point;

pub use array3::Array3;
pub use box3::Box3;
pub use decomp::{Decomposition, Neighbor, RankCoords};
pub use ghost::{recv_region, send_region, GhostRegion, DIRECTIONS_26};
pub use point::Point3;
