//! # gmg-brick — fine-grain data blocking (the BrickLib analog)
//!
//! The paper's central optimization is storing *ijk* grids as small
//! contiguous *bricks* (8³ on Perlmutter/Frontier, 4³ on Sunspot) instead of
//! one big lexicographic array. Bricks give three things:
//!
//! 1. **Fewer address streams.** A radius-1 stencil tile over a conventional
//!    array touches `O(tile_area)` distinct cache-line streams; over a brick
//!    it touches a handful of contiguous blocks, exploiting multi-word cache
//!    lines, prefetchers and TLBs.
//! 2. **Indirection.** Bricks are addressed through an adjacency table, so
//!    their *physical* storage order is free. We provide a lexicographic
//!    order and a *surface-major* order in which every ghost region and
//!    every surface class is physically contiguous — making halo exchange
//!    **pack-free** (the PPoPP'21 optimization the paper uses). The same
//!    table makes a logical neighbor that is not a physical one free: on an
//!    axis where a subdomain is its own periodic neighbor the last brick's
//!    `+1` face points at the first, with no ghost bricks and no exchange.
//! 3. **Deep ghost zones for communication-avoiding smoothing.** The ghost
//!    shell is a whole brick thick (8 cells), so up to `brick_dim` smoother
//!    applications can run between exchanges, redundantly recomputing ghost
//!    cells instead of communicating.
//!
//! The main types are [`BrickLayout`] (geometry + ordering + adjacency) and
//! [`BrickedField`] (the data). Stencil execution lives in `gmg-stencil`;
//! this crate only provides the layout, conversions and the per-brick
//! views kernels read through: a brick and its six face neighbours
//! ([`BrickFaces`]), and one brick's cells as a fixed-size [`Cube`]
//! ([`cube`], [`cube_mut`]).

pub mod field;
pub mod layout;
pub mod neighborhood;

pub use field::BrickedField;
pub use layout::{BrickLayout, BrickOrdering, BrickShape, HaloDir, SlotClass, NO_BRICK};
pub use neighborhood::{cube, cube_mut, BrickFaces, Cube};
