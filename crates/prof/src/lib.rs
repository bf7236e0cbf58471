//! An empty stand-in for the deleted sampling profiler. `benchmark/`
//! still calls [`phase`] and may change only in its own PR; ROADMAP
//! item 5's `[benchmark]` PR deletes that call and this crate. Folded
//! stacks now come from the span log (`gmg_trace::folded::fold`).

/// Does nothing.
pub fn phase(_name: &'static str) {}
