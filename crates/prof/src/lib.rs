//! An empty stand-in for the deleted sampling profiler. `benchmark/`
//! still calls [`phase`] and may change only in its own PR; ROADMAP
//! item 8(c)'s `[benchmark]` change deletes that call and this crate. Folded
//! stacks now come from a capture's trace (`gmg_trace::folded::fold`).

/// Does nothing.
pub fn phase(_name: &'static str) {}
