//! Per-thread phase stacks: the writer side of the sampling profiler.
//!
//! Each worker thread owns one [`PhaseStack`] — a fixed-depth array of
//! `&'static str` frames guarded by a single seqlock word, following the
//! same single-writer / many-reader discipline as `gmg_flight`'s ring
//! slots. The stack is the profiler's sink behind `gmg_trace::probe`: it
//! lives in the thread's probe context, a solver op's guard pushes and
//! pops its frame there, and [`phase`] — the marker for sub-kernel
//! phases, which are not ops — pushes onto the same stack, so folded
//! stacks nest `op;kernel;phase`. The hot path never allocates
//! (test-enforced with a counting allocator): frames are stored as raw
//! `(ptr, len)` pairs of `'static` names, and the only allocation is the
//! one-time per-thread creation of the stack itself.
//!
//! The sampler thread reads stacks through [`PhaseStack::sample`], a
//! validated seqlock copy: an odd or changed sequence stamp means the
//! owner was mid-update and the sample is discarded (counted as dropped)
//! rather than ever materializing a torn `&str`.

use gmg_trace::probe::{self, Class, Sink};
use std::any::Any;
use std::cell::UnsafeCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Maximum phase nesting depth captured per thread. Pushes beyond this
/// are counted (`truncated`) but not recorded; pops stay balanced.
pub const MAX_DEPTH: usize = 16;

/// Raw parts of a `&'static str` frame. Stored decomposed so a torn
/// seqlock read only ever copies plain integers; a real `&str` is
/// reconstructed *after* the stamp re-check validates the copy.
type RawFrame = (*const u8, usize);

/// One thread's phase stack. Single writer (the owning thread, via the
/// thread-local handle), many readers (sampler threads).
pub struct PhaseStack {
    /// Seqlock stamp: even = stable, odd = owner mid-update.
    seq: AtomicU64,
    depth: UnsafeCell<usize>,
    frames: [UnsafeCell<RawFrame>; MAX_DEPTH],
    /// Pushes that exceeded `MAX_DEPTH` (owner-written, monotonic).
    truncated: AtomicU64,
    /// Set by the owning thread's TLS destructor; the sampler skips and
    /// eventually unregisters dead stacks.
    dead: AtomicBool,
}

// SAFETY: `depth` and `frames` are only written by the owning thread
// under an odd seqlock stamp, and only read by samplers through the
// validated copy in `sample`, which discards anything observed while the
// stamp was odd or changed. The raw pointers are borrowed from
// `&'static str` names, so they are valid for the program's lifetime.
unsafe impl Send for PhaseStack {}
unsafe impl Sync for PhaseStack {}

impl PhaseStack {
    fn new() -> Self {
        PhaseStack {
            seq: AtomicU64::new(0),
            depth: UnsafeCell::new(0),
            frames: [(); MAX_DEPTH].map(|()| UnsafeCell::new((std::ptr::null(), 0))),
            truncated: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        }
    }

    /// Owner-only: push `name`. Callers must hold the thread-local handle
    /// for this stack (enforced by module privacy — only [`phase`] calls
    /// this).
    fn push(&self, name: &'static str) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: single writer; readers validate against the stamp.
        unsafe {
            let d = *self.depth.get();
            if d < MAX_DEPTH {
                *self.frames[d].get() = (name.as_ptr(), name.len());
            }
            *self.depth.get() = d + 1;
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
        // `depth` may logically exceed MAX_DEPTH (so pops stay balanced);
        // only the first MAX_DEPTH frames are recorded.
        if unsafe { *self.depth.get() } > MAX_DEPTH {
            self.truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Owner-only: pop the top frame.
    fn pop(&self) {
        let s = self.seq.load(Ordering::Relaxed);
        self.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        // SAFETY: single writer; readers validate against the stamp.
        unsafe {
            let d = *self.depth.get();
            debug_assert!(d > 0, "phase pop without matching push");
            *self.depth.get() = d.saturating_sub(1);
        }
        self.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Total pushes that overflowed [`MAX_DEPTH`].
    pub fn truncated(&self) -> u64 {
        self.truncated.load(Ordering::Relaxed)
    }

    /// Whether the owning thread has exited.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }

    /// Seqlock-validated snapshot of the stack into `out`, returning the
    /// captured depth (clamped to [`MAX_DEPTH`]), or `None` if the owner
    /// kept racing us for all retries — the caller counts that as a
    /// dropped sample.
    pub fn sample(&self, out: &mut [&'static str; MAX_DEPTH]) -> Option<usize> {
        let mut raw = [(std::ptr::null::<u8>(), 0usize); MAX_DEPTH];
        for _ in 0..16 {
            let s0 = self.seq.load(Ordering::Acquire);
            if s0 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            // SAFETY: volatile copies of plain integers; validated below
            // before any `&str` is reconstructed.
            let d = unsafe { std::ptr::read_volatile(self.depth.get()) }.min(MAX_DEPTH);
            for (slot, frame) in raw.iter_mut().zip(&self.frames).take(d) {
                *slot = unsafe { std::ptr::read_volatile(frame.get()) };
            }
            fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) != s0 {
                std::hint::spin_loop();
                continue;
            }
            for (o, &(ptr, len)) in out.iter_mut().zip(&raw).take(d) {
                // SAFETY: the stamp re-check proved this (ptr, len) pair
                // was written atomically w.r.t. us, and it came from a
                // `&'static str` in `push`.
                *o = unsafe { std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr, len)) };
            }
            return Some(d);
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Registry + enablement
// ---------------------------------------------------------------------------

/// Every thread's stack, for the samplers. Sessions are *not*
/// exclusive: the `GMG_PROF` env hook may wrap a binary that starts its
/// own inner session, and parallel tests each run their own — every
/// session samples this registry independently.
static REGISTRY: Mutex<Vec<Arc<PhaseStack>>> = Mutex::new(Vec::new());

/// Whether any sampling session is active (the probe's listener word).
#[inline]
pub fn profiling() -> bool {
    probe::listening().has(Class::Phases)
}

pub(crate) fn session_begin() {
    probe::register(Class::Phases, per_thread);
    probe::listen(Class::Phases);
}

pub(crate) fn session_end() {
    probe::unlisten(Class::Phases);
}

/// Snapshot of currently registered, live stacks; prunes dead ones.
pub(crate) fn registered_stacks() -> Vec<Arc<PhaseStack>> {
    let mut reg = REGISTRY.lock().unwrap();
    reg.retain(|s| !s.is_dead());
    reg.clone()
}

/// RAII enable for tests: counts as an active session *without* spawning
/// a sampler thread, so no-allocation tests can exercise the push/pop
/// hot path with no concurrent sampler allocating in the background.
pub struct ManualEnable(());

impl ManualEnable {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        session_begin();
        ManualEnable(())
    }
}

impl Drop for ManualEnable {
    fn drop(&mut self) {
        session_end();
    }
}

/// One thread's stack as the probe sink in that thread's context.
struct PhaseSink {
    stack: Arc<PhaseStack>,
}

impl Drop for PhaseSink {
    fn drop(&mut self) {
        self.stack.dead.store(true, Ordering::Relaxed);
    }
}

impl Sink for PhaseSink {
    fn enter(&self, name: &'static str) {
        self.stack.push(name);
    }

    fn exit(&self, _name: &'static str) {
        self.stack.pop();
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The probe's factory for this sink: create and register the calling
/// thread's stack.
fn per_thread() -> Box<dyn Sink> {
    let stack = Arc::new(PhaseStack::new());
    REGISTRY
        .lock()
        .expect("stack registry poisoned")
        .push(Arc::clone(&stack));
    Box::new(PhaseSink { stack })
}

// ---------------------------------------------------------------------------
// Phase guards
// ---------------------------------------------------------------------------

/// RAII scope for one sub-kernel phase: pops on drop. Inert (one relaxed
/// load) when no session is active at entry.
pub struct PhaseGuard {
    name: &'static str,
    /// True iff we actually pushed — a session may stop mid-scope, and
    /// the pop must mirror the push, not the current enable state.
    active: bool,
    /// The armed slowdown's percentage if it names this phase, else 0.
    slow_pct: f64,
    /// Entry timestamp, taken only for a phase the slowdown names.
    t0_ns: u64,
}

/// Enter a named phase on the current thread. The returned guard pops the
/// phase when dropped. Phase names must be `'static` (no formatting on
/// the hot path); key parameterized kernels through a static name table
/// like [`brick_phases`].
#[inline]
pub fn phase(name: &'static str) -> PhaseGuard {
    if !profiling() {
        return PhaseGuard {
            name,
            active: false,
            slow_pct: 0.0,
            t0_ns: 0,
        };
    }
    // Resolved before the push, so the hook's own cost lands in the
    // enclosing phase: arming a slowdown must stretch the phase it names
    // and no other, and ~100 ns of lock and compare inside a 20 ns index
    // phase is as much growth as a +400 % injection.
    let slow_pct = if slowdown_armed() {
        slowdown_for(name)
    } else {
        0.0
    };
    let pushed = probe::with_sink(Class::Phases, |s| s.enter(name)).is_some();
    let t0_ns = if slow_pct > 0.0 {
        gmg_trace::now_ns()
    } else {
        0
    };
    PhaseGuard {
        name,
        active: pushed,
        slow_pct,
        t0_ns,
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        if self.slow_pct > 0.0 {
            stretch(self.t0_ns, self.slow_pct);
        }
        probe::with_sink(Class::Phases, |s| s.exit(self.name));
    }
}

// ---------------------------------------------------------------------------
// Slowdown injection (attribution self-test)
// ---------------------------------------------------------------------------

static SLOWDOWN_ARMED: AtomicBool = AtomicBool::new(false);
static SLOWDOWN: Mutex<Option<(String, f64)>> = Mutex::new(None);

#[inline]
fn slowdown_armed() -> bool {
    SLOWDOWN_ARMED.load(Ordering::Relaxed)
}

/// Arm (or disarm, with `None`) a phase slowdown: every phase whose name
/// contains `pattern` busy-waits an extra `pct`% of its own elapsed time
/// on exit. This is the `--inject-slowdown` attribution self-test hook —
/// a profiler that cannot see a deliberately slowed phase dominate the
/// report cannot be trusted on real regressions.
pub fn set_slowdown(spec: Option<(&str, f64)>) {
    match spec {
        Some((pattern, pct)) => {
            *SLOWDOWN.lock().unwrap() = Some((pattern.to_string(), pct));
            SLOWDOWN_ARMED.store(true, Ordering::Relaxed);
        }
        None => {
            SLOWDOWN_ARMED.store(false, Ordering::Relaxed);
            *SLOWDOWN.lock().unwrap() = None;
        }
    }
}

/// The armed slowdown's percentage if its pattern matches `name`, else 0.
fn slowdown_for(name: &str) -> f64 {
    match SLOWDOWN.lock().unwrap().as_ref() {
        Some((pat, pct)) if name.contains(pat.as_str()) => *pct,
        _ => 0.0,
    }
}

/// Busy-wait `pct`% of the time elapsed since `t0_ns`.
fn stretch(t0_ns: u64, pct: f64) {
    let elapsed = gmg_trace::now_ns().saturating_sub(t0_ns);
    let extra = (elapsed as f64 * pct / 100.0) as u64;
    let until = gmg_trace::now_ns() + extra;
    while gmg_trace::now_ns() < until {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------------------
// Static phase names for brick-parameterized kernels
// ---------------------------------------------------------------------------

/// Phase names for the bricked executors, keyed by brick shape (`bN` =
/// N³-cell bricks). All `'static` so kernels never format names on the
/// hot path.
pub struct BrickPhases {
    /// Root phase of the bricked 7-point applyOp per-brick closure.
    pub apply_root: &'static str,
    /// Contiguous unit-stride interior span work.
    pub apply_interior: &'static str,
    /// Face/edge cells routed through the brick-adjacency indirection.
    pub apply_boundary: &'static str,
    /// Neighborhood construction + index arithmetic per brick.
    pub apply_index: &'static str,
    /// Root phase of the one-pass multi-smooth per-brick closure.
    pub fused_root: &'static str,
    /// `A·x` + smooth(+residual) update of one brick, after index setup.
    pub fused_brick: &'static str,
}

macro_rules! brick_phase_set {
    ($tag:literal) => {
        BrickPhases {
            apply_root: concat!("applyop_bricked@", $tag),
            apply_interior: concat!("interior@", $tag),
            apply_boundary: concat!("brick_boundary@", $tag),
            apply_index: concat!("index@", $tag),
            fused_root: concat!("fused_multismooth@", $tag),
            fused_brick: concat!("brick_smooth@", $tag),
        }
    };
}

static B2: BrickPhases = brick_phase_set!("b2");
static B4: BrickPhases = brick_phase_set!("b4");
static B8: BrickPhases = brick_phase_set!("b8");
static B16: BrickPhases = brick_phase_set!("b16");
static B32: BrickPhases = brick_phase_set!("b32");
static BOTHER: BrickPhases = brick_phase_set!("b?");

/// Static phase-name table for a given brick dimension. Covers the
/// power-of-two dims the layouts actually use; anything else shares the
/// `b?` bucket rather than allocating a name.
pub fn brick_phases(brick_dim: i64) -> &'static BrickPhases {
    match brick_dim {
        2 => &B2,
        4 => &B4,
        8 => &B8,
        16 => &B16,
        32 => &B32,
        _ => &BOTHER,
    }
}

/// Root phase of the plain-array 7-point applyOp slab closure.
pub const APPLYOP_ARRAY: &str = "applyop_array";
/// The array kernel is one unit-stride stream; its whole body is interior.
pub const ARRAY_INTERIOR: &str = "interior@array";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_sample_roundtrip() {
        let _en = ManualEnable::new();
        let g1 = phase("t_outer");
        let g2 = phase("t_inner");
        let mut buf = [""; MAX_DEPTH];
        let mut seen = None;
        // Sample our own thread's stack via the registry.
        for s in registered_stacks() {
            if let Some(d) = s.sample(&mut buf) {
                if d >= 2 && buf[d - 2] == "t_outer" && buf[d - 1] == "t_inner" {
                    seen = Some(d);
                }
            }
        }
        assert!(seen.is_some(), "own stack not observed via registry");
        drop(g2);
        drop(g1);
    }

    #[test]
    fn disabled_phase_is_inert() {
        // Sessions are process-global and other tests may be running, so
        // only assert the invariant: a guard created while no session is
        // active must not have pushed.
        let g = phase("t_disabled");
        if !g.active {
            assert_eq!(g.t0_ns, 0);
        }
        drop(g);
    }

    #[test]
    fn overflow_is_counted_and_balanced() {
        let _en = ManualEnable::new();
        let guards: Vec<_> = (0..MAX_DEPTH + 4).map(|_| phase("t_deep")).collect();
        let mut buf = [""; MAX_DEPTH];
        let mut max_d = 0;
        for s in registered_stacks() {
            if let Some(d) = s.sample(&mut buf) {
                if d > 0 && buf[0] == "t_deep" {
                    max_d = max_d.max(d);
                    assert!(s.truncated() >= 4);
                }
            }
        }
        assert_eq!(max_d, MAX_DEPTH);
        drop(guards);
        // After dropping every guard the stack must be fully popped.
        for s in registered_stacks() {
            if let Some(d) = s.sample(&mut buf) {
                if d > 0 {
                    assert_ne!(buf[0], "t_deep", "unbalanced pop left frames behind");
                }
            }
        }
    }

    #[test]
    fn slowdown_stretches_matching_phase() {
        let _en = ManualEnable::new();
        set_slowdown(Some(("t_slowed", 400.0)));
        let t0 = std::time::Instant::now();
        {
            let _g = phase("t_slowed_leaf");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let slowed = t0.elapsed();
        set_slowdown(None);
        let t1 = std::time::Instant::now();
        {
            let _g = phase("t_slowed_leaf");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let clean = t1.elapsed();
        assert!(
            slowed >= clean * 2,
            "400% slowdown did not stretch the phase: {slowed:?} vs {clean:?}"
        );
    }

    #[test]
    fn brick_phase_table_is_static_and_keyed() {
        assert_eq!(brick_phases(8).apply_root, "applyop_bricked@b8");
        assert_eq!(brick_phases(8).apply_interior, "interior@b8");
        assert_eq!(brick_phases(4).apply_boundary, "brick_boundary@b4");
        assert_eq!(brick_phases(7).apply_index, "index@b?");
        // Same dim must return the same static (pointer-equal) names.
        assert!(std::ptr::eq(brick_phases(8), brick_phases(8)));
    }
}
