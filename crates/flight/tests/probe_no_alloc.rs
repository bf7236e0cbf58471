//! The whole seam must not allocate once warm: with a capture scope, the
//! metrics registry and a flight ring all listening, a burst of solver
//! ops and comm events through the probe leaves the allocation count
//! untouched after first use (the span log's per-thread buffer is one
//! up-front block, the registry's handles are cached in the thread's
//! context and its histograms are preallocated, the ring is fixed).
//!
//! This file holds exactly one test so no sibling test can allocate
//! concurrently and fog the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(p, l, new)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

fn model(_op: &str, points: u64) -> gmg_trace::Counters {
    gmg_trace::Counters {
        stencil_points: points,
        ..Default::default()
    }
}

#[test]
fn an_op_with_every_sink_on_does_not_allocate_after_first_use() {
    use gmg_trace::probe::{self, Kind};
    let world = gmg_flight::FlightWorld::with_capacity(1, 1 << 10);
    gmg_metrics::enable();
    let (bursts, trace) = gmg_trace::capture(|| {
        let _ctx = probe::install(Some(0), [world.sink(0)]);
        let burst = || {
            for level in 0..3 {
                let op = probe::op(level, "smooth").points(512, model);
                drop(probe::span(Kind::Send, "send").msg(0, 7, 3).value(64));
                probe::event(Kind::Arq, "arq:retransmit")
                    .msg(0, 7, 3)
                    .dur_ns(100);
                op.finish();
            }
        };
        // First use: buffer, handle cache and series are created here.
        burst();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..100 {
            burst();
        }
        (ALLOCS.load(Ordering::Relaxed) - before, 101)
    });
    gmg_metrics::disable();
    assert_eq!(bursts.0, 0, "warm probe allocated {} times", bursts.0);
    // Every sink really was listening.
    assert_eq!(trace.events.len(), 3 * 3 * bursts.1);
    assert_eq!(world.ring(0).written(), (3 * 3 * bursts.1) as u64);
    let snap = gmg_metrics::Registry::global().snapshot();
    assert_eq!(
        snap.histogram_total("solver_op_ns").count(),
        3 * bursts.1 as u64
    );
    assert_eq!(
        snap.counter_total("arq_retransmits_total"),
        3 * bursts.1 as u64
    );
}
