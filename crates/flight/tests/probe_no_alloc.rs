//! The whole seam must not allocate once warm: under a capture, with a
//! flight ring installed, a burst of solver ops and comm events through
//! the probe leaves the allocation count untouched after first use (the
//! ring is fixed, and a capture keeps no buffer of its own).
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
fn a_traced_op_does_not_allocate_after_first_use() {
    use gmg_trace::probe::{self, Kind};
    let world = gmg_flight::FlightWorld::with_capacity(1, 1 << 10);
    let (bursts, trace) = gmg_trace::capture(|| {
        let _ctx = world.install(0);
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
        // First use: thread-locals and the clock's epoch settle here.
        burst();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..100 {
            burst();
        }
        (ALLOCS.load(Ordering::Relaxed) - before, 101)
    });
    assert_eq!(bursts.0, 0, "warm probe allocated {} times", bursts.0);
    // The capture read back every event the ring took.
    assert_eq!(trace.events.len(), 3 * 3 * bursts.1);
    assert_eq!(world.ring(0).written(), (3 * 3 * bursts.1) as u64);
}
