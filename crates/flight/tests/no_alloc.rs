//! The recorder hot path must never allocate: a counting global
//! allocator wraps the system one, and after warm-up a burst of records
//! of every kind the ring keeps, through the probe, must leave the
//! allocation count untouched.
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

#[test]
fn record_hot_path_does_not_allocate() {
    use gmg_trace::probe::{self, Kind};
    let world = gmg_flight::FlightWorld::with_capacity(1, 1 << 10);
    let _ctx = probe::install(Some(0), [world.sink(0)]);
    // Warm up: trace epoch, thread-locals, and one pass through every
    // kind of record the ring keeps so lazy one-time setup is done
    // before we start counting.
    let warm = || {
        let op = probe::op(2, "exchange");
        drop(probe::span(Kind::Send, "send").msg(1, 7, 3).value(4096));
        probe::event(Kind::Arrive, "arrive")
            .msg(1, 7, 3)
            .value(4096);
        let mut wait = probe::span(Kind::RecvWait, "recv").peer(1).tag(7);
        wait.delivered(3, 4096);
        drop(wait);
        drop(probe::span(Kind::RecvWait, "recv").peer(1).tag(7));
        probe::event(Kind::Arq, "arq:retransmit")
            .msg(1, 7, 3)
            .dur_ns(100);
        probe::event(Kind::Control, "fault:stall").dur_ns(50);
        op.finish();
        gmg_flight::record_compute(1, "smooth", gmg_trace::now_ns(), 10, 512);
    };
    warm();

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..5_000 {
        warm();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "recorder hot path allocated {} times over 40k events",
        after - before
    );

    // The ring wrapped several times while staying silent.
    assert!(world.ring(0).written() > world.ring(0).capacity() as u64);
}
