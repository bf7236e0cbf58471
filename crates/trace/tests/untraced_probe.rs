//! With no capture open anywhere in the process, a rank thread's probes do
//! only what the flight ring keeps: no `pack` / `unpack` / `self-exchange`
//! spans, no end-clock read for a send, no counter model. Opening a
//! capture turns all three on.
//!
//! The "a capture is open" count is process-global, so this file holds
//! exactly one test: no sibling test can open a capture concurrently and
//! flip the gate under it.

use gmg_trace::probe::{self, Kind};
use gmg_trace::{Counters, FlightRing, NO_TAG};
use std::sync::Arc;
use std::time::Duration;

fn model(_op: &str, points: u64) -> Counters {
    assert!(
        gmg_trace::enabled(),
        "the counter model ran with no capture open"
    );
    Counters {
        flops: 8 * points,
        stencil_points: points,
        ..Default::default()
    }
}

/// One halo exchange's worth of probes: an op holding a send (slow
/// enough that a timed one reads ≥ 1 ms) and the three comm-side spans.
fn exchange() {
    let op = probe::op(0, "exchange").points(64, model);
    let send = probe::span(Kind::Send, "send").msg(1, 7, 3).value(512);
    std::thread::sleep(Duration::from_millis(1));
    drop(send);
    for name in ["pack", "unpack", "self-exchange"] {
        drop(probe::span(Kind::Comm, name).value(512));
    }
    op.finish();
}

#[test]
fn only_a_capture_records_comm_spans_times_sends_and_prices_ops() {
    let ring = Arc::new(FlightRing::new(0, 64));
    let _ctx = probe::install(Some(0), Some(ring.clone()));

    assert!(!gmg_trace::enabled());
    exchange();
    let kept = ring.snapshot();
    let kinds: Vec<_> = kept.iter().map(|e| (e.kind, e.op)).collect();
    assert_eq!(kinds, [(Kind::Send, "send"), (Kind::Compute, "exchange")]);
    assert_eq!(kept[0].dur_ns, 0, "an untraced send read its end clock");
    assert_eq!(kept[0].bytes, 512);
    assert_eq!(kept[1].tag, NO_TAG, "an untraced op was priced");
    assert_eq!(kept[1].bytes, 64);

    let ((), trace) = gmg_trace::capture(exchange);
    let event = |name: &str| trace.events.iter().find(|e| e.op.name() == name);
    for name in ["pack", "unpack", "self-exchange"] {
        assert!(event(name).is_some(), "no {name} span under a capture");
    }
    assert!(event("send").unwrap().dur_ns >= 1_000_000);
    assert_eq!(event("exchange").unwrap().counters.flops, 8 * 64);
    assert_eq!((trace.events.len(), ring.written()), (5, 2 + 5));
}
