//! The live-telemetry campaigns end to end. A test binary of its own: the
//! alert engine reads the process-global metrics registry (one world per
//! process outside tests), so a sibling test's fault-injected world would
//! raise retransmit alerts here, and the straggler / silent-rank detectors
//! are wall-clock thresholds.

use gmg_bench::live::{live_child, run_process_campaign_with, run_with_seed};

/// The campaigns share the process's metrics registry and race wall-clock
/// detectors: one at a time.
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
    L.lock().unwrap_or_else(|e| e.into_inner())
}

/// Thread-mode campaign: local collector shim, bit-identical
/// histories with telemetry attached, complete live view, zero
/// alerts, parseable endpoint.
#[test]
fn thread_campaign_is_bit_identical_and_alert_free() {
    let _serial = one_at_a_time();
    let v = run_with_seed(7);
    assert_eq!(v["identical"], true, "{v}");
    assert_eq!(v["progress_complete"], true, "{v}");
    assert_eq!(v["endpoint_ok"], true, "{v}");
    assert_eq!(v["ok"], true, "{v}");
}

#[cfg(unix)]
const CHILD_ARGS: &[&str] = &["live_child_entry", "--test-threads=1", "--nocapture"];

/// The hook a spawned copy of this test binary lands in (the process
/// controller passes a libtest filter selecting exactly this test).
/// In a normal run it is an instant no-op.
#[cfg(unix)]
#[test]
fn live_child_entry() {
    gmg_comm::process::run_child_if_spawned(|entry, mut ctx, args| match entry {
        "live" => live_child(&mut ctx, args),
        other => panic!("unknown live process entry {other:?}"),
    });
}

/// The milestone's acceptance demo end to end: clean negative
/// control, planted straggler named by the alert engine, SIGKILLed
/// rank caught by the silent-rank detector with the endpoint
/// parseable on both sides of the rejoin epoch — all bit-identical
/// to the thread baseline.
#[cfg(unix)]
#[test]
fn process_campaign_scrapes_and_alerts_both_polarities() {
    let _serial = one_at_a_time();
    let v = run_process_campaign_with(3, Some(2), Some(1), CHILD_ARGS);
    assert_eq!(v["ok"], true, "{v}");
    assert_eq!(v["clean"]["alerts_ok"], true, "{v}");
    assert_eq!(v["clean"]["mid_run_fleet_scrape"], true, "{v}");
    assert_eq!(v["straggler"]["alerts_ok"], true, "{v}");
    assert_eq!(v["kill"]["epoch_spans_ok"], true, "{v}");
    assert_eq!(v["kill"]["exact_match"], true, "{v}");
}
