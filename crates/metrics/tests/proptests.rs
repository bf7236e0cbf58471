//! Hostile input for the Prometheus exposition parser.
//!
//! `parse_prometheus` reads bodies scraped over a socket, so any damage
//! to a rendered exposition — a truncated body, a flipped byte, lines
//! repeated or out of order — may make it an error but never a panic.

use gmg_metrics::prom::{parse_prometheus, render_prometheus};
use gmg_metrics::{Histogram, Key, Snapshot, SnapshotEntry, Value};
use gmg_proptest::prelude::*;
use std::panic::catch_unwind;

/// What a single-byte replacement writes: the exposition's syntax and
/// the digits of its values.
const REPLACEMENTS: &[u8] = b"{}\"=,#\\\n0123456789";

/// A rendered exposition of three series: a histogram whose cumulative
/// count ends `below_max` under `u64::MAX` (`low` samples in its first
/// bucket, the rest in a second), a counter whose name carries a `}`
/// (render does not validate names), and a gauge.
fn exposition(low: u64, below_max: u64, gauge: u64) -> String {
    let count = u64::MAX - below_max;
    let (lo, hi) = (1, 20);
    let h = Histogram::from_parts(
        &[(lo, low), (hi, count - low)],
        count,
        u64::MAX,
        lo as u64,
        gmg_metrics::hist::bucket_high(hi),
    );
    let key = Key::new(0, Some(1), "send");
    let entries = vec![
        SnapshotEntry {
            name: "lat_ns".to_string(),
            key,
            value: Value::Histogram(h),
        },
        SnapshotEntry {
            name: "odd}name_total".to_string(),
            key,
            value: Value::Counter(low),
        },
        SnapshotEntry {
            name: "residual".to_string(),
            key,
            value: Value::Gauge(gauge as f64),
        },
    ];
    render_prometheus(&Snapshot { entries })
}

/// Every proper prefix of `text`, every single-byte replacement from
/// [`REPLACEMENTS`], every line copied to every position, and every pair
/// of lines swapped.
fn damaged(text: &str) -> Vec<String> {
    let mut out: Vec<String> = (0..text.len()).map(|n| text[..n].to_string()).collect();
    for i in 0..text.len() {
        for &b in REPLACEMENTS {
            let mut bytes = text.as_bytes().to_vec();
            bytes[i] = b;
            out.push(String::from_utf8(bytes).expect("an ASCII text stays ASCII"));
        }
    }
    let lines: Vec<&str> = text.lines().collect();
    for i in 0..lines.len() {
        for j in 0..=lines.len() {
            let mut copied = lines.clone();
            copied.insert(j, lines[i]);
            out.push(copied.join("\n"));
        }
        for j in i + 1..lines.len() {
            let mut swapped = lines.clone();
            swapped.swap(i, j);
            out.push(swapped.join("\n"));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn damaged_expositions_parse_or_fail_without_panicking(
        low in 1u64..1000,
        below_max in 0u64..1 << 40,
        gauge in 0u64..1 << 20,
    ) {
        let text = exposition(low, below_max, gauge);
        prop_assert!(text.is_ascii());
        prop_assert!(parse_prometheus(&text).is_ok(), "the undamaged exposition parses");
        for input in damaged(&text) {
            let parsed = catch_unwind(|| parse_prometheus(&input).is_ok());
            prop_assert!(parsed.is_ok(), "parse_prometheus panicked on {input:?}");
        }
    }
}
