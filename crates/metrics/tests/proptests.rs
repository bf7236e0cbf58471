//! Hostile input for the two snapshot codecs.
//!
//! `parse_prometheus` and `Snapshot::from_json` read back what
//! `render_prometheus` and `Snapshot::to_json` write to files (a
//! `GMG_METRICS` snapshot, an exposition), so any damage to a rendered
//! document — a truncated body, a flipped byte or value, lines or bucket
//! pairs repeated or out of order — may make it an error but never a
//! panic or an allocation sized by the input. What they decode may then
//! be merged (`Snapshot::histogram_total`), so merging any two decoded
//! histograms must not overflow either.

use gmg_metrics::hist::bucket_index;
use gmg_metrics::prom::{parse_prometheus, render_prometheus};
use gmg_metrics::{Histogram, Key, Snapshot, SnapshotEntry, Value};
use gmg_proptest::prelude::*;
use gmg_trace::Json;
use std::panic::catch_unwind;

/// What a single-byte replacement writes: the exposition's syntax and
/// the digits of its values.
const REPLACEMENTS: &[u8] = b"{}\"=,#\\\n0123456789";

/// Three series: a histogram whose cumulative count ends `below_max`
/// under `u64::MAX` (`low` samples in its first bucket, the rest in a
/// second), a counter whose name carries a `}` (render does not validate
/// names), and a gauge.
fn snapshot(low: u64, below_max: u64, gauge: u64) -> Snapshot {
    let count = u64::MAX - below_max;
    let (lo, hi) = (1, 20);
    let h = Histogram::from_parts(
        &[(lo, low), (hi, count - low)],
        count,
        u64::MAX,
        lo as u64,
        gmg_metrics::hist::bucket_high(hi),
    )
    .expect("ascending in-range buckets");
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
    Snapshot { entries }
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
        let text = render_prometheus(&snapshot(low, below_max, gauge));
        prop_assert!(text.is_ascii());
        prop_assert!(parse_prometheus(&text).is_ok(), "the undamaged exposition parses");
        for input in damaged(&text) {
            let parsed = catch_unwind(|| parse_prometheus(&input).is_ok());
            prop_assert!(parsed.is_ok(), "parse_prometheus panicked on {input:?}");
        }
    }
}

/// What a single-value replacement writes into a snapshot document:
/// integers around the bucket range's end and `u64::MAX`, a fraction, a
/// negative, a huge float and non-numbers.
fn hostile_values() -> Vec<Json> {
    let top = bucket_index(u64::MAX) as f64;
    let mut out: Vec<Json> = [
        0.0,
        1.0,
        top,
        top + 1.0,
        (1u64 << 40) as f64,
        (1u64 << 63) as f64,
        18_000_000_000_000_000_000.0,
        u64::MAX as f64,
        -1.0,
        0.5,
        1e300,
    ]
    .into_iter()
    .map(Json::Num)
    .collect();
    out.extend([Json::Null, Json::Str("3".to_string())]);
    out
}

/// Every document that differs from `doc` in one node, each variant
/// `damage(key, node)` gives for it (`key` is the field the node sits
/// under, empty in an array).
fn damaged_at(doc: &Json, key: &str, damage: &dyn Fn(&str, &Json) -> Vec<Json>) -> Vec<Json> {
    let mut out = damage(key, doc);
    match doc {
        Json::Arr(items) => out.extend((0..items.len()).flat_map(|k| {
            damaged_at(&items[k], "", damage).into_iter().map(move |v| {
                let mut items = items.clone();
                items[k] = v;
                Json::Arr(items)
            })
        })),
        Json::Obj(fields) => out.extend((0..fields.len()).flat_map(|k| {
            damaged_at(&fields[k].1, &fields[k].0, damage)
                .into_iter()
                .map(move |v| {
                    let mut fields = fields.clone();
                    fields[k].1 = v;
                    Json::Obj(fields)
                })
        })),
        _ => {}
    }
    out
}

/// Every way to damage `doc` once: cut any array or object to a proper
/// prefix (a truncated frame that still parses), replace one number by a
/// [`hostile_values`] entry, or copy one histogram bucket pair to another
/// position of its list.
fn damaged_doc(doc: &Json) -> Vec<Json> {
    let hostile = hostile_values();
    damaged_at(doc, "", &|key, v| match v {
        Json::Num(_) => hostile.clone(),
        Json::Arr(items) => {
            let mut out: Vec<Json> = (0..items.len())
                .map(|n| Json::Arr(items[..n].to_vec()))
                .collect();
            if key == "buckets" {
                for i in 0..items.len() {
                    for j in 0..=items.len() {
                        let mut copied = items.clone();
                        copied.insert(j, items[i].clone());
                        out.push(Json::Arr(copied));
                    }
                }
            }
            out
        }
        Json::Obj(fields) => (0..fields.len())
            .map(|n| Json::Obj(fields[..n].to_vec()))
            .collect(),
        _ => Vec::new(),
    })
}

/// The nonzero `(index, count)` pairs a histogram row lists.
fn listed_pairs(row: &Json) -> Vec<(usize, u64)> {
    let pairs = row["histogram"]["buckets"].as_arr().unwrap();
    pairs
        .iter()
        .map(|p| match p.as_arr() {
            Some([i, c]) => (i.as_u64().unwrap() as usize, c.as_u64().unwrap()),
            _ => unreachable!("a decoded document lists pairs"),
        })
        .filter(|&(_, c)| c > 0)
        .collect()
}

/// Decode `doc`; a snapshot it yields must hold exactly the bucket pairs
/// its document lists, and summarize (quantiles) without panicking.
fn decodes_soundly(doc: &Json) -> bool {
    let Ok(snap) = Snapshot::from_json(doc) else {
        return true;
    };
    let _ = snap.render_table("");
    let rows = doc["entries"].as_arr().unwrap();
    rows.iter()
        .zip(&snap.entries)
        .all(|(row, e)| match &e.value {
            Value::Histogram(h) => h.nonzero_buckets().collect::<Vec<_>>() == listed_pairs(row),
            _ => true,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `below_max` starts at 2048: the codec's f64 numbers may round the
    /// top bucket's count up by 1024, past a total of `u64::MAX`.
    #[test]
    fn damaged_snapshot_json_decodes_or_fails_without_panicking(
        low in 1u64..1000,
        below_max in 2048u64..1 << 40,
        gauge in 0u64..1 << 20,
    ) {
        let doc = snapshot(low, below_max, gauge).to_json();
        prop_assert!(Snapshot::from_json(&doc).is_ok(), "the undamaged document decodes");
        for input in damaged_doc(&doc) {
            let sound = catch_unwind(|| decodes_soundly(&input));
            prop_assert!(sound.is_ok(), "Snapshot::from_json panicked on {input}");
            prop_assert!(sound.unwrap(), "decoded bucket pairs differ from {input}");
        }
    }
}

/// A histogram [`Histogram::from_parts`] accepts, drawn so that two of
/// them often overflow when merged: ascending bucket indices (twelve
/// candidates, packed at the bottom or spread over the whole range) whose
/// counts each take a draw from what the earlier buckets left of
/// `u64::MAX`, a `count` mostly drawn from the whole range, any `sum`,
/// and `min ≤ max`.
fn decoded_histogram() -> impl Strategy<Value = Histogram> {
    let stride = [1, bucket_index(u64::MAX) / 11];
    (
        prop::collection::btree_set(0..12usize, 0..5),
        (prop::collection::vec(any::<u64>(), 5), any::<bool>()),
        (any::<u64>(), prop::sample::select(vec![0u32, 0, 0, 8, 63])),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            move |(indices, (draws, spread), (count, shift), (sum, a, b))| {
                let mut left = u64::MAX;
                let buckets: Vec<(usize, u64)> = indices
                    .into_iter()
                    .zip(draws)
                    .map(|(i, d)| {
                        let c = left.checked_add(1).map_or(d, |m| d % m);
                        left -= c;
                        (i * stride[spread as usize], c)
                    })
                    .collect();
                Histogram::from_parts(&buckets, count >> shift, sum, a.min(b), a.max(b))
                    .expect("ascending in-range buckets within u64")
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merging two decoded histograms never panics (the harness catches
    /// one), its count is the saturating sum, every quantile lies in the
    /// merged `[min, max]`, and its exposition's cumulative bucket counts
    /// saturate too.
    #[test]
    fn merging_decoded_histograms_saturates(a in decoded_histogram(), b in decoded_histogram()) {
        let mut m = a.clone();
        m.merge(&b);
        prop_assert_eq!(m.count(), a.count().saturating_add(b.count()));
        if let (Some(min), Some(max)) = (m.min(), m.max()) {
            for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                let v = m.quantile(q).unwrap();
                prop_assert!(min <= v && v <= max, "q={} gives {} outside [{}, {}]", q, v, min, max);
            }
        }
        let entries = vec![SnapshotEntry {
            name: "lat_ns".to_string(),
            key: Key::new(0, None, "send"),
            value: Value::Histogram(m),
        }];
        let text = render_prometheus(&Snapshot { entries });
        prop_assert!(text.contains("lat_ns_bucket{"), "{}", text);
    }
}
