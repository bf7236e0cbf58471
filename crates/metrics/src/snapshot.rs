//! Point-in-time snapshots of a [`Registry`](crate::Registry) and their
//! JSON writer.
//!
//! A snapshot is a sorted list of `(name, key, value)` entries. Sorting
//! (inherited from the registry's BTreeMap) plus `gmg_trace::Json`'s
//! order-preserving writer make serializations byte-stable, which the
//! determinism tests rely on. `delta_since` subtracts an earlier snapshot
//! from a later one so chaos/bench runs can report just the metrics a
//! phase produced, even though the global registry is process-wide.

use crate::hist::Histogram;
use crate::registry::Key;
use gmg_trace::Json;
use std::fmt::Write as _;

/// One metric series' value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

/// One `(name, key, value)` row of a snapshot.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    pub name: String,
    pub key: Key,
    pub value: Value,
}

/// A point-in-time copy of every series in a registry, sorted by
/// `(name, key)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Look up a series by name and key.
    pub fn get(&self, name: &str, key: &Key) -> Option<&Value> {
        self.entries
            .iter()
            .find(|e| e.name == name && &e.key == key)
            .map(|e| &e.value)
    }

    /// Sum of all counters with this metric name, across keys.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .filter_map(|e| match &e.value {
                Value::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Merge of all histograms with this metric name, across keys.
    pub fn histogram_total(&self, name: &str) -> Histogram {
        let mut total = Histogram::new();
        for e in self.entries.iter().filter(|e| e.name == name) {
            if let Value::Histogram(h) = &e.value {
                total.merge(h);
            }
        }
        total
    }

    /// Subtract `earlier` from `self`: counters and histograms subtract
    /// (series missing from `earlier` pass through whole), gauges keep
    /// their later value. Rows whose delta is zero/empty are dropped.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .filter_map(|e| {
                let value = match (&e.value, earlier.get(&e.name, &e.key)) {
                    (Value::Counter(now), Some(Value::Counter(then))) => {
                        Value::Counter(now.saturating_sub(*then))
                    }
                    (Value::Histogram(now), Some(Value::Histogram(then))) => {
                        Value::Histogram(now.delta_since(then))
                    }
                    (v, _) => v.clone(),
                };
                match &value {
                    Value::Counter(0) => None,
                    Value::Histogram(h) if h.count() == 0 => None,
                    _ => Some(SnapshotEntry {
                        name: e.name.clone(),
                        key: e.key,
                        value,
                    }),
                }
            })
            .collect();
        Snapshot { entries }
    }

    /// Serialize to the snapshot JSON document (schema 1).
    pub fn to_json(&self) -> Json {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("rank".to_string(), Json::Num(e.key.rank as f64)),
                    (
                        "level".to_string(),
                        match e.key.level {
                            Some(l) => Json::Num(l as f64),
                            None => Json::Null,
                        },
                    ),
                    ("op".to_string(), Json::Str(e.key.op.to_string())),
                ];
                match &e.value {
                    Value::Counter(c) => {
                        fields.push(("counter".to_string(), Json::Num(*c as f64)));
                    }
                    Value::Gauge(g) => {
                        fields.push(("gauge".to_string(), Json::Num(*g)));
                    }
                    Value::Histogram(h) => {
                        let buckets = h
                            .nonzero_buckets()
                            .map(|(i, c)| Json::Arr(vec![Json::Num(i as f64), Json::Num(c as f64)]))
                            .collect();
                        fields.push((
                            "histogram".to_string(),
                            Json::Obj(vec![
                                ("count".to_string(), Json::Num(h.count() as f64)),
                                ("sum".to_string(), Json::Num(h.sum() as f64)),
                                ("min".to_string(), Json::Num(h.min().unwrap_or(0) as f64)),
                                ("max".to_string(), Json::Num(h.max().unwrap_or(0) as f64)),
                                ("buckets".to_string(), Json::Arr(buckets)),
                            ]),
                        ));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("schema".to_string(), Json::Num(1.0)),
            ("entries".to_string(), Json::Arr(entries)),
        ])
    }

    /// Render entries whose metric name starts with `prefix` as a
    /// markdown table (histograms show count/mean/p50/p99/max).
    pub fn render_table(&self, prefix: &str) -> String {
        let mut out = String::new();
        let rows: Vec<_> = self
            .entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .collect();
        if rows.is_empty() {
            out.push_str("(no matching metrics)\n");
            return out;
        }
        out.push_str("| metric | rank | level | op | value |\n");
        out.push_str("|---|---:|---:|---|---|\n");
        for e in rows {
            let level = match e.key.level {
                Some(l) => l.to_string(),
                None => "-".to_string(),
            };
            let value = match &e.value {
                Value::Counter(c) => c.to_string(),
                Value::Gauge(g) => format!("{g:.6}"),
                Value::Histogram(h) => format!(
                    "n={} mean={:.0} p50={} p99={} max={}",
                    h.count(),
                    h.mean().unwrap_or(0.0),
                    h.quantile(0.50).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ),
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                e.name, e.key.rank, level, e.key.op, value
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("arq_retransmits_total", Key::new(0, None, "arq"))
            .add(3);
        r.gauge("residual", Key::new(0, Some(0), "solve")).set(1e-9);
        let h = r.histogram("arq_backoff_ns", Key::new(1, None, "arq"));
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        r
    }

    #[test]
    fn json_is_byte_stable() {
        let a = sample_registry().snapshot().to_json().to_string();
        let b = sample_registry().snapshot().to_json().to_string();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_drops_unchanged_and_subtracts() {
        let r = sample_registry();
        let before = r.snapshot();
        r.counter("arq_retransmits_total", Key::new(0, None, "arq"))
            .add(2);
        r.histogram("arq_backoff_ns", Key::new(1, None, "arq"))
            .record(800);
        let d = r.snapshot().delta_since(&before);
        // The unchanged gauge passes through; counter delta is 2;
        // histogram delta holds the one new sample.
        assert_eq!(
            d.get("arq_retransmits_total", &Key::new(0, None, "arq")),
            Some(&Value::Counter(2))
        );
        match d.get("arq_backoff_ns", &Key::new(1, None, "arq")) {
            Some(Value::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(d.counter_total("arq_retransmits_total"), 2);
    }

    #[test]
    fn histogram_total_merges_across_ranks() {
        let r = Registry::new();
        r.histogram("h", Key::new(0, None, "x")).record(1);
        r.histogram("h", Key::new(1, None, "x")).record(2);
        let snap = r.snapshot();
        assert_eq!(snap.histogram_total("h").count(), 2);
    }

    #[test]
    fn render_table_lists_matching_rows() {
        let snap = sample_registry().snapshot();
        let t = snap.render_table("arq_");
        assert!(t.contains("arq_retransmits_total"));
        assert!(t.contains("arq_backoff_ns"));
        assert!(!t.contains("residual"));
        assert!(snap.render_table("nope_").contains("no matching"));
    }
}
