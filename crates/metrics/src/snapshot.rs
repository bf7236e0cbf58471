//! Point-in-time snapshots of a [`Registry`](crate::Registry) and their
//! JSON codec.
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

/// Tie-break order for [`Snapshot::merge`] when two entries under one key
/// disagree on value kind (impossible from one registry, but merge must
/// still be order-independent on arbitrary inputs).
fn kind_rank(v: &Value) -> u8 {
    match v {
        Value::Counter(_) => 0,
        Value::Gauge(_) => 1,
        Value::Histogram(_) => 2,
    }
}

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

    /// Combine two snapshots into one: counters add, histograms merge,
    /// and gauges keep the maximum (total orders like epoch numbers or
    /// residual high-water marks survive any merge order; per-rank keys
    /// never actually collide across ranks). The operation is associative
    /// *and* commutative — property-tested — so a collector may fold
    /// per-rank deltas in whatever order the wire delivers them.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        let mut map: std::collections::BTreeMap<(String, Key), Value> =
            std::collections::BTreeMap::new();
        for e in self.entries.iter().chain(other.entries.iter()) {
            let slot = map.entry((e.name.clone(), e.key));
            match slot {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(e.value.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let merged = match (o.get(), &e.value) {
                        (Value::Counter(a), Value::Counter(b)) => {
                            Value::Counter(a.saturating_add(*b))
                        }
                        (Value::Histogram(a), Value::Histogram(b)) => {
                            let mut h = a.clone();
                            h.merge(b);
                            Value::Histogram(h)
                        }
                        (Value::Gauge(a), Value::Gauge(b)) => Value::Gauge(a.max(*b)),
                        // Mixed kinds under one key cannot come from a
                        // registry; keep the lexically larger kind name so
                        // the result is still order-independent.
                        (a, b) => {
                            if kind_rank(a) >= kind_rank(b) {
                                a.clone()
                            } else {
                                b.clone()
                            }
                        }
                    };
                    o.insert(merged);
                }
            }
        }
        Snapshot {
            entries: map
                .into_iter()
                .map(|((name, key), value)| SnapshotEntry { name, key, value })
                .collect(),
        }
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

    /// Parse a snapshot JSON document produced by [`Snapshot::to_json`].
    pub fn from_json(v: &Json) -> Result<Snapshot, String> {
        let rows = v
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or("snapshot: missing entries array")?;
        let mut entries = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row
                .get("name")
                .and_then(Json::as_str)
                .ok_or("snapshot entry: missing name")?
                .to_string();
            let rank = row
                .get("rank")
                .and_then(Json::as_u64)
                .ok_or("snapshot entry: missing rank")? as usize;
            let level = row.get("level").and_then(Json::as_u64).map(|l| l as usize);
            let op = row
                .get("op")
                .and_then(Json::as_str)
                .ok_or("snapshot entry: missing op")?;
            let value = if let Some(c) = row.get("counter").and_then(Json::as_u64) {
                Value::Counter(c)
            } else if let Some(g) = row.get("gauge").and_then(Json::as_f64) {
                Value::Gauge(g)
            } else if let Some(h) = row.get("histogram") {
                let buckets = h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .ok_or("snapshot histogram: missing buckets")?
                    .iter()
                    .map(|pair| match pair.as_arr() {
                        Some([i, c]) => Some((i.as_u64()? as usize, c.as_u64()?)),
                        _ => None,
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| format!("snapshot histogram {name:?}: bad bucket pair"))?;
                let count = h.get("count").and_then(Json::as_u64).unwrap_or(0);
                let sum = h.get("sum").and_then(Json::as_u64).unwrap_or(0);
                let min = if count > 0 {
                    h.get("min").and_then(Json::as_u64).unwrap_or(u64::MAX)
                } else {
                    u64::MAX
                };
                let max = h.get("max").and_then(Json::as_u64).unwrap_or(0);
                Value::Histogram(
                    Histogram::from_parts(&buckets, count, sum, min, max)
                        .map_err(|e| format!("snapshot histogram {name:?}: {e}"))?,
                )
            } else {
                return Err(format!("snapshot entry {name:?}: no value field"));
            };
            entries.push(SnapshotEntry {
                name,
                key: Key::new(rank, level, gmg_trace::intern(op).name()),
                value,
            });
        }
        Ok(Snapshot { entries })
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
    fn json_roundtrip_is_exact() {
        let snap = sample_registry().snapshot();
        let back = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_is_byte_stable() {
        let a = sample_registry().snapshot().to_json().to_string();
        let b = sample_registry().snapshot().to_json().to_string();
        assert_eq!(a, b);
        // And reparse → reserialize is also identical.
        let c = Snapshot::from_json(&Json::parse(&a).unwrap())
            .unwrap()
            .to_json()
            .to_string();
        assert_eq!(a, c);
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
    fn merge_adds_counters_merges_histograms_maxes_gauges() {
        let a = sample_registry().snapshot();
        let r = Registry::new();
        r.counter("arq_retransmits_total", Key::new(0, None, "arq"))
            .add(5);
        r.gauge("residual", Key::new(0, Some(0), "solve")).set(2e-9);
        r.histogram("arq_backoff_ns", Key::new(1, None, "arq"))
            .record(50);
        let b = r.snapshot();
        let m = a.merge(&b);
        assert_eq!(m, b.merge(&a), "merge must be commutative");
        assert_eq!(
            m.get("arq_retransmits_total", &Key::new(0, None, "arq")),
            Some(&Value::Counter(8))
        );
        assert_eq!(
            m.get("residual", &Key::new(0, Some(0), "solve")),
            Some(&Value::Gauge(2e-9))
        );
        match m.get("arq_backoff_ns", &Key::new(1, None, "arq")) {
            Some(Value::Histogram(h)) => assert_eq!(h.count(), 5),
            other => panic!("unexpected {other:?}"),
        }
        // Identity: merging with an empty snapshot changes nothing but
        // (already sorted) order.
        assert_eq!(a.merge(&Snapshot::default()), a);
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
