//! The thread-safe hierarchical metrics registry.
//!
//! Every series is a `(metric name, Key)` pair, where [`Key`] is the
//! probe's `{rank, level, op}` attribution (level `None` for level-less
//! series like the comm protocol). Handles ([`Counter`], [`Gauge`],
//! [`HistogramHandle`]) are cheap `Arc` clones — look one up once, then
//! record lock-free (counters and gauges) or under a per-series mutex
//! (histograms); the probe sink ([`crate::sink`]) keeps the handles of
//! the series a thread feeds in that thread's context.
//!
//! Recording is globally gated by [`enabled`]: the registry is one of the
//! probe's listener classes, so instrumented code reads no flag of ours.

use crate::hist::Histogram;
use crate::snapshot::{Snapshot, SnapshotEntry, Value};
use gmg_trace::probe::{self, Class};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use gmg_trace::probe::Key;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Cheap global check: is metrics recording on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn global metrics recording on (returns the previous state).
pub fn enable() -> bool {
    let was = ENABLED.swap(true, Ordering::Relaxed);
    if !was {
        probe::register(Class::Metrics, crate::sink::per_thread);
        probe::listen(Class::Metrics);
    }
    was
}

/// Turn global metrics recording off (returns the previous state).
pub fn disable() -> bool {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    if was {
        probe::unlisten(Class::Metrics);
    }
    was
}

/// Monotonic counter handle.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge handle (an `f64` stored as bits).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Histogram handle; recording takes the per-series mutex.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    pub fn record(&self, v: u64) {
        self.0.lock().unwrap().record(v);
    }

    /// A copy of the current histogram state.
    pub fn get(&self) -> Histogram {
        self.0.lock().unwrap().clone()
    }
}

enum Slot {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Mutex<Histogram>>),
}

/// A metrics registry: a sorted map from `(name, key)` to series.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<(&'static str, Key), Slot>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry the built-in instrumentation feeds.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Counter handle for `(name, key)`, created on first use.
    /// Panics if the series already exists with a different type.
    pub fn counter(&self, name: &'static str, key: Key) -> Counter {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry((name, key))
            .or_insert_with(|| Slot::Counter(Arc::new(AtomicU64::new(0))));
        match slot {
            Slot::Counter(c) => Counter(c.clone()),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Gauge handle for `(name, key)`, created on first use.
    pub fn gauge(&self, name: &'static str, key: Key) -> Gauge {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry((name, key))
            .or_insert_with(|| Slot::Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))));
        match slot {
            Slot::Gauge(g) => Gauge(g.clone()),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Histogram handle for `(name, key)`, created on first use.
    pub fn histogram(&self, name: &'static str, key: Key) -> HistogramHandle {
        let mut slots = self.slots.lock().unwrap();
        let slot = slots
            .entry((name, key))
            .or_insert_with(|| Slot::Histogram(Arc::new(Mutex::new(Histogram::preallocated()))));
        match slot {
            Slot::Histogram(h) => HistogramHandle(h.clone()),
            _ => panic!("metric {name:?} already registered with a different type"),
        }
    }

    /// Point-in-time copy of every series, sorted by `(name, key)` —
    /// deterministic, so snapshot serializations are byte-stable.
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().unwrap();
        let entries = slots
            .iter()
            .map(|((name, key), slot)| SnapshotEntry {
                name: name.to_string(),
                key: *key,
                value: match slot {
                    Slot::Counter(c) => Value::Counter(c.load(Ordering::Relaxed)),
                    Slot::Gauge(g) => Value::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                    Slot::Histogram(h) => Value::Histogram(h.lock().unwrap().clone()),
                },
            })
            .collect();
        Snapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enable_disable_roundtrip() {
        let was = enable();
        assert!(enabled());
        assert!(probe::listening().has(Class::Metrics));
        if !was {
            disable();
        }
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let r = Registry::new();
        let k = Key::new(0, Some(1), "smooth");
        let c = r.counter("ops_total", k);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Handle re-lookup sees the same series.
        assert_eq!(r.counter("ops_total", k).get(), 5);

        let g = r.gauge("residual", k);
        g.set(1.5);
        assert_eq!(g.get(), 1.5);

        let h = r.histogram("op_ns", k);
        h.record(100);
        h.record(200);
        assert_eq!(h.get().count(), 2);

        let snap = r.snapshot();
        assert_eq!(snap.entries.len(), 3);
        // Sorted by (name, key): op_ns, ops_total, residual.
        let names: Vec<_> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["op_ns", "ops_total", "residual"]);
    }

    #[test]
    fn keys_partition_series() {
        let r = Registry::new();
        let a = r.counter("n", Key::new(0, None, "x"));
        let b = r.counter("n", Key::new(1, None, "x"));
        a.inc();
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        let k = Key::new(0, None, "x");
        r.counter("m", k);
        r.gauge("m", k);
    }

    #[test]
    fn handles_are_threadsafe() {
        let r = Registry::new();
        let c = r.counter("t", Key::new(0, None, "x"));
        let h = r.histogram("th", Key::new(0, None, "x"));
        let mut joins = Vec::new();
        for _ in 0..4 {
            let (c, h) = (c.clone(), h.clone());
            joins.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    c.inc();
                    h.record(i);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.get().count(), 4000);
    }
}
