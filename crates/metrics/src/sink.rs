//! The registry as a probe sink: which series each probe record feeds.
//!
//! This table is the whole metric vocabulary of the instrumented code.
//! A record's `(kind, op)` selects its series; counters count records,
//! `*_ns` histograms take the record's duration, the others its value.
//! All series of one record share the record's rank; only compute ops
//! keep their level and op name as labels — the comm, frame and
//! membership series are level-less and labelled by subsystem.
//!
//! The per-thread instance caches the resolved handles by `(kind, key)`,
//! so an enabled record costs a hash lookup plus the series updates: no
//! registry lock, no allocation after a key's first use.

use crate::registry::{Counter, Gauge, HistogramHandle, Key, Registry};
use gmg_trace::probe::{Kind, Record, Sink};
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;

/// How one series is updated from a record.
#[derive(Clone, Copy)]
enum Feed {
    /// Counter: one more record.
    Count(&'static str),
    /// Histogram of the record's `dur_ns`.
    Duration(&'static str),
    /// Histogram of the record's `value`.
    Value(&'static str),
    /// Gauge set to the record's `value`, on rank 0.
    Level(&'static str),
}

/// The series a `(kind, op)` feeds and the `op` label they carry
/// (`None`: the record's own level and op).
fn vocabulary(kind: Kind, op: &'static str) -> (Option<&'static str>, &'static [Feed]) {
    use Feed::*;
    match (kind, op) {
        (Kind::Compute, _) => (None, &[Duration("solver_op_ns")]),
        (Kind::Arq, "arq:retransmit") => (
            Some("arq"),
            &[Count("arq_retransmits_total"), Duration("arq_backoff_ns")],
        ),
        (Kind::Arq, "arq:reject") => (Some("arq"), &[Count("arq_checksum_failures_total")]),
        (Kind::Arq, "arq:dedup") => (Some("arq"), &[Count("arq_dedup_drops_total")]),
        (Kind::Stat, "arq:acked") => (Some("arq"), &[Value("arq_attempts")]),
        (Kind::Arq, "frame:reject") => (Some("frame"), &[Count("frame_decode_errors_total")]),
        (Kind::Stat, "frame:misrouted") => (Some("frame"), &[Count("telemetry_misrouted_total")]),
        (Kind::Stat, "frame:fenced") => (Some("frame"), &[Count("epoch_fenced_frames_total")]),
        (Kind::Stat, "heartbeat:missed") => {
            (Some("membership"), &[Count("heartbeat_missed_total")])
        }
        (Kind::Stat, "heartbeat:rtt") => (Some("membership"), &[Value("heartbeat_rtt_ns")]),
        (Kind::Stat, "membership:death") => {
            (Some("membership"), &[Count("membership_deaths_total")])
        }
        (Kind::Stat, "membership:respawn") => {
            (Some("membership"), &[Duration("respawn_latency_ns")])
        }
        (Kind::Stat, "membership:rejoin") => (
            Some("membership"),
            &[Duration("rejoin_epoch_ns"), Level("membership_epoch")],
        ),
        // Solver health verdicts and recoveries, one row per event name.
        (Kind::Control, op)
            if ["health:", "recover:", "rejoin:"]
                .iter()
                .any(|p| op.starts_with(p)) =>
        {
            (None, &[Count("solver_events_total")])
        }
        _ => (None, &[]),
    }
}

enum Series {
    Count(Counter),
    Duration(HistogramHandle),
    Value(HistogramHandle),
    Level(Gauge),
}

/// This thread's resolved series, by the record key that feeds them.
#[derive(Default)]
struct MetricsSink {
    resolved: RefCell<HashMap<(Kind, Key), Vec<Series>>>,
}

fn resolve(kind: Kind, key: Key) -> Vec<Series> {
    let (label, feeds) = vocabulary(kind, key.op);
    let reg = Registry::global();
    let key = match (kind, label) {
        (_, Some(label)) => Key::new(key.rank, None, label),
        (Kind::Compute, None) => key,
        (_, None) => Key::new(key.rank, None, key.op),
    };
    feeds
        .iter()
        .map(|feed| match *feed {
            Feed::Count(name) => Series::Count(reg.counter(name, key)),
            Feed::Duration(name) => Series::Duration(reg.histogram(name, key)),
            Feed::Value(name) => Series::Value(reg.histogram(name, key)),
            Feed::Level(name) => Series::Level(reg.gauge(name, Key::new(0, key.level, key.op))),
        })
        .collect()
}

impl Sink for MetricsSink {
    fn record(&self, rec: &Record) {
        let mut resolved = self.resolved.borrow_mut();
        let series = resolved
            .entry((rec.kind, rec.key))
            .or_insert_with(|| resolve(rec.kind, rec.key));
        for s in series.iter() {
            match s {
                Series::Count(c) => c.inc(),
                Series::Duration(h) => h.record(rec.dur_ns),
                Series::Value(h) => h.record(rec.value),
                Series::Level(g) => g.set(rec.value as f64),
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The probe's factory for this sink (registered by [`crate::enable`]).
pub(crate) fn per_thread() -> Box<dyn Sink> {
    Box::<MetricsSink>::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Value as Snap;
    use gmg_trace::probe;

    /// Serialises the tests that switch the process-global registry on.
    fn enabled() -> impl Drop {
        struct Off(bool, #[allow(dead_code)] std::sync::MutexGuard<'static, ()>);
        impl Drop for Off {
            fn drop(&mut self) {
                if !self.0 {
                    crate::disable();
                }
            }
        }
        static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = L.lock().unwrap_or_else(|e| e.into_inner());
        Off(crate::enable(), guard)
    }

    #[test]
    fn a_compute_op_lands_in_its_level_and_op_histogram() {
        let _on = enabled();
        let before = Registry::global().snapshot();
        let _ctx = probe::install(Some(41), []);
        probe::op(2, "sink_test_smooth").finish();
        let delta = Registry::global().snapshot().delta_since(&before);
        match delta.get("solver_op_ns", &Key::new(41, Some(2), "sink_test_smooth")) {
            Some(Snap::Histogram(h)) => assert_eq!(h.count(), 1),
            other => panic!("missing solver_op_ns row: {other:?}"),
        }
    }

    #[test]
    fn comm_and_membership_events_feed_their_named_series() {
        let _on = enabled();
        let before = Registry::global().snapshot();
        let _ctx = probe::install(Some(42), []);
        probe::event(Kind::Arq, "arq:retransmit")
            .msg(1, 7, 3)
            .dur_ns(5_000);
        probe::event(Kind::Stat, "arq:acked").value(2);
        probe::event(Kind::Control, "health:diverged");
        probe::event(Kind::Control, "fault:kill");
        probe::event(Kind::Stat, "membership:rejoin")
            .rank(43)
            .dur_ns(7)
            .value(9);
        let delta = Registry::global().snapshot().delta_since(&before);
        let arq = Key::new(42, None, "arq");
        assert_eq!(
            delta.get("arq_retransmits_total", &arq),
            Some(&Snap::Counter(1))
        );
        match delta.get("arq_backoff_ns", &arq) {
            Some(Snap::Histogram(h)) => assert_eq!((h.count(), h.max()), (1, Some(5_000))),
            other => panic!("missing arq_backoff_ns: {other:?}"),
        }
        assert!(matches!(
            delta.get("arq_attempts", &arq),
            Some(Snap::Histogram(_))
        ));
        assert_eq!(
            delta.get(
                "solver_events_total",
                &Key::new(42, None, "health:diverged")
            ),
            Some(&Snap::Counter(1))
        );
        assert_eq!(
            delta.get("solver_events_total", &Key::new(42, None, "fault:kill")),
            None
        );
        assert!(matches!(
            delta.get("rejoin_epoch_ns", &Key::new(43, None, "membership")),
            Some(Snap::Histogram(_))
        ));
        assert_eq!(
            Registry::global()
                .snapshot()
                .get("membership_epoch", &Key::new(0, None, "membership")),
            Some(&Snap::Gauge(9.0))
        );
    }
}
