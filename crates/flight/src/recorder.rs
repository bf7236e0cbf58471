//! World plumbing: per-rank rings, the ring as a probe sink, and the
//! global enable switch.
//!
//! `RankWorld` creates a [`FlightWorld`] per run and hands each rank
//! thread's probe context that rank's [`FlightWorld::sink`]; everything
//! downstream — the solver's compute ops, the runtime's send / receive /
//! ARQ events — reaches the ring through `gmg_trace::probe`, attributed
//! to the level of the op it happened inside. No ring installed makes
//! every record a no-op.

use std::any::Any;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use gmg_trace::probe::{self, Class, Kind, Record, Sink};
use gmg_trace::ObsConfig;

use crate::log::RankLog;
use crate::ring::{EventKind, FlightEvent, FlightRing, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};

/// Events each rank's ring of a run holds.
pub const RING_CAPACITY: usize = 1 << 16;

/// One ring per rank, shared by the rank threads and whoever dumps them,
/// plus where this world dumps.
pub struct FlightWorld {
    rings: Vec<Arc<FlightRing>>,
    pub(crate) dump_dir: PathBuf,
}

impl FlightWorld {
    /// The rings of a run configured by `cfg`, or `None` when the
    /// recorder is off (`GMG_FLIGHT=0`, or [`set_enabled`]`(false)`).
    pub fn for_run(nranks: usize, cfg: &ObsConfig) -> Option<Arc<Self>> {
        let on = match FORCED.load(Ordering::Relaxed) {
            FORCED_OFF => false,
            FORCED_ON => true,
            _ => cfg.flight,
        };
        on.then(|| Self::build(nranks, RING_CAPACITY, cfg.dump_dir()))
    }

    /// A world of `nranks` rings of `capacity` events that dumps under
    /// `results/`.
    pub fn with_capacity(nranks: usize, capacity: usize) -> Arc<Self> {
        Self::build(nranks, capacity, PathBuf::from("results"))
    }

    fn build(nranks: usize, capacity: usize, dump_dir: PathBuf) -> Arc<Self> {
        Arc::new(FlightWorld {
            rings: (0..nranks)
                .map(|r| Arc::new(FlightRing::new(r, capacity)))
                .collect(),
            dump_dir,
        })
    }

    pub fn nranks(&self) -> usize {
        self.rings.len()
    }

    pub fn ring(&self, rank: usize) -> &Arc<FlightRing> {
        &self.rings[rank]
    }

    pub fn rings(&self) -> &[Arc<FlightRing>] {
        &self.rings
    }

    /// `rank`'s ring as the probe sink its thread installs.
    pub fn sink(self: &Arc<Self>, rank: usize) -> (Class, Box<dyn Sink>) {
        let ring = self.rings[rank].clone();
        (
            Class::Flight,
            Box::new(RingSink {
                world: self.clone(),
                ring,
            }),
        )
    }

    /// Snapshot every ring into per-rank logs (safe while writers run).
    pub fn snapshot(&self) -> Vec<RankLog> {
        self.rings
            .iter()
            .map(|r| RankLog {
                rank: r.rank(),
                capacity: r.capacity() as u64,
                written: r.written(),
                lost: r.lost(),
                events: r.snapshot(),
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Global enable switch
// ---------------------------------------------------------------------------

const FORCED_OFF: u8 = 1;
const FORCED_ON: u8 = 2;

/// 0 = follow the configuration, else one of the two constants above.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// Force the recorder on or off for worlds created from now on,
/// whatever `GMG_FLIGHT` says; returns the state that was in effect.
pub fn set_enabled(on: bool) -> bool {
    let forced = if on { FORCED_ON } else { FORCED_OFF };
    match FORCED.swap(forced, Ordering::Relaxed) {
        FORCED_OFF => false,
        FORCED_ON => true,
        _ => ObsConfig::from_env().flight,
    }
}

// ---------------------------------------------------------------------------
// The ring as a probe sink
// ---------------------------------------------------------------------------

struct RingSink {
    world: Arc<FlightWorld>,
    ring: Arc<FlightRing>,
}

fn narrow(v: Option<usize>, none: u32) -> u32 {
    v.and_then(|v| u32::try_from(v).ok()).unwrap_or(none)
}

impl Sink for RingSink {
    /// What the ring keeps of a probe record: everything with a place in
    /// a postmortem — compute ops, the three sides of a message, ARQ and
    /// control activity — in the slot layout the dump format fixes.
    fn record(&self, rec: &Record) {
        let (kind, op) = match rec.kind {
            Kind::Compute => (EventKind::Compute, rec.key.op),
            Kind::Send => (EventKind::Send, rec.key.op),
            Kind::RecvWait if rec.seq.is_some() => (EventKind::RecvWait, rec.key.op),
            // A failed wait is exactly what the postmortem needs to see.
            Kind::RecvWait => (EventKind::RecvWait, "recv:timeout"),
            Kind::Arrive => (EventKind::MsgArrive, rec.key.op),
            Kind::Arq => (EventKind::Arq, rec.key.op),
            Kind::Control => (EventKind::Control, rec.key.op),
            Kind::Comm => return,
        };
        self.ring.record(FlightEvent {
            seq: 0,
            ts_ns: rec.ts_ns,
            dur_ns: rec.dur_ns,
            kind,
            op,
            level: narrow(rec.key.level, NO_LEVEL),
            peer: narrow(rec.peer, NO_PEER),
            tag: rec.tag.unwrap_or(NO_TAG),
            msg_seq: rec.seq.unwrap_or(NO_MSG_SEQ),
            bytes: rec.value,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The world and rank whose ring is installed on this thread, if any.
pub fn installed() -> Option<(Arc<FlightWorld>, usize)> {
    probe::with_sink(Class::Flight, |s| {
        s.as_any()
            .downcast_ref::<RingSink>()
            .map(|r| (r.world.clone(), r.ring.rank()))
    })
    .flatten()
}

/// Write one compute event straight into this thread's ring (no-op
/// without one) — the ring's own entry point for a caller that measured
/// `(ts_ns, dur_ns)` itself and wants no other sink to see it.
pub fn record_compute(level: usize, op: &'static str, ts_ns: u64, dur_ns: u64, points: u64) {
    if !probe::listening().has(Class::Flight) {
        return;
    }
    probe::with_sink(Class::Flight, |s| {
        s.record(&Record {
            key: probe::Key::new(0, Some(level), op),
            kind: Kind::Compute,
            ts_ns,
            dur_ns,
            peer: None,
            tag: None,
            seq: None,
            value: points,
            counters: Default::default(),
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `FORCED` is process-global: tests that toggle it must not
    /// interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static L: std::sync::Mutex<()> = std::sync::Mutex::new(());
        L.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn record_without_installed_ring_is_a_noop() {
        record_compute(0, "smooth", 0, 10, 1);
        probe::event(Kind::Send, "send").msg(1, 5, 0).value(8);
        // Nothing to assert beyond "did not panic / did not leak state".
        assert!(installed().is_none());
    }

    #[test]
    fn install_guard_restores_previous_target() {
        let w1 = FlightWorld::with_capacity(2, 16);
        let w2 = FlightWorld::with_capacity(1, 16);
        let g1 = probe::install(Some(1), [w1.sink(1)]);
        {
            let _g2 = probe::install(Some(0), [w2.sink(0)]);
            record_compute(3, "smooth", 100, 50, 7);
        }
        record_compute(2, "residual", 200, 25, 9);
        assert_eq!(installed().map(|(_, r)| r), Some(1));
        drop(g1);
        assert!(installed().is_none());
        assert_eq!(w2.ring(0).written(), 1);
        assert_eq!(w1.ring(1).written(), 1);
        let e = &w1.ring(1).snapshot()[0];
        assert_eq!(e.op, "residual");
        assert_eq!(e.level, 2);
    }

    #[test]
    fn comm_events_inherit_the_level_of_the_op_they_are_inside() {
        let w = FlightWorld::with_capacity(1, 16);
        let _g = probe::install(Some(0), [w.sink(0)]);
        {
            let op = probe::op(3, "exchange");
            probe::event(Kind::Send, "send").msg(0, 7, 42).value(64);
            drop(probe::span(Kind::RecvWait, "recv").peer(0).tag(8));
            op.finish();
        }
        probe::event(Kind::Send, "send").msg(0, 8, 43).value(64);
        let snap = w.ring(0).snapshot();
        let seen: Vec<_> = snap.iter().map(|e| (e.kind, e.op, e.level)).collect();
        assert_eq!(
            seen,
            vec![
                (EventKind::Send, "send", 3),
                (EventKind::RecvWait, "recv:timeout", 3),
                (EventKind::Compute, "exchange", 3),
                (EventKind::Send, "send", NO_LEVEL),
            ]
        );
        assert_eq!(
            (snap[0].peer, snap[0].tag, snap[0].msg_seq, snap[0].bytes),
            (0, 7, 42, 64)
        );
        assert_eq!(snap[1].msg_seq, NO_MSG_SEQ);
    }

    #[test]
    fn the_switch_decides_whether_a_run_gets_rings() {
        let _l = lock();
        let cfg = ObsConfig::from_lookup(|_| None);
        let prev = set_enabled(false);
        assert!(FlightWorld::for_run(2, &cfg).is_none());
        assert!(!set_enabled(true));
        let off = ObsConfig::from_lookup(|k| (k == "GMG_FLIGHT").then(|| "0".into()));
        let w = FlightWorld::for_run(2, &off).expect("forced on beats GMG_FLIGHT=0");
        assert_eq!((w.nranks(), w.ring(0).capacity()), (2, RING_CAPACITY));
        set_enabled(prev);
    }
}
