//! World plumbing: per-rank rings, installing one on a rank thread, and
//! the global enable switch.
//!
//! `RankWorld` creates a [`FlightWorld`] per run and [`FlightWorld::install`]s
//! each rank's ring on that rank's thread; everything downstream — the
//! solver's compute ops, the runtime's send / receive / ARQ events —
//! reaches the ring through `gmg_trace::probe`, attributed to the level of
//! the op it happened inside. No ring installed makes every record a
//! no-op.

use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use gmg_trace::probe::{self, ContextGuard};
use gmg_trace::{FlightEvent, FlightRing, Kind, ObsConfig, RankLog, RING_CAPACITY};

/// One ring per rank, shared by the rank threads and whoever dumps them,
/// plus where this world dumps.
pub struct FlightWorld {
    rings: Vec<Arc<FlightRing>>,
    pub(crate) dump_dir: PathBuf,
}

thread_local! {
    /// The world and rank [`FlightWorld::install`] gave this thread.
    static INSTALLED: RefCell<Option<(Arc<FlightWorld>, usize)>> = const { RefCell::new(None) };
}

/// Undoes a [`FlightWorld::install`] on drop.
pub struct Installed {
    prev: Option<(Arc<FlightWorld>, usize)>,
    _probe: ContextGuard,
}

impl Drop for Installed {
    fn drop(&mut self) {
        let _ = INSTALLED.try_with(|w| w.replace(self.prev.take()));
    }
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

    /// Make this thread `rank` of the world ([`probe::install`]) with
    /// `rank`'s ring the one its probes write, and this world the one
    /// [`installed`] (and so `dump_installed`) answers, until the guard
    /// drops.
    pub fn install(self: &Arc<Self>, rank: usize) -> Installed {
        let probe = probe::install(Some(rank), Some(self.rings[rank].clone()));
        Installed {
            prev: INSTALLED.with(|w| w.replace(Some((self.clone(), rank)))),
            _probe: probe,
        }
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

/// The world and rank whose ring [`FlightWorld::install`] put on this
/// thread, if any.
pub fn installed() -> Option<(Arc<FlightWorld>, usize)> {
    INSTALLED.try_with(|w| w.borrow().clone()).ok().flatten()
}

/// Write one compute event straight into this thread's ring (no-op
/// without one), for a caller that measured `(ts_ns, dur_ns)` itself.
pub fn record_compute(level: usize, op: &'static str, ts_ns: u64, dur_ns: u64, points: u64) {
    probe::write(FlightEvent {
        ts_ns,
        dur_ns,
        kind: Kind::Compute,
        op,
        level: u32::try_from(level).unwrap_or(gmg_trace::NO_LEVEL),
        bytes: points,
        ..FlightEvent::empty()
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
        let g1 = w1.install(1);
        {
            let _g2 = w2.install(0);
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
        let _g = w.install(0);
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
                (Kind::Send, "send", 3),
                (Kind::RecvWait, "recv", 3),
                (Kind::Compute, "exchange", 3),
                (Kind::Send, "send", gmg_trace::NO_LEVEL),
            ]
        );
        assert_eq!(
            (snap[0].peer, snap[0].tag, snap[0].msg_seq, snap[0].bytes),
            (0, 7, 42, 64)
        );
        assert_eq!(snap[1].msg_seq, gmg_trace::NO_MSG_SEQ);
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
