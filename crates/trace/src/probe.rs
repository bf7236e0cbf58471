//! The one instrumentation seam: one guard per timed op, one builder per
//! instant, one per-thread context — and the one store behind them, the
//! thread's flight ring.
//!
//! Instrumented code names only this module. [`op`]`(level, name)` opens
//! the guard of one timed solver op; [`Guard::finish`] reads the clock
//! once and returns the seconds (the solver books them into its own timer
//! table); dropped unfinished — an error path — it still records.
//! [`span`]`(kind, name)` times a comm-side interval and
//! [`event`]`(kind, name)` marks an instant, each with its
//! `peer / tag / seq / value`. Everything a thread records inside an
//! [`op`] inherits that op's level.
//!
//! A probe builds one [`FlightEvent`] and writes it into the thread's
//! ring; a thread without one records nothing. A capture
//! ([`crate::capture`]) is a window on the rings of the threads it
//! covers, and while one is open anywhere in the process ([`capturing`])
//! the probes also price compute ops through their counter model, time
//! sends, and record comm-side spans — work the untraced hot path skips.
//!
//! The per-thread context holds the rank, the current level, the ring
//! and the capture covering the thread. `RankWorld` and the
//! process-world child [`install`] it once per rank thread.

use crate::capture::{Counters, TraceScope};
pub use crate::ring::Kind;
use crate::ring::{FlightEvent, FlightRing, NO_LEVEL, NO_PEER, RING_CAPACITY};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Capture scopes installed on threads anywhere in the process.
static CAPTURES: AtomicU32 = AtomicU32::new(0);

/// Whether a capture is open anywhere in the process: one relaxed load,
/// gating the work only a capture reads (the counter model, a send's end
/// clock, comm-side spans).
#[inline]
pub(crate) fn capturing() -> bool {
    CAPTURES.load(Ordering::Relaxed) != 0
}

/// Prices an op's point count into its byte / FLOP counters.
pub type CounterModel = fn(op: &str, points: u64) -> Counters;

// ---------------------------------------------------------------------------
// The per-thread context
// ---------------------------------------------------------------------------

struct Context {
    rank: Cell<usize>,
    level: Cell<Option<usize>>,
    /// The ring this thread's probes write.
    ring: RefCell<Option<Arc<FlightRing>>>,
    /// The capture covering this thread.
    scope: RefCell<Option<TraceScope>>,
}

thread_local! {
    static CTX: Context = const {
        Context {
            rank: Cell::new(0),
            level: Cell::new(None),
            ring: RefCell::new(None),
            scope: RefCell::new(None),
        }
    };
}

impl Context {
    /// Whether a record here is kept: the thread has a ring, or a capture
    /// will give it one.
    fn records(&self) -> bool {
        self.ring.borrow().is_some() || self.scope.borrow().is_some()
    }

    /// Write `ev` into this thread's ring. Under a capture a thread
    /// without one first gets a ring of its own, for `rank` (else the
    /// thread's rank), which the capture reads.
    fn write(&self, ev: FlightEvent, rank: Option<usize>) {
        if let Some(ring) = &*self.ring.borrow() {
            return ring.record(ev);
        }
        let Some(scope) = self.scope.borrow().clone() else {
            return;
        };
        let ring = Arc::new(FlightRing::new(
            rank.unwrap_or(self.rank.get()),
            RING_CAPACITY,
        ));
        scope.adopt(&ring);
        ring.record(ev);
        self.ring.replace(Some(ring));
    }
}

/// Write a fully formed event into this thread's ring (no-op without
/// one).
pub fn write(ev: FlightEvent) {
    let _ = CTX.try_with(|c| c.write(ev, None));
}

/// The capture covering this thread, if any.
pub(crate) fn scope() -> Option<TraceScope> {
    CTX.try_with(|c| c.scope.borrow().clone()).ok().flatten()
}

/// Restores the thread's previous context on drop.
pub struct ContextGuard {
    rank: Option<(usize, Option<usize>)>,
    ring: Option<Arc<FlightRing>>,
    scope: Option<Option<TraceScope>>,
}

/// Make this thread `rank` of a world, with `ring` the ring its probes
/// write — the one observability install a rank thread performs. A
/// capture covering the thread reads the new ring from here on.
pub fn install(rank: usize, ring: Arc<FlightRing>) -> ContextGuard {
    // Pin the process's time zero before anything can be recorded: a
    // span that started before it would have its start clamped to 0.
    crate::epoch();
    CTX.with(|c| {
        if let Some(scope) = &*c.scope.borrow() {
            scope.adopt(&ring);
        }
        ContextGuard {
            rank: Some((c.rank.replace(rank), c.level.replace(None))),
            ring: c.ring.replace(Some(ring)),
            scope: None,
        }
    })
}

/// Put `scope` over this thread ([`TraceScope::install`]); the thread's
/// ring, and whatever ring the capture gives it, is restored on drop.
pub(crate) fn cover(scope: TraceScope) -> ContextGuard {
    crate::epoch();
    CAPTURES.fetch_add(1, Ordering::Relaxed);
    CTX.with(|c| {
        let ring = c.ring.borrow().clone();
        if let Some(ring) = &ring {
            scope.adopt(ring);
        }
        ContextGuard {
            rank: None,
            ring,
            scope: Some(c.scope.replace(Some(scope))),
        }
    })
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let _ = CTX.try_with(|c| {
            if let Some((rank, level)) = self.rank {
                c.rank.set(rank);
                c.level.set(level);
            }
            c.ring.replace(self.ring.take());
            if let Some(scope) = self.scope.take() {
                c.scope.replace(scope);
            }
        });
        if self.scope.is_some() {
            CAPTURES.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// The guard
// ---------------------------------------------------------------------------

/// One probe in flight: a timed op or span (closed by [`Guard::finish`]
/// or by dropping it) or an instant event (recorded when the builder
/// expression ends).
pub struct Guard {
    ev: FlightEvent,
    /// `None` for instants.
    start: Option<Instant>,
    model: Option<CounterModel>,
    /// Take the level from the context at close (else: as given).
    ctx_level: bool,
    /// A harness span's rank ([`crate::span`]).
    rank: Option<usize>,
    /// The context level to put back when an op closes.
    restore: Option<Option<usize>>,
    open: bool,
}

fn narrow(v: Option<usize>, none: u32) -> u32 {
    v.and_then(|v| u32::try_from(v).ok()).unwrap_or(none)
}

#[inline]
fn guard(kind: Kind, level: Option<usize>, op: &'static str) -> Guard {
    Guard {
        ev: FlightEvent {
            kind,
            op,
            level: narrow(level, NO_LEVEL),
            ..FlightEvent::empty()
        },
        start: None,
        model: None,
        ctx_level: level.is_none(),
        rank: None,
        restore: None,
        open: true,
    }
}

/// Whether a probe of `kind` opened now records anything: comm-side
/// spans only under a capture, everything only on a thread that records.
#[inline]
fn records(kind: Kind) -> bool {
    (kind != Kind::Comm || capturing()) && CTX.try_with(Context::records).unwrap_or(false)
}

/// Open the guard of one timed solver op at `level`. Until it closes,
/// everything this thread records inherits the level.
#[inline]
#[must_use = "an op is measured until its guard is finished or dropped"]
pub fn op(level: usize, op: &'static str) -> Guard {
    let mut g = guard(Kind::Compute, Some(level), op);
    g.restore = CTX.try_with(|c| c.level.replace(Some(level))).ok();
    // Last, so the set-up above is outside the measurement.
    g.start = Some(Instant::now());
    g
}

/// Open a timed comm-side span; its level is the enclosing op's. Inert —
/// no clock read — when nothing would record it.
#[inline]
#[must_use = "a span is measured until its guard is dropped"]
pub fn span(kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, None, op);
    g.open = records(kind);
    if g.open {
        g.start = Some(Instant::now());
    }
    g
}

/// An instant event, stamped now and recorded when the returned builder
/// is dropped; inert when nothing would record it.
#[inline]
pub fn event(kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, None, op);
    g.open = records(kind);
    if g.open {
        g.ev.ts_ns = crate::now_ns();
    }
    g
}

/// A timed span with an explicit level, for harness code outside any
/// world ([`crate::span`]).
pub(crate) fn harness(rank: usize, level: Option<usize>, kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, level, op);
    (g.ctx_level, g.rank) = (false, Some(rank));
    g.start = Some(Instant::now());
    g
}

impl Guard {
    /// Points this compute op processed; `model` prices them into the
    /// op's byte / FLOP counters (called only under a capture).
    #[must_use = "an op is measured until its guard is finished or dropped"]
    #[inline]
    pub fn points(mut self, n: u64, model: CounterModel) -> Self {
        self.ev.bytes = n;
        self.model = Some(model);
        self
    }

    /// Exact counters measured by the op itself (overrides any model);
    /// its point count is `counters.stencil_points`.
    #[inline]
    pub fn counters(&mut self, counters: Counters) {
        self.ev.set_counters(&counters);
        self.model = None;
    }

    /// Peer rank of a message or fault.
    #[inline]
    pub fn peer(mut self, peer: usize) -> Self {
        self.ev.peer = narrow(Some(peer), NO_PEER);
        self
    }

    #[inline]
    pub fn tag(mut self, tag: u64) -> Self {
        self.ev.tag = tag;
        self
    }

    /// A message's identity: peer, tag and the wire sequence number that
    /// joins its send / arrive / receive across ranks.
    #[inline]
    pub fn msg(self, peer: usize, tag: u64, seq: u64) -> Self {
        let mut g = self.peer(peer).tag(tag);
        g.ev.msg_seq = seq;
        g
    }

    /// Payload bytes of a message, or the sample of a stat.
    #[inline]
    pub fn value(mut self, v: u64) -> Self {
        self.ev.bytes = v;
        self
    }

    /// A receive wait matched message `seq` of `bytes` payload bytes
    /// (left unset, the wait is recorded as failed).
    #[inline]
    pub fn delivered(&mut self, seq: u64, bytes: u64) {
        (self.ev.msg_seq, self.ev.bytes) = (seq, bytes);
    }

    /// The duration an instant stands for (a backoff, a stall).
    #[inline]
    pub fn dur_ns(mut self, ns: u64) -> Self {
        self.ev.dur_ns = ns;
        self
    }

    /// The `(level, op)` this guard was opened with.
    #[inline]
    pub fn key(&self) -> (Option<usize>, &'static str) {
        let level = (self.ev.level != NO_LEVEL).then_some(self.ev.level as usize);
        (level, self.ev.op)
    }

    /// Close a timed guard: one clock read, one ring write; returns the
    /// measured seconds.
    #[inline]
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        self.open = false;
        let capturing = capturing();
        // Only a capture reads a send's duration; without one its end
        // time is not even read.
        let untimed = self.ev.kind == Kind::Send && !capturing;
        let elapsed = self.start.filter(|_| !untimed).map(|s| s.elapsed());
        let _ = CTX.try_with(|c| {
            if c.records() {
                let ev = &mut self.ev;
                if self.ctx_level {
                    ev.level = narrow(c.level.get(), NO_LEVEL);
                }
                if let Some(start) = self.start {
                    ev.ts_ns = crate::instant_ns(start);
                    ev.dur_ns = elapsed.map_or(0, |d| d.as_nanos() as u64);
                }
                if let (Some(model), true) = (self.model, capturing) {
                    ev.set_counters(&model(ev.op, ev.bytes));
                }
                c.write(*ev, self.rank);
            }
            if let Some(prev) = self.restore.take() {
                c.level.set(prev);
            }
        });
        elapsed.map_or(0.0, |d| d.as_secs_f64())
    }
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.open {
            self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{capture, Track};

    fn model(_op: &str, points: u64) -> Counters {
        Counters {
            flops: 8 * points,
            stencil_points: points,
            ..Default::default()
        }
    }

    fn ring() -> Arc<FlightRing> {
        Arc::new(FlightRing::new(3, 16))
    }

    #[test]
    fn an_op_writes_one_measurement_that_a_capture_reads_back() {
        let ring = ring();
        let (secs, trace) = capture(|| {
            let _ctx = install(3, ring.clone());
            let g = op(2, "smooth").points(10, model);
            std::thread::sleep(std::time::Duration::from_millis(1));
            g.finish()
        });
        let e = &trace.events[0];
        assert_eq!(
            (e.rank, e.level, e.op.name(), e.track),
            (3, 2, "smooth", Track::Compute)
        );
        assert_eq!((e.counters.flops, e.counters.stencil_points), (80, 10));
        let kept = ring.snapshot();
        assert_eq!(kept.len(), 1);
        assert_eq!((kept[0].level, kept[0].op), (2, "smooth"));
        assert_eq!((kept[0].ts_ns, kept[0].dur_ns), (e.ts_ns, e.dur_ns));
        assert!(secs >= 1e-3 && (secs * 1e9 - e.dur_ns as f64).abs() < 1.0);
    }

    #[test]
    fn records_inside_an_op_inherit_its_level_and_the_level_is_restored() {
        let ring = ring();
        let _ctx = install(1, ring.clone());
        event(Kind::Control, "before").value(1);
        {
            let outer = op(4, "exchange");
            drop(span(Kind::Send, "send").msg(0, 9, 5).value(64));
            event(Kind::Arq, "arq:drop").msg(0, 9, 5);
            outer.finish();
        }
        event(Kind::Control, "after");
        let kept = ring.snapshot();
        let levels: Vec<_> = kept.iter().map(|e| (e.op, e.level)).collect();
        assert_eq!(
            levels,
            vec![
                ("before", NO_LEVEL),
                ("send", 4),
                ("arq:drop", 4),
                ("exchange", 4),
                ("after", NO_LEVEL)
            ]
        );
        assert_eq!(
            (kept[1].peer, kept[1].tag, kept[1].msg_seq, kept[1].bytes),
            (0, 9, 5, 64)
        );
    }

    #[test]
    fn a_dropped_guard_still_records_and_a_capture_records_comm_spans() {
        let ring = ring();
        let _ctx = install(0, ring.clone());
        let failed = || -> Result<(), ()> {
            let _g = span(Kind::RecvWait, "recv").peer(1).tag(2);
            Err(())
        };
        assert!(failed().is_err());
        let kept = ring.snapshot();
        assert_eq!((kept[0].kind, kept[0].msg_seq), (Kind::RecvWait, u64::MAX));
        assert_eq!(kept.len(), 1);
        let (_, trace) = capture(|| drop(span(Kind::Comm, "pack").value(8)));
        assert_eq!(trace.events[0].op.name(), "pack");
        assert_eq!(trace.events[0].counters.bytes_read, 8);
    }

    #[test]
    fn nothing_installed_means_nothing_recorded() {
        // Other tests may capture on their own threads; this thread has no
        // ring and no capture, so the probe is inert here.
        let secs = op(0, "applyOp").points(1, model).finish();
        assert!(secs >= 0.0);
        event(Kind::Control, "fault:kill");
        write(FlightEvent::empty());
        assert!(scope().is_none());
    }
}
