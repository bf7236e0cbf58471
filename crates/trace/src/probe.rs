//! The one instrumentation seam: one guard per timed op, one builder per
//! instant, one `{rank, level, op}` [`Key`], one per-thread context — and
//! every observability sink behind them.
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
//! Two sinks listen ([`Class`]): the span log (`crate::sink`, Perfetto
//! export and folded stacks) and the flight ring (`gmg-flight`, crash
//! dumps). Each keeps its own storage and artifact format and decides
//! per [`Kind`] what it keeps. Which of them listen anywhere in the
//! process is one packed word, so with nothing listening a probe costs
//! one relaxed load (plus the clock reads of a timed op), and on the
//! default path — flight ring on — one ring write.
//!
//! The per-thread context holds the rank, the current level and this
//! thread's instance of each sink. `RankWorld` and the process-world
//! child [`install`] it once per rank thread.

use crate::sink::Counters;
use std::any::Any;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Who listens
// ---------------------------------------------------------------------------

/// The two sinks behind the seam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// The span log of a [`crate::capture`] session.
    Spans = 0,
    /// A `gmg-flight` ring installed on some thread.
    Flight = 1,
}

/// Two 16-bit listener counts, one per [`Class`], packed in one word so
/// the hot path reads a single flag whatever is on.
static LISTENING: AtomicU32 = AtomicU32::new(0);

const fn one(class: Class) -> u32 {
    1 << (16 * class as u32)
}

/// A snapshot of which sink classes have a listener.
#[derive(Clone, Copy, Debug)]
pub struct Listening(u32);

impl Listening {
    #[inline]
    pub fn any(self) -> bool {
        self.0 != 0
    }

    #[inline]
    pub fn has(self, class: Class) -> bool {
        self.0 & (0xFFFF * one(class)) != 0
    }
}

impl Listening {
    /// Whether a sink that keeps records of `kind` listens (each variant's
    /// doc says which do); a probe nothing would keep is inert.
    #[inline]
    fn keeps(self, kind: Kind) -> bool {
        use Class::*;
        let keepers: &[Class] = match kind {
            Kind::Compute | Kind::Arq | Kind::Control => return self.any(),
            Kind::Comm => &[Spans],
            Kind::Send | Kind::RecvWait => &[Spans, Flight],
            Kind::Arrive => &[Flight],
        };
        keepers.iter().any(|c| self.has(*c))
    }
}

/// The one relaxed load every probe starts with.
#[inline]
pub fn listening() -> Listening {
    Listening(LISTENING.load(Ordering::Relaxed))
}

/// Count one more listener of `class` (a capture scope or a ring
/// installed on a thread).
pub fn listen(class: Class) {
    let before = LISTENING.fetch_add(one(class), Ordering::Relaxed);
    debug_assert!(
        Listening(before + one(class)).has(class),
        "listener count overflow"
    );
}

/// Undo one [`listen`].
pub fn unlisten(class: Class) {
    let before = LISTENING.fetch_sub(one(class), Ordering::Relaxed);
    debug_assert!(Listening(before).has(class), "unlisten without listen");
}

// ---------------------------------------------------------------------------
// What is recorded
// ---------------------------------------------------------------------------

/// The attribution every sink keys by.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    pub rank: usize,
    /// Multigrid level, `None` outside any op.
    pub level: Option<usize>,
    pub op: &'static str,
}

impl Key {
    pub fn new(rank: usize, level: Option<usize>, op: &'static str) -> Key {
        Key { rank, level, op }
    }
}

/// What a record is; each sink decides from this what it keeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// A timed solver op on a level. Every sink keeps it.
    Compute,
    /// A comm-side interval with no message identity (pack, unpack,
    /// self-exchange). Span log only.
    Comm,
    /// A message posted to `peer` under wire sequence `seq`; `value` is
    /// its payload bytes. A span to the span log, an instant to the ring.
    Send,
    /// A blocking receive on `(peer, tag)`; `seq` is the delivered
    /// message, `None` when the wait failed. Span log and ring.
    RecvWait,
    /// A message delivered into this rank. Ring only.
    Arrive,
    /// Reliability-layer activity for message `seq` (retransmit, drop,
    /// reject, dedup); `dur_ns` carries the backoff where relevant.
    Arq,
    /// Control plane: injected faults, health verdicts, recoveries.
    Control,
}

/// One completed record, as the sinks see it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Record {
    pub key: Key,
    pub kind: Kind,
    /// Start, nanoseconds from [`crate::epoch`].
    pub ts_ns: u64,
    /// Duration (0 for instants unless the caller supplied one).
    pub dur_ns: u64,
    pub peer: Option<usize>,
    pub tag: Option<u64>,
    pub seq: Option<u64>,
    /// Payload bytes of a message, points of a compute op.
    pub value: u64,
    /// Byte / FLOP counters of a compute op (filled only while a span
    /// log listens).
    pub counters: Counters,
}

/// Prices an op's point count into the span log's byte / FLOP counters.
pub type CounterModel = fn(op: &str, points: u64) -> Counters;

/// A sink's per-thread instance. Instances live in the thread's context
/// and are only ever called from that thread; a sink must not call back
/// into the probe.
pub trait Sink: Any {
    /// One completed record.
    fn record(&self, _rec: &Record) {}
    /// For the owning crate to reach its concrete type.
    fn as_any(&self) -> &dyn Any;
}

// ---------------------------------------------------------------------------
// The per-thread context
// ---------------------------------------------------------------------------

struct Context {
    rank: Cell<usize>,
    level: Cell<Option<usize>>,
    /// This thread's instance of each sink, indexed by [`Class`].
    sinks: [RefCell<Option<Box<dyn Sink>>>; 2],
}

thread_local! {
    static CTX: Context = const {
        Context {
            rank: Cell::new(0),
            level: Cell::new(None),
            sinks: [RefCell::new(None), RefCell::new(None)],
        }
    };
}

impl Context {
    fn with_sink<R>(&self, class: Class, f: impl FnOnce(&dyn Sink) -> R) -> Option<R> {
        self.sinks[class as usize].borrow().as_deref().map(f)
    }
}

/// Run `f` on this thread's instance of `class`; `None` when there is
/// none.
pub fn with_sink<R>(class: Class, f: impl FnOnce(&dyn Sink) -> R) -> Option<R> {
    CTX.try_with(|c| c.with_sink(class, f)).ok().flatten()
}

/// Restores the thread's previous context on drop.
pub struct ContextGuard {
    rank: Option<(usize, Option<usize>)>,
    sinks: Vec<(Class, Option<Box<dyn Sink>>)>,
}

/// Give this thread `sinks` to record into — and, with `rank`, make it
/// that rank of a world (the one observability install a rank thread
/// performs: its capture's span log and its flight ring). `None` keeps
/// the thread's rank and level (a capture opened inside a rank thread).
pub fn install(
    rank: Option<usize>,
    sinks: impl IntoIterator<Item = (Class, Box<dyn Sink>)>,
) -> ContextGuard {
    CTX.with(|c| ContextGuard {
        rank: rank.map(|r| (c.rank.replace(r), c.level.replace(None))),
        sinks: sinks
            .into_iter()
            .map(|(class, sink)| {
                listen(class);
                (class, c.sinks[class as usize].replace(Some(sink)))
            })
            .collect(),
    })
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let _ = CTX.try_with(|c| {
            if let Some((rank, level)) = self.rank {
                c.rank.set(rank);
                c.level.set(level);
            }
            for (class, prev) in self.sinks.drain(..).rev() {
                c.sinks[class as usize].replace(prev);
                unlisten(class);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// The guard
// ---------------------------------------------------------------------------

/// One probe in flight: a timed op or span (closed by [`Guard::finish`]
/// or by dropping it) or an instant event (recorded when the builder
/// expression ends).
pub struct Guard {
    rec: Record,
    /// `None` for instants.
    start: Option<Instant>,
    model: Option<CounterModel>,
    /// Take the rank / the level from the context at close (else: as
    /// given).
    ctx_rank: bool,
    ctx_level: bool,
    /// A harness span: the span log alone keeps it.
    spans_only: bool,
    /// The context level to put back when an op closes.
    restore: Option<Option<usize>>,
    open: bool,
}

#[inline]
fn guard(kind: Kind, level: Option<usize>, op: &'static str) -> Guard {
    Guard {
        rec: Record {
            key: Key::new(0, level, op),
            kind,
            ts_ns: 0,
            dur_ns: 0,
            peer: None,
            tag: None,
            seq: None,
            value: 0,
            counters: Counters::default(),
        },
        start: None,
        model: None,
        ctx_rank: true,
        ctx_level: level.is_none(),
        spans_only: false,
        restore: None,
        open: true,
    }
}

/// Open the guard of one timed solver op at `level`. Until it closes,
/// everything this thread records inherits the level.
#[inline]
#[must_use = "an op is measured until its guard is finished or dropped"]
pub fn op(level: usize, op: &'static str) -> Guard {
    let mut g = guard(Kind::Compute, Some(level), op);
    if listening().any() {
        g.restore = CTX.try_with(|c| c.level.replace(Some(level))).ok();
    }
    // Last, so the set-up above is outside the measurement.
    g.start = Some(Instant::now());
    g
}

/// Open a timed comm-side span; its level is the enclosing op's. Inert —
/// no clock read — when nothing that keeps `kind` listens.
#[inline]
#[must_use = "a span is measured until its guard is dropped"]
pub fn span(kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, None, op);
    g.open = listening().keeps(kind);
    if g.open {
        g.start = Some(Instant::now());
    }
    g
}

/// An instant event, stamped now and recorded when the returned builder
/// is dropped; inert when nothing that keeps `kind` listens.
#[inline]
pub fn event(kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, None, op);
    g.open = listening().keeps(kind);
    if g.open {
        g.rec.ts_ns = crate::now_ns();
    }
    g
}

/// A timed span with an explicit rank and level that only the span log
/// keeps — for harness code outside any world ([`crate::span`]).
pub(crate) fn harness(rank: usize, level: Option<usize>, kind: Kind, op: &'static str) -> Guard {
    let mut g = guard(kind, level, op);
    g.rec.key.rank = rank;
    (g.ctx_rank, g.ctx_level, g.spans_only) = (false, false, true);
    g.start = Some(Instant::now());
    g
}

impl Guard {
    /// Points this compute op processed; `model` prices them into the
    /// span's byte / FLOP counters (called only while a span log
    /// listens).
    #[must_use = "an op is measured until its guard is finished or dropped"]
    #[inline]
    pub fn points(mut self, n: u64, model: CounterModel) -> Self {
        self.rec.value = n;
        self.model = Some(model);
        self
    }

    /// Exact counters measured by the op itself (overrides any model);
    /// its point count is `counters.stencil_points`.
    #[inline]
    pub fn counters(&mut self, counters: Counters) {
        self.rec.value = counters.stencil_points;
        self.rec.counters = counters;
        self.model = None;
    }

    /// Peer rank of a message or fault.
    #[inline]
    pub fn peer(mut self, peer: usize) -> Self {
        self.rec.peer = Some(peer);
        self
    }

    #[inline]
    pub fn tag(mut self, tag: u64) -> Self {
        self.rec.tag = Some(tag);
        self
    }

    /// A message's identity: peer, tag and the wire sequence number that
    /// joins its send / arrive / receive across ranks.
    #[inline]
    pub fn msg(mut self, peer: usize, tag: u64, seq: u64) -> Self {
        (self.rec.peer, self.rec.tag, self.rec.seq) = (Some(peer), Some(tag), Some(seq));
        self
    }

    /// Payload bytes of a message, or the sample of a stat.
    #[inline]
    pub fn value(mut self, v: u64) -> Self {
        self.rec.value = v;
        self
    }

    /// A receive wait matched message `seq` of `bytes` payload bytes
    /// (left unset, the wait is recorded as failed).
    #[inline]
    pub fn delivered(&mut self, seq: u64, bytes: u64) {
        self.rec.seq = Some(seq);
        self.rec.value = bytes;
    }

    /// The duration an instant stands for (a backoff, a stall).
    #[inline]
    pub fn dur_ns(mut self, ns: u64) -> Self {
        self.rec.dur_ns = ns;
        self
    }

    /// Attribute to `rank` instead of this thread's (a controller
    /// reporting about one of its ranks).
    #[inline]
    pub fn rank(mut self, rank: usize) -> Self {
        self.rec.key.rank = rank;
        self.ctx_rank = false;
        self
    }

    /// The `(level, op)` this guard was opened with.
    #[inline]
    pub fn key(&self) -> (Option<usize>, &'static str) {
        (self.rec.key.level, self.rec.key.op)
    }

    /// Close a timed guard: one clock read, every listening sink fed from
    /// it; returns the measured seconds.
    #[inline]
    pub fn finish(mut self) -> f64 {
        self.close()
    }

    fn close(&mut self) -> f64 {
        self.open = false;
        let mut on = listening();
        if self.spans_only {
            on.0 &= 0xFFFF * one(Class::Spans);
        }
        // Only the span log keeps the duration of a send or a pack; without
        // one their end time is not even read.
        let untimed = matches!(self.rec.kind, Kind::Comm | Kind::Send) && !on.has(Class::Spans);
        let elapsed = self.start.filter(|_| !untimed).map(|s| s.elapsed());
        if on.any() || self.restore.is_some() {
            let _ = CTX.try_with(|c| {
                if on.any() {
                    self.dispatch(c, on, elapsed);
                }
                if let Some(prev) = self.restore.take() {
                    c.level.set(prev);
                }
            });
        }
        elapsed.map_or(0.0, |d| d.as_secs_f64())
    }

    fn dispatch(&mut self, c: &Context, on: Listening, elapsed: Option<std::time::Duration>) {
        let rec = &mut self.rec;
        if self.ctx_rank {
            rec.key.rank = c.rank.get();
        }
        if self.ctx_level {
            rec.key.level = c.level.get();
        }
        if let Some(start) = self.start {
            rec.ts_ns = crate::instant_ns(start);
            rec.dur_ns = elapsed.map_or(0, |d| d.as_nanos() as u64);
        }
        if let (Some(model), true) = (self.model, on.has(Class::Spans)) {
            rec.counters = model(rec.key.op, rec.value);
        }
        for class in [Class::Spans, Class::Flight] {
            if on.has(class) {
                c.with_sink(class, |s| s.record(rec));
            }
        }
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
    use std::rc::Rc;

    fn model(_op: &str, points: u64) -> Counters {
        Counters {
            flops: 8 * points,
            stencil_points: points,
            ..Default::default()
        }
    }

    /// A sink that keeps what it is fed.
    struct Keep(Rc<RefCell<Vec<Record>>>);

    fn keep(kept: &Rc<RefCell<Vec<Record>>>) -> (Class, Box<dyn Sink>) {
        (Class::Flight, Box::new(Keep(kept.clone())))
    }

    impl Sink for Keep {
        fn record(&self, rec: &Record) {
            self.0.borrow_mut().push(*rec);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn an_op_feeds_the_span_log_and_the_installed_sink_one_measurement() {
        let kept = Rc::new(RefCell::new(Vec::new()));
        let (secs, trace) = capture(|| {
            let _ctx = install(Some(3), [keep(&kept)]);
            let g = op(2, "smooth").points(10, model);
            std::thread::sleep(std::time::Duration::from_millis(1));
            g.finish()
        });
        let e = &trace.events[0];
        assert_eq!(
            (e.rank, e.level, e.op.name(), e.track),
            (3, 2, "smooth", Track::Compute)
        );
        assert_eq!(e.counters.flops, 80);
        let kept = kept.borrow();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].key, Key::new(3, Some(2), "smooth"));
        assert_eq!((kept[0].ts_ns, kept[0].dur_ns), (e.ts_ns, e.dur_ns));
        assert_eq!(kept[0].value, 10);
        assert!(secs >= 1e-3 && (secs * 1e9 - e.dur_ns as f64).abs() < 1.0);
    }

    #[test]
    fn records_inside_an_op_inherit_its_level_and_the_level_is_restored() {
        let kept = Rc::new(RefCell::new(Vec::new()));
        let _ctx = install(Some(1), [keep(&kept)]);
        event(Kind::Control, "before").value(1);
        {
            let outer = op(4, "exchange");
            drop(span(Kind::Send, "send").msg(0, 9, 5).value(64));
            event(Kind::Arq, "arq:drop").msg(0, 9, 5);
            outer.finish();
        }
        event(Kind::Control, "after");
        let kept = kept.borrow();
        let levels: Vec<_> = kept.iter().map(|r| (r.key.op, r.key.level)).collect();
        assert_eq!(
            levels,
            vec![
                ("before", None),
                ("send", Some(4)),
                ("arq:drop", Some(4)),
                ("exchange", Some(4)),
                ("after", None)
            ]
        );
        assert_eq!(
            (kept[1].peer, kept[1].tag, kept[1].seq, kept[1].value),
            (Some(0), Some(9), Some(5), 64)
        );
    }

    #[test]
    fn a_dropped_guard_still_records_and_an_explicit_rank_wins() {
        let kept = Rc::new(RefCell::new(Vec::new()));
        let _ctx = install(Some(0), [keep(&kept)]);
        let failed = || -> Result<(), ()> {
            let _g = span(Kind::RecvWait, "recv").peer(1).tag(2);
            Err(())
        };
        assert!(failed().is_err());
        event(Kind::Control, "fault:kill").rank(7);
        // Only the span log keeps a comm span; with just a ring listening
        // the probe is inert.
        drop(span(Kind::Comm, "pack"));
        let kept = kept.borrow();
        assert_eq!((kept[0].kind, kept[0].seq), (Kind::RecvWait, None));
        assert_eq!((kept[1].kind, kept[1].key.rank), (Kind::Control, 7));
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn nothing_installed_means_nothing_recorded() {
        // Other tests may listen on their own threads; this thread has no
        // span log and no sink, so the probe is inert here.
        let secs = op(0, "applyOp").points(1, model).finish();
        assert!(secs >= 0.0);
        event(Kind::Control, "fault:kill");
    }

    #[test]
    fn listener_counts_are_per_class() {
        let before = listening();
        listen(Class::Flight);
        assert!(listening().has(Class::Flight));
        assert_eq!(listening().has(Class::Spans), before.has(Class::Spans));
        unlisten(Class::Flight);
        assert_eq!(listening().has(Class::Flight), before.has(Class::Flight));
    }
}
