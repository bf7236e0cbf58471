//! The event sink: spans, counters, and capture sessions.
//!
//! Everything here is built around two invariants:
//!
//! 1. **Zero-cost when disabled.** Every record path begins with
//!    [`enabled`] — one relaxed atomic load — and bails before touching
//!    clocks, thread-locals, or locks. Timed kernels with no active
//!    capture pay only that load.
//! 2. **Concurrent captures are isolated.** `cargo test` runs tests as
//!    threads of one process; a process-global event buffer would let
//!    parallel tests pollute each other. Instead events go to the
//!    [`TraceScope`] installed in the *current thread's* TLS, and
//!    `RankWorld` re-installs the spawning thread's scope inside each rank
//!    thread (via [`current_scope`] + [`TraceScope::install`]).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `level` value for events with no multigrid level (e.g. raw sends).
pub const LEVEL_NONE: usize = usize::MAX;

/// Number of installed capture scopes across all threads. The fast-path
/// gate: zero ⇒ tracing is off everywhere.
static ACTIVE_SCOPES: AtomicUsize = AtomicUsize::new(0);

/// Cheap global check: is any capture scope installed anywhere?
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SCOPES.load(Ordering::Relaxed) > 0
}

/// The process-wide timestamp origin. First call pins it; all spans from
/// all threads share it, so cross-rank timestamps are directly comparable.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from the process epoch to `at` (0 if `at` predates it).
#[inline]
pub fn instant_ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Nanoseconds from the process epoch to now.
#[inline]
pub fn now_ns() -> u64 {
    instant_ns(Instant::now())
}

// ---------------------------------------------------------------------------
// Op-name interning
// ---------------------------------------------------------------------------

/// Interned op name. Comparing/storing a `u32` instead of a string keeps
/// `TraceEvent` `Copy` and the hot record path allocation-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

fn interner() -> &'static Mutex<Vec<&'static str>> {
    static NAMES: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    NAMES.get_or_init(|| Mutex::new(Vec::new()))
}

/// Intern `name`, returning a stable [`OpId`]. The set of op names in a
/// GMG run is tiny ("applyOp", "smooth+residual", "send", …), so the
/// leaked backing storage is bounded and the linear scan is cheap.
pub fn intern(name: &str) -> OpId {
    let mut names = interner().lock().unwrap();
    if let Some(i) = names.iter().position(|n| *n == name) {
        return OpId(i as u32);
    }
    names.push(Box::leak(name.to_string().into_boxed_str()));
    OpId((names.len() - 1) as u32)
}

impl OpId {
    /// The interned name (panics on an id not produced by [`intern`]).
    pub fn name(self) -> &'static str {
        interner().lock().unwrap()[self.0 as usize]
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Which timeline a span belongs to. Exported as Perfetto thread tracks
/// within the rank's process, so compute and communication render as two
/// parallel lanes per rank.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Kernel / solver work (smooth, residual, restriction, …).
    Compute,
    /// Exchange runtime work (send, recv, pack, unpack, allreduce).
    Comm,
    /// Injected faults and recovery actions (drops, retransmissions,
    /// checksum rejections, rollbacks). Instant events with `dur_ns == 0`;
    /// only emitted by chaos runs, so fault-free traces have no such
    /// track.
    Fault,
}

impl Track {
    /// Perfetto `tid` for this track.
    pub fn tid(self) -> u64 {
        match self {
            Track::Compute => 0,
            Track::Comm => 1,
            Track::Fault => 2,
        }
    }

    pub fn from_tid(tid: u64) -> Option<Track> {
        match tid {
            0 => Some(Track::Compute),
            1 => Some(Track::Comm),
            2 => Some(Track::Fault),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Track::Compute => "compute",
            Track::Comm => "comm",
            Track::Fault => "fault",
        }
    }
}

/// Data-movement / work counters attached to a span. Fed from
/// `gmg-stencil`'s static analysis so every kernel invocation
/// self-reports its traffic; comm spans fill the message fields.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub bytes_read: u64,
    pub bytes_written: u64,
    pub flops: u64,
    pub stencil_points: u64,
    pub messages: u64,
    pub message_bytes: u64,
}

impl Counters {
    /// Component-wise accumulate (used by the summary aggregation).
    pub fn add(&mut self, other: &Counters) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.flops += other.flops;
        self.stencil_points += other.stencil_points;
        self.messages += other.messages;
        self.message_bytes += other.message_bytes;
    }

    /// Total bytes moved (reads + writes + message payload).
    pub fn total_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written + self.message_bytes
    }
}

/// One completed span. Timestamps are nanoseconds from [`epoch`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceEvent {
    pub rank: usize,
    /// Multigrid level, or [`LEVEL_NONE`].
    pub level: usize,
    pub op: OpId,
    pub track: Track,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub counters: Counters,
    /// Peer rank for point-to-point comm spans.
    pub peer: Option<usize>,
    /// Message tag for point-to-point comm spans.
    pub tag: Option<u64>,
}

// ---------------------------------------------------------------------------
// Scopes and capture sessions
// ---------------------------------------------------------------------------

struct SinkInner {
    events: Mutex<Vec<TraceEvent>>,
}

/// A handle on one capture session's event sink. Clone-and-send it into
/// worker threads (that is what `RankWorld` does) and [`install`] it there
/// so spans on those threads land in the same capture.
///
/// [`install`]: TraceScope::install
#[derive(Clone)]
pub struct TraceScope {
    inner: Arc<SinkInner>,
}

impl TraceScope {
    fn new() -> TraceScope {
        TraceScope {
            inner: Arc::new(SinkInner {
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Install this scope in the current thread's TLS, returning a guard
    /// that restores the previous scope (and the global enabled count) on
    /// drop. Guards nest.
    pub fn install(&self) -> ScopeGuard {
        ACTIVE_SCOPES.fetch_add(1, Ordering::Relaxed);
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        ScopeGuard { prev }
    }

    fn push(&self, ev: TraceEvent) {
        self.inner.events.lock().unwrap().push(ev);
    }

    /// Snapshot the events recorded so far, sorted by start time.
    pub fn snapshot(&self) -> Trace {
        let mut events = self.inner.events.lock().unwrap().clone();
        events.sort_by_key(|e| (e.ts_ns, e.dur_ns));
        Trace { events }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<TraceScope>> = const { RefCell::new(None) };
}

/// The scope installed on this thread, if any. `RankWorld::run` calls
/// this on the spawning thread and re-installs the result inside each
/// rank thread.
pub fn current_scope() -> Option<TraceScope> {
    if !enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Restores the previously installed [`TraceScope`] when dropped.
pub struct ScopeGuard {
    prev: Option<TraceScope>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.replace(self.prev.take()));
        ACTIVE_SCOPES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Run `f` with a fresh capture scope installed; return its result and
/// the recorded [`Trace`]. Captures on different threads are independent.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let scope = TraceScope::new();
    let guard = scope.install();
    let result = f();
    drop(guard);
    (result, scope.snapshot())
}

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

/// Record a fully-formed event into the current thread's scope (no-op
/// without one).
#[inline]
pub fn record(ev: TraceEvent) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(scope) = c.borrow().as_ref() {
            scope.push(ev);
        }
    });
}

/// Record a span from an externally measured `(start, secs)` pair.
///
/// This exists so call sites that already time an op (e.g. the solver's
/// `OpTimer`) can feed the *identical* measurement to both sinks — the
/// trace-derived per-op fractions then agree with `TimerReport` by
/// construction rather than within sampling noise.
#[inline]
pub fn record_span_at(
    rank: usize,
    level: usize,
    op: &str,
    track: Track,
    start: Instant,
    secs: f64,
    counters: Counters,
) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        rank,
        level,
        op: intern(op),
        track,
        ts_ns: instant_ns(start),
        dur_ns: (secs * 1e9).round() as u64,
        counters,
        peer: None,
        tag: None,
    });
}

/// Record a zero-duration instant event at "now" — the shape fault
/// injections and recovery actions use: a point on the timeline, not a
/// span with extent.
#[inline]
pub fn record_instant(
    rank: usize,
    level: usize,
    op: &str,
    track: Track,
    peer: Option<usize>,
    tag: Option<u64>,
) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        rank,
        level,
        op: intern(op),
        track,
        ts_ns: instant_ns(Instant::now()),
        dur_ns: 0,
        counters: Counters::default(),
        peer,
        tag,
    });
}

/// RAII span: created at the call site, recorded (with its measured
/// duration) on drop. Inert — no clock read, no allocation — when no
/// scope is installed.
pub struct Span {
    /// `None` when tracing was disabled at construction.
    live: Option<SpanLive>,
}

struct SpanLive {
    scope: TraceScope,
    rank: usize,
    level: usize,
    op: OpId,
    track: Track,
    start: Instant,
    counters: Counters,
    peer: Option<usize>,
    tag: Option<u64>,
}

/// Open a span on `track` attributed to `{rank, level, op}`. Dropping the
/// returned guard records the event.
#[inline]
pub fn span(rank: usize, level: usize, op: &str, track: Track) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    let Some(scope) = CURRENT.with(|c| c.borrow().clone()) else {
        return Span { live: None };
    };
    Span {
        live: Some(SpanLive {
            scope,
            rank,
            level,
            op: intern(op),
            track,
            start: Instant::now(),
            counters: Counters::default(),
            peer: None,
            tag: None,
        }),
    }
}

impl Span {
    /// Attach work counters (overwrites any previously attached set).
    pub fn counters(&mut self, counters: Counters) {
        if let Some(live) = &mut self.live {
            live.counters = counters;
        }
    }

    /// Attach point-to-point attribution (peer rank and message tag).
    pub fn peer(&mut self, peer: usize, tag: u64) {
        if let Some(live) = &mut self.live {
            live.peer = Some(peer);
            live.tag = Some(tag);
        }
    }

    /// Attach only the peer rank. Used for collective traffic, whose
    /// reserved tags sit near `u64::MAX` — beyond the 2^53 range that
    /// survives the JSON f64 round trip exactly.
    pub fn peer_rank(&mut self, peer: usize) {
        if let Some(live) = &mut self.live {
            live.peer = Some(peer);
        }
    }

    /// Whether this span is actually recording.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let end = Instant::now();
        // Floor-truncated ns at both ends: for back-to-back spans on one
        // thread, floor(a) + floor(b-a) <= floor(b) guarantees
        // `prev.ts + prev.dur <= next.ts` exactly (the serial-track
        // invariant the timeline tests check).
        let ts_ns = instant_ns(live.start);
        let dur_ns = end.saturating_duration_since(live.start).as_nanos() as u64;
        live.scope.push(TraceEvent {
            rank: live.rank,
            level: live.level,
            op: live.op,
            track: live.track,
            ts_ns,
            dur_ns,
            counters: live.counters,
            peer: live.peer,
            tag: live.tag,
        });
    }
}

// ---------------------------------------------------------------------------
// Captured traces
// ---------------------------------------------------------------------------

/// A completed capture: all events, sorted by start time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Sorted, deduplicated rank ids present in the trace.
    pub fn ranks(&self) -> Vec<usize> {
        let mut r: Vec<usize> = self.events.iter().map(|e| e.rank).collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    /// Events on one `(rank, track)` timeline, in start order.
    pub fn track_events(&self, rank: usize, track: Track) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| e.rank == rank && e.track == track)
            .collect()
    }

    /// True iff the `(rank, track)` timeline has no overlapping spans:
    /// each span ends (ts + dur) no later than the next begins.
    pub fn track_is_serial(&self, rank: usize, track: Track) -> bool {
        let evs = self.track_events(rank, track);
        evs.windows(2)
            .all(|w| w[0].ts_ns + w[0].dur_ns <= w[1].ts_ns)
    }

    /// Sum of all counters across events matching `filter`.
    pub fn counters_where(&self, filter: impl Fn(&TraceEvent) -> bool) -> Counters {
        let mut total = Counters::default();
        for e in self.events.iter().filter(|e| filter(e)) {
            total.add(&e.counters);
        }
        total
    }

    /// Earliest start and latest end timestamps, in trace nanoseconds
    /// (None when the trace is empty).
    pub fn time_bounds(&self) -> Option<(u64, u64)> {
        let start = self.events.iter().map(|e| e.ts_ns).min()?;
        let end = self.events.iter().map(|e| e.ts_ns + e.dur_ns).max()?;
        Some((start, end))
    }

    /// Wall-clock extent of the trace in seconds (latest end − earliest
    /// start), 0.0 when empty.
    pub fn wall_seconds(&self) -> f64 {
        match self.time_bounds() {
            Some((s, e)) => (e - s) as f64 / 1e9,
            None => 0.0,
        }
    }

    /// The sub-trace of events on ranks in `[lo, hi)` — windowed export
    /// for captures too wide to render whole (a 10k-rank simulated world
    /// exports a browsable Perfetto window, not 10k process tracks).
    /// Event order and timestamps are preserved.
    pub fn rank_window(&self, lo: usize, hi: usize) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| (lo..hi).contains(&e.rank))
                .cloned()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_outside_capture() {
        // Another test may have a capture open concurrently on its own
        // thread, but *this* thread has no scope, so spans are inert.
        let s = span(0, 0, "applyOp", Track::Compute);
        assert!(!s.is_live());
        drop(s);
        record_span_at(
            0,
            0,
            "applyOp",
            Track::Compute,
            Instant::now(),
            1e-3,
            Counters::default(),
        );
        // Nothing observable — the calls above must simply not panic.
    }

    #[test]
    fn capture_collects_spans_and_counters() {
        let (val, trace) = capture(|| {
            let mut s = span(2, 1, "smooth", Track::Compute);
            assert!(s.is_live());
            s.counters(Counters {
                flops: 80,
                stencil_points: 10,
                ..Default::default()
            });
            std::thread::sleep(Duration::from_millis(1));
            drop(s);
            "done"
        });
        assert_eq!(val, "done");
        assert_eq!(trace.events.len(), 1);
        let e = &trace.events[0];
        assert_eq!((e.rank, e.level), (2, 1));
        assert_eq!(e.op.name(), "smooth");
        assert_eq!(e.track, Track::Compute);
        assert!(e.dur_ns >= 1_000_000, "slept 1ms, dur {}ns", e.dur_ns);
        assert_eq!(e.counters.flops, 80);
        assert_eq!(e.counters.stencil_points, 10);
    }

    #[test]
    fn concurrent_captures_are_isolated() {
        let t = std::thread::spawn(|| {
            capture(|| {
                drop(span(7, 0, "other-thread-op", Track::Compute));
            })
            .1
        });
        let (_, mine) = capture(|| {
            drop(span(3, 0, "my-op", Track::Compute));
        });
        let theirs = t.join().unwrap();
        assert_eq!(mine.events.len(), 1);
        assert_eq!(mine.events[0].op.name(), "my-op");
        assert_eq!(theirs.events.len(), 1);
        assert_eq!(theirs.events[0].op.name(), "other-thread-op");
    }

    #[test]
    fn scope_propagates_into_worker_threads() {
        let (_, trace) = capture(|| {
            let scope = current_scope().expect("capture installs a scope");
            let handles: Vec<_> = (0..3)
                .map(|rank| {
                    let scope = scope.clone();
                    std::thread::spawn(move || {
                        let _g = scope.install();
                        drop(span(rank, 0, "applyOp", Track::Compute));
                        let mut s = span(rank, LEVEL_NONE, "send", Track::Comm);
                        s.peer((rank + 1) % 3, 42);
                        drop(s);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        assert_eq!(trace.ranks(), vec![0, 1, 2]);
        assert_eq!(trace.events.len(), 6);
        let sends: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.track == Track::Comm)
            .collect();
        assert_eq!(sends.len(), 3);
        assert!(sends.iter().all(|e| e.peer.is_some() && e.tag == Some(42)));
        assert!(sends.iter().all(|e| e.level == LEVEL_NONE));
    }

    #[test]
    fn nested_install_restores_previous_scope() {
        let (_, outer) = capture(|| {
            drop(span(0, 0, "outer-a", Track::Compute));
            let (_, inner) = capture(|| {
                drop(span(0, 0, "inner", Track::Compute));
            });
            assert_eq!(inner.events.len(), 1);
            assert_eq!(inner.events[0].op.name(), "inner");
            // After the nested capture ends, this thread records into the
            // outer scope again.
            drop(span(0, 0, "outer-b", Track::Compute));
        });
        let names: Vec<_> = outer.events.iter().map(|e| e.op.name()).collect();
        assert_eq!(names, vec!["outer-a", "outer-b"]);
    }

    #[test]
    fn serial_track_invariant_for_sequential_spans() {
        let (_, trace) = capture(|| {
            for i in 0..50 {
                drop(span(
                    0,
                    0,
                    if i % 2 == 0 { "a" } else { "b" },
                    Track::Compute,
                ));
            }
        });
        assert_eq!(trace.events.len(), 50);
        assert!(trace.track_is_serial(0, Track::Compute));
    }

    #[test]
    fn record_span_at_uses_given_measurement() {
        let start = Instant::now();
        let (_, trace) = capture(|| {
            record_span_at(
                1,
                2,
                "restriction",
                Track::Compute,
                start,
                0.25,
                Counters {
                    bytes_read: 100,
                    ..Default::default()
                },
            );
        });
        let e = &trace.events[0];
        assert_eq!(e.dur_ns, 250_000_000);
        assert_eq!(e.ts_ns, instant_ns(start));
        assert_eq!(e.counters.bytes_read, 100);
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("applyOp-intern-test");
        let b = intern("applyOp-intern-test");
        assert_eq!(a, b);
        assert_eq!(a.name(), "applyOp-intern-test");
        let c = intern("other-intern-test");
        assert_ne!(a, c);
    }

    #[test]
    fn counters_arithmetic() {
        let mut a = Counters {
            bytes_read: 1,
            bytes_written: 2,
            flops: 3,
            stencil_points: 4,
            messages: 5,
            message_bytes: 6,
        };
        a.add(&a.clone());
        assert_eq!(a.bytes_read, 2);
        assert_eq!(a.message_bytes, 12);
        assert_eq!(a.total_bytes(), 2 + 4 + 12);
    }

    #[test]
    fn trace_wall_seconds_and_counters_where() {
        let (_, trace) = capture(|| {
            record_span_at(
                0,
                0,
                "a",
                Track::Compute,
                epoch(),
                0.5,
                Counters {
                    flops: 7,
                    ..Default::default()
                },
            );
        });
        assert!(trace.wall_seconds() > 0.0);
        assert_eq!(trace.counters_where(|e| e.level == 0).flops, 7);
        assert_eq!(trace.counters_where(|e| e.level == 1).flops, 0);
    }

    #[test]
    fn time_bounds_span_earliest_to_latest() {
        assert_eq!(Trace::default().time_bounds(), None);
        let mk = |ts_ns, dur_ns| TraceEvent {
            rank: 0,
            level: 0,
            op: intern("a"),
            track: Track::Compute,
            ts_ns,
            dur_ns,
            counters: Counters::default(),
            peer: None,
            tag: None,
        };
        let trace = Trace {
            events: vec![mk(100, 50), mk(200, 300)],
        };
        assert_eq!(trace.time_bounds(), Some((100, 500)));
        assert!((trace.wall_seconds() - 400e-9).abs() < 1e-15);
    }

    #[test]
    fn rank_window_selects_half_open_range() {
        let mk = |rank, ts_ns| TraceEvent {
            rank,
            level: 0,
            op: intern("a"),
            track: Track::Compute,
            ts_ns,
            dur_ns: 10,
            counters: Counters::default(),
            peer: None,
            tag: None,
        };
        let trace = Trace {
            events: vec![mk(0, 100), mk(3, 50), mk(4, 10), mk(7, 0), mk(3, 200)],
        };
        let w = trace.rank_window(3, 5);
        assert_eq!(w.ranks(), vec![3, 4]);
        assert_eq!(w.events.len(), 3);
        // Order and timestamps untouched.
        assert_eq!(w.events[0].ts_ns, 50);
        assert_eq!(w.events[2].ts_ns, 200);
        assert!(trace.rank_window(8, 20).events.is_empty());
    }
}
