//! The span log: spans, counters, and capture sessions — the
//! [`crate::probe`] seam's built-in sink, and the storage behind the
//! Perfetto export.
//!
//! **Concurrent captures are isolated.** `cargo test` runs tests as
//! threads of one process; a process-global event buffer would let
//! parallel tests pollute each other. Instead events go to the
//! [`TraceScope`] installed in the *current thread's* probe context, and
//! `RankWorld` installs the spawning thread's scope inside each rank
//! thread ([`current_scope`] + [`crate::probe::install`]). Every installed
//! thread appends to a buffer of its own; [`TraceScope::snapshot`] merges
//! them.

use crate::probe::{self, Class, ContextGuard, Guard, Kind, Record, Sink};
use std::any::Any;
use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// `level` value for events with no multigrid level (e.g. raw sends).
pub const LEVEL_NONE: usize = usize::MAX;

/// Cheap global check: is any capture scope installed anywhere?
#[inline]
pub fn enabled() -> bool {
    probe::listening().has(Class::Spans)
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

/// An op name as events carry it: a `'static` string, so recording one
/// is a pointer copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub &'static str);

impl OpId {
    pub fn name(self) -> &'static str {
        self.0
    }
}

/// Names the interner will hold before answering [`UNKNOWN_OP`]: far
/// above the op vocabulary, far below what a hostile file could ask for.
pub const MAX_INTERNED: usize = 4096;
/// Longest name the interner keeps.
pub const MAX_INTERNED_LEN: usize = 256;
/// What [`intern`] answers once it is full (or for an oversized name).
pub const UNKNOWN_OP: &str = "?";

/// The workspace's one interner: turn a name read at run time (a trace
/// or flight dump being loaded) into the `'static` string
/// every key carries. Each distinct name is leaked once; the table is
/// capped at [`MAX_INTERNED`] names, so loading hostile input leaks a
/// bounded amount. Instrumented code never comes here — its names are
/// literals.
pub fn intern(name: &str) -> OpId {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if let Some(&known) = names.get(name) {
        return OpId(known);
    }
    if names.len() >= MAX_INTERNED || name.len() > MAX_INTERNED_LEN {
        return OpId(UNKNOWN_OP);
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(leaked);
    OpId(leaked)
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
    /// The sender's wire sequence number of the message a `send`, a
    /// `recv` wait or an ARQ instant is about: with the sender's rank it
    /// names one message ([`Trace::messages`]).
    pub seq: Option<u64>,
}

// ---------------------------------------------------------------------------
// Scopes and capture sessions
// ---------------------------------------------------------------------------

type Buffer = Arc<Mutex<Vec<TraceEvent>>>;

/// A handle on one capture session's span log. Clone-and-send it into
/// worker threads (that is what `RankWorld` does) and install it there so
/// spans on those threads land in the same capture.
#[derive(Clone, Default)]
pub struct TraceScope {
    /// One buffer per installed thread.
    buffers: Arc<Mutex<Vec<Buffer>>>,
}

/// One thread's end of a [`TraceScope`] — the span log as a probe sink:
/// pushes take only this thread's own (uncontended) lock.
struct LocalLog {
    scope: TraceScope,
    buf: Buffer,
}

impl LocalLog {
    fn push(&self, ev: TraceEvent) {
        let mut buf = self.buf.lock().expect("span buffer poisoned");
        if buf.capacity() == 0 {
            // One up-front block, so steady-state recording allocates
            // only when a capture outgrows it.
            buf.reserve(1024);
        }
        buf.push(ev);
    }
}

impl Sink for LocalLog {
    /// What the span log keeps of a probe record: compute ops on the
    /// compute track, comm-side spans on the comm track, ARQ and control
    /// instants on the fault track; arrivals are not spans.
    fn record(&self, rec: &Record) {
        let (track, dur_ns, counters) = match rec.kind {
            Kind::Compute => (Track::Compute, rec.dur_ns, rec.counters),
            Kind::Comm => (
                Track::Comm,
                rec.dur_ns,
                Counters {
                    bytes_read: rec.value,
                    bytes_written: rec.value,
                    ..Default::default()
                },
            ),
            Kind::Send | Kind::RecvWait => (
                Track::Comm,
                rec.dur_ns,
                Counters {
                    messages: u64::from(rec.seq.is_some()),
                    message_bytes: rec.value,
                    ..Default::default()
                },
            ),
            // A point on the timeline, whatever backoff or stall it
            // stands for.
            Kind::Arq | Kind::Control => (Track::Fault, 0, Counters::default()),
            Kind::Arrive => return,
        };
        self.push(TraceEvent {
            rank: rec.key.rank,
            level: rec.key.level.unwrap_or(LEVEL_NONE),
            op: OpId(rec.key.op),
            track,
            ts_ns: rec.ts_ns,
            dur_ns,
            counters,
            peer: rec.peer,
            // Collective tags live near `u64::MAX` — beyond the 2^53
            // range that survives the JSON f64 round trip — so those
            // spans are attributed by peer only.
            tag: rec.tag.filter(|t| *t < 1 << 53),
            seq: rec.seq,
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Run `f` on the span log installed on this thread, if any.
fn with_log<R>(f: impl FnOnce(&LocalLog) -> R) -> Option<R> {
    probe::with_sink(Class::Spans, |s| s.as_any().downcast_ref().map(f)).flatten()
}

impl TraceScope {
    /// This scope's sink for one more thread: a fresh buffer of its own.
    pub fn sink(&self) -> Box<dyn Sink> {
        let buf = Buffer::default();
        self.buffers
            .lock()
            .expect("span log poisoned")
            .push(buf.clone());
        Box::new(LocalLog {
            scope: self.clone(),
            buf,
        })
    }

    /// Install this scope as the current thread's span log, returning a
    /// guard that restores the previous one on drop. Guards nest. (A rank
    /// thread gets its scope through [`crate::probe::install`] instead.)
    pub fn install(&self) -> ContextGuard {
        probe::install(None, [(Class::Spans, self.sink())])
    }

    /// Snapshot the events recorded so far, sorted by start time.
    pub fn snapshot(&self) -> Trace {
        let mut events = Vec::new();
        for buf in self.buffers.lock().expect("span log poisoned").iter() {
            events.extend_from_slice(&buf.lock().expect("span buffer poisoned"));
        }
        events.sort_by_key(|e| (e.ts_ns, e.dur_ns));
        Trace { events }
    }
}

/// The scope installed on this thread, if any. `RankWorld` calls this on
/// the spawning thread and installs the result inside each rank thread.
pub fn current_scope() -> Option<TraceScope> {
    if !enabled() {
        return None;
    }
    with_log(|log| log.scope.clone())
}

/// Run `f` with a fresh capture scope installed; return its result and
/// the recorded [`Trace`]. Captures on different threads are independent.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let scope = TraceScope::default();
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
    if enabled() {
        with_log(|log| log.push(ev));
    }
}

/// Open a span on `track` with an explicit `{rank, level, op}`, for
/// harness code outside any world: timed from here until the returned
/// guard is finished or dropped, kept by the span log only.
pub fn span(rank: usize, level: usize, op: &'static str, track: Track) -> Guard {
    let kind = match track {
        Track::Compute => Kind::Compute,
        Track::Comm => Kind::Comm,
        Track::Fault => Kind::Control,
    };
    probe::harness(rank, (level != LEVEL_NONE).then_some(level), kind, op)
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

    /// Every message whose two ends the trace holds, as `(send, recv)`
    /// indices into [`Trace::events`]: each `recv` wait joined to the
    /// `send` its peer posted to it under the same `seq`. A rank restarted
    /// by a rejoin numbers from 0 again, so of several such sends the
    /// join takes the latest posted no later than the receive ends. (A
    /// send span can end after its receive did: the sender is still
    /// returning from the transmit when the receiver already has the
    /// message.) Traces without `seq` (written before it was recorded)
    /// join nothing.
    pub fn messages(&self) -> Vec<(usize, usize)> {
        // Both ends keyed (sender, seq, receiver, time, index) and sorted,
        // so one merge pass finds each receive's join: the last send of
        // its run posted by the receive's end (a tie goes to the later
        // event).
        let (mut sends, mut recvs) = (Vec::new(), Vec::new());
        for (i, e) in self.events.iter().enumerate() {
            match (e.peer, e.seq, e.op.name()) {
                (Some(to), Some(seq), "send") => sends.push((e.rank, seq, to, e.ts_ns, i)),
                (Some(from), Some(seq), "recv") => {
                    recvs.push((from, seq, e.rank, e.ts_ns + e.dur_ns, i))
                }
                _ => {}
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        let mut posted = 0;
        let mut joins: Vec<(usize, usize)> = recvs
            .into_iter()
            .filter_map(|(from, seq, to, end, r)| {
                let run = (from, seq, to);
                while sends
                    .get(posted)
                    .is_some_and(|&(a, b, c, t, _)| ((a, b, c), t) <= (run, end))
                {
                    posted += 1;
                }
                let &(a, b, c, _, s) = sends[..posted].last()?;
                ((a, b, c) == run).then_some((s, r))
            })
            .collect();
        joins.sort_unstable_by_key(|&(_, r)| r);
        joins
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

    fn event(ts_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            rank: 0,
            level: 0,
            op: OpId("a"),
            track: Track::Compute,
            ts_ns,
            dur_ns,
            counters: Counters::default(),
            peer: None,
            tag: None,
            seq: None,
        }
    }

    #[test]
    fn disabled_outside_capture() {
        // Another test may have a capture open concurrently on its own
        // thread, but *this* thread has no scope, so spans are inert:
        // nothing observable, they must simply not panic — and a finished
        // span still reports its seconds.
        assert!(span(0, 0, "applyOp", Track::Compute).finish() >= 0.0);
        record(event(0, 1));
        assert!(current_scope().is_none());
    }

    #[test]
    fn capture_collects_spans_and_counters() {
        let (val, trace) = capture(|| {
            let mut s = span(2, 1, "smooth", Track::Compute);
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
                        drop(
                            span(rank, LEVEL_NONE, "send", Track::Comm)
                                .peer((rank + 1) % 3)
                                .tag(42),
                        );
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
    fn a_finished_span_reports_the_duration_it_recorded() {
        let (secs, trace) = capture(|| {
            let s = span(1, 2, "restriction", Track::Compute);
            std::thread::sleep(Duration::from_millis(1));
            s.finish()
        });
        let e = &trace.events[0];
        assert_eq!((e.rank, e.level, e.op.name()), (1, 2, "restriction"));
        assert!(e.dur_ns >= 1_000_000 && (secs * 1e9 - e.dur_ns as f64).abs() < 1.0);
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
            let mut ev = event(0, 500_000_000);
            ev.counters.flops = 7;
            record(ev);
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
            seq: None,
        };
        let trace = Trace {
            events: vec![mk(100, 50), mk(200, 300)],
        };
        assert_eq!(trace.time_bounds(), Some((100, 500)));
        assert!((trace.wall_seconds() - 400e-9).abs() < 1e-15);
    }

    /// Rank 1 sends seq 0 to rank 0, restarts, and numbers from 0 again;
    /// each receive joins the latest send of its seq posted before it
    /// ends, and a send to another rank joins nothing.
    #[test]
    fn messages_join_by_sender_and_seq_across_a_restart() {
        let mk = |rank, op, ts_ns, peer, seq| TraceEvent {
            rank,
            level: LEVEL_NONE,
            op: intern(op),
            track: Track::Comm,
            ts_ns,
            dur_ns: 5,
            counters: Counters::default(),
            peer: Some(peer),
            tag: None,
            seq: Some(seq),
        };
        let trace = Trace {
            events: vec![
                mk(1, "send", 10, 0, 0),
                mk(1, "send", 12, 2, 1),
                mk(0, "recv", 20, 1, 0),
                mk(2, "recv", 25, 1, 0),
                mk(1, "send", 50, 0, 0),
                mk(0, "recv", 60, 1, 0),
                mk(0, "recv", 70, 1, 9),
            ],
        };
        assert_eq!(trace.messages(), vec![(0, 2), (4, 5)]);
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
            seq: None,
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
