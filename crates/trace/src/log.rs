//! A rank's ring as data, and the rings as one [`Trace`].
//!
//! A [`RankLog`] is what a capture's window, a flight dump or the
//! simulator's synthetic builder hands on: one rank's validated events
//! plus its ring health. [`rebuild_trace`] turns a world of them into the
//! `Trace` every analysis reads — the critical path, the wait classifier
//! and the Perfetto export — through the one event conversion, so a live
//! capture and a flight dump of the same run give the same trace.

use crate::capture::{Counters, OpId, Trace, TraceEvent, Track, LEVEL_NONE};
use crate::ring::{FlightEvent, Kind, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};

/// One rank's snapshotted ring (or a window on it) plus its health
/// counters.
#[derive(Clone, Debug, Default)]
pub struct RankLog {
    pub rank: usize,
    pub capacity: u64,
    /// Events recorded (in the window), including those since overwritten.
    pub written: u64,
    /// Events abandoned by a lapped writer.
    pub lost: u64,
    pub events: Vec<FlightEvent>,
}

/// The rings as one distributed [`Trace`]: compute ops on the compute
/// track, comm-side spans and the three sides of a message on the comm
/// track (each message end with its wire `seq`, which
/// [`Trace::messages`] joins by), ARQ and control instants on the fault
/// track. A log that recorded more events than it holds reports the
/// difference in [`Trace::lost`].
///
/// Events come log by log, each log's in `(ts, dur)` order (ties in ring
/// order): every analysis reads one rank's timeline at a time, and a
/// world-wide time sort would only shuffle a 10k-rank trace's millions
/// of events across memory.
pub fn rebuild_trace(logs: &[RankLog]) -> Trace {
    let mut trace = Trace {
        events: Vec::with_capacity(logs.iter().map(|l| l.events.len()).sum()),
        lost: Vec::new(),
    };
    for log in logs {
        let mut ring: Vec<&FlightEvent> = log.events.iter().collect();
        ring.sort_by_key(|e| (e.ts_ns, e.dur_ns));
        trace
            .events
            .extend(ring.into_iter().map(|e| trace_event(log.rank, e)));
        let missing = log.written.saturating_sub(log.events.len() as u64);
        if missing > 0 {
            trace.lost.push((log.rank, missing));
        }
    }
    trace
}

/// One ring event as the trace event it stands for — the one conversion.
/// A message is counted once, on its send; a wait that matched nothing is
/// `recv:timeout`; instants keep the duration they stand for (a backoff).
fn trace_event(rank: usize, ev: &FlightEvent) -> TraceEvent {
    let track = match ev.kind {
        Kind::Compute => Track::Compute,
        Kind::Arq | Kind::Control => Track::Fault,
        _ => Track::Comm,
    };
    let counters = match ev.kind {
        Kind::Compute => ev.counters(),
        Kind::Comm => Counters {
            bytes_read: ev.bytes,
            bytes_written: ev.bytes,
            ..Default::default()
        },
        Kind::Send => Counters {
            messages: 1,
            message_bytes: ev.bytes,
            ..Default::default()
        },
        _ => Counters::default(),
    };
    // A compute op's message words carry its counters.
    let word = |v: u64, none: u64| (ev.kind != Kind::Compute && v != none).then_some(v);
    let seq = word(ev.msg_seq, NO_MSG_SEQ);
    let op = match (ev.kind, seq) {
        (Kind::RecvWait, None) => "recv:timeout",
        _ => ev.op,
    };
    TraceEvent {
        rank,
        level: if ev.level == NO_LEVEL {
            LEVEL_NONE
        } else {
            ev.level as usize
        },
        op: OpId(op),
        track,
        ts_ns: ev.ts_ns,
        dur_ns: ev.dur_ns,
        counters,
        peer: word(ev.peer as u64, NO_PEER as u64).map(|p| p as usize),
        tag: word(ev.tag, NO_TAG),
        seq,
    }
}
