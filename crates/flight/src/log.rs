//! A rank's ring as data, and the rings as one [`Trace`].
//!
//! A [`RankLog`] is what a snapshot, a dump or the simulator's
//! [`crate::synth`] builder hands on: one rank's validated events plus
//! its ring health. [`rebuild_trace`] turns a world of them into the
//! `gmg_trace::Trace` every analysis reads — the critical path, the wait
//! classifier (`gmg_metrics::analysis::classify_waits`) and the Perfetto
//! export — so a flight dump and a live capture are read the same way.

use gmg_trace::{Counters, OpId, Trace, TraceEvent, Track, LEVEL_NONE};

use crate::ring::{EventKind, FlightEvent, NO_LEVEL, NO_MSG_SEQ, NO_PEER, NO_TAG};

/// One rank's snapshotted ring plus its health counters.
#[derive(Clone, Debug)]
pub struct RankLog {
    pub rank: usize,
    pub capacity: u64,
    pub written: u64,
    pub lost: u64,
    pub events: Vec<FlightEvent>,
}

/// The rings as one merged distributed [`Trace`], so the trace analysis
/// and the Perfetto exporter read flight data: compute ops on the compute
/// track, the three sides of a message on the comm track (each with its
/// wire `seq`, which [`Trace::messages`] joins by), ARQ and control
/// instants on the fault track.
///
/// Events come log by log, each log's in `(ts, dur)` order (ties in ring
/// order): every analysis reads one rank's timeline at a time, and a
/// world-wide time sort would only shuffle a 10k-rank trace's millions
/// of events across memory.
pub fn rebuild_trace(logs: &[RankLog]) -> Trace {
    let mut events = Vec::with_capacity(logs.iter().map(|l| l.events.len()).sum());
    for log in logs {
        let mut ring: Vec<&FlightEvent> = log.events.iter().collect();
        ring.sort_by_key(|e| (e.ts_ns, e.dur_ns));
        events.extend(ring.into_iter().map(|e| trace_event(log.rank, e)));
    }
    Trace { events }
}

/// One ring event as the trace event [`rebuild_trace`] makes of it.
fn trace_event(rank: usize, ev: &FlightEvent) -> TraceEvent {
    let (op, track, counters) = match ev.kind {
        EventKind::Compute => (
            ev.op,
            Track::Compute,
            Counters {
                stencil_points: ev.bytes,
                ..Default::default()
            },
        ),
        EventKind::Send => (
            "send",
            Track::Comm,
            Counters {
                messages: 1,
                message_bytes: ev.bytes,
                ..Default::default()
            },
        ),
        EventKind::RecvWait => (ev.op, Track::Comm, Counters::default()),
        EventKind::MsgArrive => (
            "arrive",
            Track::Comm,
            Counters {
                message_bytes: ev.bytes,
                ..Default::default()
            },
        ),
        EventKind::Arq | EventKind::Control => (ev.op, Track::Fault, Counters::default()),
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
        peer: (ev.peer != NO_PEER).then_some(ev.peer as usize),
        tag: (ev.tag != NO_TAG).then_some(ev.tag),
        seq: (ev.msg_seq != NO_MSG_SEQ).then_some(ev.msg_seq),
    }
}
