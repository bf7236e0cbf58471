//! Synthetic rank-log construction for simulated worlds.
//!
//! The schedule simulator (`gmg-scale`) produces *modelled* timelines
//! for tens of thousands of ranks; to analyze them it must speak the
//! same language as the real flight recorder — [`RankLog`]s whose
//! send / arrive / recv-wait events join across ranks by
//! `(src_rank, msg_seq)`. A [`SynthLog`] is a plain `Vec`-backed
//! builder producing exactly that: no seqlock, no fixed ring, but the
//! same event schema and the same honest `lost` accounting when a
//! capacity is emulated, so [`crate::rebuild_trace`] and every analysis
//! of its trace run on simulated worlds unchanged.

use gmg_trace::{FlightEvent, Kind, RankLog, NO_TAG};

/// Builder for one simulated rank's event log.
#[derive(Clone, Debug)]
pub struct SynthLog {
    rank: usize,
    /// Emulated ring capacity; `None` keeps every event.
    capacity: Option<usize>,
    written: u64,
    events: Vec<FlightEvent>,
}

impl SynthLog {
    /// Unbounded builder: every pushed event is kept.
    pub fn new(rank: usize) -> Self {
        SynthLog {
            rank,
            capacity: None,
            written: 0,
            events: Vec::new(),
        }
    }

    /// Builder emulating a fixed-capacity ring: once full, the oldest
    /// event is dropped per push and counted in `lost`, mirroring the
    /// real recorder's wrap-around semantics.
    pub fn with_capacity(rank: usize, capacity: usize) -> Self {
        SynthLog {
            rank,
            capacity: Some(capacity.max(1)),
            written: 0,
            events: Vec::new(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Events currently held (after any emulated wrap-around).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Push a fully-formed event.
    pub fn push(&mut self, ev: FlightEvent) {
        self.written += 1;
        if let Some(cap) = self.capacity {
            if self.events.len() == cap {
                self.events.remove(0);
            }
        }
        self.events.push(ev);
    }

    /// A compute span (`level`-attributed kernel of `points` points).
    pub fn compute(&mut self, op: &'static str, level: u32, ts_ns: u64, dur_ns: u64, points: u64) {
        self.push(FlightEvent {
            ts_ns,
            dur_ns,
            kind: Kind::Compute,
            op,
            level,
            bytes: points,
            ..FlightEvent::empty()
        });
    }

    /// A send post (an instant: the NIC takes over after the post).
    pub fn send(&mut self, level: u32, ts_ns: u64, peer: u32, tag: u64, msg_seq: u64, bytes: u64) {
        self.push(FlightEvent {
            ts_ns,
            dur_ns: 0,
            kind: Kind::Send,
            op: "send",
            level,
            peer,
            tag,
            msg_seq,
            bytes,
            ..FlightEvent::empty()
        });
    }

    /// A message delivery into this rank (`peer` is the *sender*).
    pub fn arrive(
        &mut self,
        level: u32,
        ts_ns: u64,
        peer: u32,
        tag: u64,
        msg_seq: u64,
        bytes: u64,
    ) {
        self.push(FlightEvent {
            ts_ns,
            dur_ns: 0,
            kind: Kind::Arrive,
            op: "arrive",
            level,
            peer,
            tag,
            msg_seq,
            bytes,
            ..FlightEvent::empty()
        });
    }

    /// A blocking receive wait for `(peer, msg_seq)` spanning
    /// `[ts_ns, ts_ns + dur_ns)`.
    pub fn recv_wait(
        &mut self,
        level: u32,
        ts_ns: u64,
        dur_ns: u64,
        peer: u32,
        tag: u64,
        msg_seq: u64,
    ) {
        self.push(FlightEvent {
            ts_ns,
            dur_ns,
            kind: Kind::RecvWait,
            op: "recv",
            level,
            peer,
            tag,
            msg_seq,
            ..FlightEvent::empty()
        });
    }

    /// ARQ activity on this rank. For sender-side ops
    /// (`"arq:retransmit"`, `"arq:backoff"`) `peer` is the destination;
    /// for receiver-side ops (`"arq:reject"`, `"arq:dedup"`) `peer` is
    /// the message's origin — matching the real recorder's keying.
    pub fn arq(&mut self, op: &'static str, ts_ns: u64, peer: u32, msg_seq: u64) {
        self.push(FlightEvent {
            ts_ns,
            dur_ns: 0,
            kind: Kind::Arq,
            op,
            peer,
            tag: NO_TAG,
            msg_seq,
            ..FlightEvent::empty()
        });
    }

    /// Finish: a [`RankLog`] indistinguishable from a snapshotted ring.
    pub fn into_log(self) -> RankLog {
        let lost = self.written - self.events.len() as u64;
        RankLog {
            rank: self.rank,
            capacity: self.capacity.unwrap_or(self.events.len()) as u64,
            written: self.written,
            lost,
            events: self.events,
        }
    }
}

/// Convenience: finish a whole world of builders, ordered by rank.
pub fn into_logs(builders: Vec<SynthLog>) -> Vec<RankLog> {
    let mut logs: Vec<RankLog> = builders.into_iter().map(SynthLog::into_log).collect();
    logs.sort_by_key(|l| l.rank);
    logs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_emulation_counts_lost() {
        let mut b = SynthLog::with_capacity(3, 2);
        for i in 0..5u64 {
            b.compute("smooth", 0, i * 10, 5, 100);
        }
        let log = b.into_log();
        assert_eq!(log.rank, 3);
        assert_eq!(log.written, 5);
        assert_eq!(log.lost, 3);
        assert_eq!(log.events.len(), 2);
        // Oldest dropped: the survivors are the last two pushes.
        assert_eq!(log.events[0].ts_ns, 30);
        assert_eq!(log.events[1].ts_ns, 40);
    }

    #[test]
    fn unbounded_log_loses_nothing() {
        let mut b = SynthLog::new(0);
        b.send(0, 1, 1, 0, 0, 8);
        b.arrive(0, 2, 1, 0, 1, 8);
        let log = b.into_log();
        assert_eq!(log.lost, 0);
        assert_eq!(log.capacity, 2);
        assert_eq!(log.written, 2);
    }
}
