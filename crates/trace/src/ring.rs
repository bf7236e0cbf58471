//! The one event store: the POD ring event every probe writes, and the
//! lock-free, fixed-capacity ring buffer a rank keeps them in.
//!
//! Design constraints (the reason a flight recorder exists at all):
//!
//! * **Always on** — recording must be cheap enough to leave enabled in
//!   every run, so the data is already there when something goes wrong.
//! * **Bounded** — fixed capacity; wrap-around overwrites the oldest
//!   events, so memory use never grows with run length.
//! * **No allocation, no locks on the hot path** — one relaxed
//!   `fetch_add` claims a slot, one CAS takes ownership, the `Copy`
//!   payload is written in place, one release store publishes it.
//! * **Crash-readable** — any thread can snapshot a ring at any moment,
//!   including while writers are live and after the owning rank died
//!   mid-operation, and sees only whole, untorn events.

use crate::capture::Counters;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Events each ring of a run (and each ring a capture hands a thread)
/// holds.
pub const RING_CAPACITY: usize = 1 << 16;

/// Sentinel: the event is not attributed to a multigrid level.
pub const NO_LEVEL: u32 = u32::MAX;
/// Sentinel: the event has no peer rank.
pub const NO_PEER: u32 = u32::MAX;
/// Sentinel: the event has no message tag.
pub const NO_TAG: u64 = u64::MAX;
/// Sentinel: the event is not associated with a wire message.
pub const NO_MSG_SEQ: u64 = u64::MAX;

/// What an event is; [`FlightEvent::op`] refines it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Kind {
    /// A timed solver op on a level (smooth, residual, restriction, …).
    Compute = 0,
    /// A comm-side interval with no message identity (pack, unpack,
    /// self-exchange); `bytes` is what it staged. Recorded only while a
    /// capture is open.
    Comm = 1,
    /// A message posted to `peer`; `msg_seq` identifies it end to end
    /// and `bytes` is its payload. Timed only while a capture is open.
    Send = 2,
    /// A blocking receive on `(peer, tag)`: `dur_ns` is the time spent
    /// waiting, `msg_seq` the delivered message (`NO_MSG_SEQ` if the wait
    /// failed).
    RecvWait = 3,
    /// A message delivered into this rank (matched or stashed).
    Arrive = 4,
    /// Reliability-layer activity for message `msg_seq` (retransmit,
    /// drop, reject, dedup); `dur_ns` carries the backoff where relevant.
    Arq = 5,
    /// Control plane: injected stall/kill, health verdicts, recoveries.
    Control = 6,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Compute => "compute",
            Kind::Comm => "comm",
            Kind::Send => "send",
            Kind::RecvWait => "recv-wait",
            Kind::Arrive => "arrive",
            Kind::Arq => "arq",
            Kind::Control => "control",
        }
    }

    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "compute" => Kind::Compute,
            "comm" => Kind::Comm,
            "send" => Kind::Send,
            "recv-wait" => Kind::RecvWait,
            "arrive" => Kind::Arrive,
            "arq" => Kind::Arq,
            "control" => Kind::Control,
            _ => return None,
        })
    }
}

/// One ring event. Plain old data, `Copy`, fixed size: the hot path
/// moves this into a preallocated slot and nothing else.
///
/// Op names are the probe's `&'static str` literals, so recording an op
/// is a pointer copy — no lookup, no allocation. A compute op has no
/// peer, tag or wire seq, so its byte / FLOP counters ride in those
/// words ([`FlightEvent::set_counters`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightEvent {
    /// Start time, nanoseconds since the process trace epoch
    /// ([`crate::epoch`]).
    pub ts_ns: u64,
    /// Duration (0 for instants unless the recorder supplied one).
    pub dur_ns: u64,
    pub kind: Kind,
    /// Refining op name, e.g. `"smooth"`, `"recv"`, `"arq:retransmit"`.
    pub op: &'static str,
    /// Multigrid level, or [`NO_LEVEL`].
    pub level: u32,
    /// Peer rank, or [`NO_PEER`].
    pub peer: u32,
    /// Message tag, or [`NO_TAG`]; a compute op's FLOPs.
    pub tag: u64,
    /// Wire sequence number joining matching send/arrive/recv events
    /// across ranks, or [`NO_MSG_SEQ`]; a compute op's bytes read.
    pub msg_seq: u64,
    /// Payload bytes of a message, bytes a comm span staged; a compute
    /// op's stencil points.
    pub bytes: u64,
    /// A compute op's bytes written (0 otherwise).
    pub bytes_written: u64,
}

impl FlightEvent {
    pub const fn empty() -> Self {
        FlightEvent {
            ts_ns: 0,
            dur_ns: 0,
            kind: Kind::Control,
            op: "",
            level: NO_LEVEL,
            peer: NO_PEER,
            tag: NO_TAG,
            msg_seq: NO_MSG_SEQ,
            bytes: 0,
            bytes_written: 0,
        }
    }

    /// End timestamp.
    pub fn end_ns(&self) -> u64 {
        self.ts_ns + self.dur_ns
    }

    /// Store a compute op's counters in the words a message would use.
    pub fn set_counters(&mut self, c: &Counters) {
        (self.bytes, self.tag) = (c.stencil_points, c.flops);
        (self.msg_seq, self.bytes_written) = (c.bytes_read, c.bytes_written);
    }

    /// A compute op's counters ([`FlightEvent::set_counters`]); an op
    /// recorded with its point count only reads as points.
    pub fn counters(&self) -> Counters {
        let word = |v: u64, unset: u64| if v == unset { 0 } else { v };
        Counters {
            stencil_points: self.bytes,
            flops: word(self.tag, NO_TAG),
            bytes_read: word(self.msg_seq, NO_MSG_SEQ),
            bytes_written: self.bytes_written,
            ..Counters::default()
        }
    }
}

/// A fixed-capacity, lock-free, single-producer-friendly (but fully
/// multi-writer-safe) event ring for one rank.
///
/// Each slot is guarded by a stamp word acting as a per-slot seqlock:
/// for claim index `i`, `2·i + 1` means "being written", `2·i + 2` means
/// "published", `0` means "never used". Writers only take a slot whose
/// stamp is even (published or empty) and older than their claim, so a
/// slot has at most one writer at a time; readers copy the payload and
/// accept it only if the stamp was identical (and even) before and after
/// the copy. A writer that finds its slot claimed by a *newer* index, or
/// still being written by a writer it lapped, abandons the event and
/// counts it in `lost()` — that requires wrapping the entire ring during
/// one store, which does not happen at sane capacities.
pub struct FlightRing {
    rank: usize,
    mask: u64,
    head: AtomicU64,
    lost: AtomicU64,
    stamps: Box<[AtomicU64]>,
    /// Left uninitialised: a slot is read only under a published stamp,
    /// so a ring costs resident memory for the events it was given, not
    /// for its capacity.
    slots: Box<[MaybeUninit<UnsafeCell<FlightEvent>>]>,
}

// SAFETY: all cross-thread access to `slots` is mediated by the per-slot
// stamp protocol above.
unsafe impl Send for FlightRing {}
unsafe impl Sync for FlightRing {}

impl FlightRing {
    /// A ring for `rank` holding `capacity` events (rounded up to a
    /// power of two, minimum 16).
    pub fn new(rank: usize, capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(16);
        let mut slots = Vec::with_capacity(cap);
        // SAFETY: `MaybeUninit` slots need no initialisation.
        unsafe { slots.set_len(cap) };
        FlightRing {
            rank,
            mask: cap as u64 - 1,
            head: AtomicU64::new(0),
            lost: AtomicU64::new(0),
            stamps: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            slots: slots.into_boxed_slice(),
        }
    }

    pub fn rank(&self) -> usize {
        self.rank
    }

    pub fn capacity(&self) -> usize {
        (self.mask + 1) as usize
    }

    /// Total events ever recorded (including those since overwritten).
    pub fn written(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events abandoned because a writer was lapped mid-claim (should be
    /// zero at sane capacities; tracked so it can never hide).
    pub fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free, allocation-free; overwrites the
    /// oldest event once the ring is full.
    pub fn record(&self, ev: FlightEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let s = (i & self.mask) as usize;
        let stamp = &self.stamps[s];
        let writing = 2 * i + 1;
        let mut cur = stamp.load(Ordering::Relaxed);
        loop {
            if cur >= writing || cur & 1 == 1 {
                // A newer claim owns this slot, or we lapped a writer
                // that is still mid-store. Dropping the event keeps the
                // single-writer-per-slot invariant (no torn slots).
                self.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Acquire on success: the payload store below must not be
            // hoisted above taking ownership.
            match stamp.compare_exchange_weak(cur, writing, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
        // SAFETY: the stamp CAS above made us the slot's sole owner
        // until the release store publishes it.
        unsafe { UnsafeCell::raw_get(self.slots[s].as_ptr()).write(ev) };
        stamp.store(writing + 1, Ordering::Release);
    }

    /// Copy out every published event the ring holds, in claim order.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.window(0, self.written())
    }

    /// Copy out the events of claims `[from, to)` the ring still holds,
    /// in claim order: a capture's window. Safe to call concurrently with
    /// writers: a slot whose stamp moved during the copy is retried, then
    /// skipped — never returned torn.
    pub fn window(&self, from: u64, to: u64) -> Vec<FlightEvent> {
        let from = from.max(to.saturating_sub(self.capacity() as u64));
        let mut out = Vec::with_capacity(to.saturating_sub(from) as usize);
        for i in from..to {
            let (s, published) = ((i & self.mask) as usize, 2 * i + 2);
            let stamp = &self.stamps[s];
            for _attempt in 0..16 {
                let s0 = stamp.load(Ordering::Acquire);
                if s0 > published {
                    break; // overwritten by a newer claim
                }
                if s0 != published {
                    std::hint::spin_loop(); // writer in flight; retry
                    continue;
                }
                // SAFETY: the stamp says claim `i` was written in full; the
                // copy is seqlock-validated — the event is only kept if no
                // writer touched the slot during the read.
                let ev =
                    unsafe { std::ptr::read_volatile(UnsafeCell::raw_get(self.slots[s].as_ptr())) };
                fence(Ordering::Acquire);
                if stamp.load(Ordering::Relaxed) == s0 {
                    out.push(ev);
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: &'static str) -> FlightEvent {
        FlightEvent {
            kind: Kind::Compute,
            op,
            ..FlightEvent::empty()
        }
    }

    /// A full ring is 65 536 of these: every word counts in a rank's
    /// resident memory.
    #[test]
    fn a_slot_is_eighty_bytes() {
        assert_eq!(std::mem::size_of::<FlightEvent>(), 80);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(FlightRing::new(0, 0).capacity(), 16);
        assert_eq!(FlightRing::new(0, 17).capacity(), 32);
        assert_eq!(FlightRing::new(0, 64).capacity(), 64);
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let r = FlightRing::new(3, 16);
        for i in 0..10u64 {
            let mut e = ev("smooth");
            e.bytes = i;
            r.record(e);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 10);
        for (i, e) in snap.iter().enumerate() {
            assert_eq!(e.bytes, i as u64);
            assert_eq!(e.op, "smooth");
        }
        assert_eq!(r.written(), 10);
        assert_eq!(r.lost(), 0);
    }

    #[test]
    fn wrap_around_keeps_the_newest_capacity_events() {
        let r = FlightRing::new(0, 16);
        for i in 0..100u64 {
            let mut e = ev("x");
            e.bytes = i;
            r.record(e);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 16);
        // The surviving events are exactly claims 84..100, in order.
        for (k, e) in snap.iter().enumerate() {
            assert_eq!(e.bytes, 84 + k as u64);
        }
        assert_eq!(r.written(), 100);
    }

    #[test]
    fn concurrent_writers_never_tear_or_exceed_capacity() {
        let r = std::sync::Arc::new(FlightRing::new(0, 64));
        let threads = 8;
        let per = 500u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    for k in 0..per {
                        let mut e = ev("w");
                        e.tag = t;
                        e.msg_seq = k;
                        // Derived field: a torn event cannot satisfy it.
                        e.bytes = t * 1_000_003 + k;
                        r.record(e);
                    }
                });
            }
        });
        assert_eq!(r.written(), threads * per);
        let snap = r.snapshot();
        assert!(snap.len() <= 64);
        let mut last = vec![None; threads as usize];
        for e in &snap {
            assert_eq!(e.bytes, e.tag * 1_000_003 + e.msg_seq, "torn event: {e:?}");
            // One writer's claims are ordered, so its events must be too.
            let prev = last[e.tag as usize].replace(e.msg_seq);
            assert!(prev < Some(e.msg_seq), "claim order violated");
        }
        // Abandoned writes are the only leak, and they are counted.
        assert!(snap.len() as u64 + r.lost() >= 64);
    }

    #[test]
    fn snapshot_during_writes_sees_only_whole_events() {
        let r = std::sync::Arc::new(FlightRing::new(0, 32));
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writer = r.clone();
            let stop_ref = &stop;
            s.spawn(move || {
                let mut k = 0u64;
                while !stop_ref.load(Ordering::Relaxed) {
                    let mut e = ev("spin");
                    e.msg_seq = k;
                    e.bytes = k.wrapping_mul(7);
                    writer.record(e);
                    k += 1;
                }
            });
            for _ in 0..200 {
                for e in r.snapshot() {
                    assert_eq!(e.bytes, e.msg_seq.wrapping_mul(7), "torn: {e:?}");
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}
