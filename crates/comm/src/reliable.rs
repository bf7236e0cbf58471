//! The reliable-delivery core: the ARQ protocol as a state machine that
//! does no IO.
//!
//! [`Reliable`] turns `(now, Input)` into [`Output`]s pushed onto a buffer
//! the caller owns and reuses. It owns sequence numbers, the unACKed
//! sends, the per-peer round-trip estimate (Jacobson/Karels under Karn's
//! rule), exponential backoff, fate-held copies, the receive windows and
//! the epoch fence. It reads no clock and moves no bytes: `now` is the
//! caller's time base — the rank runtime's monotonic clock, or a test's
//! virtual one — and every wire it wants sent comes back as an
//! [`Output::Transmit`]. [`crate::runtime::RankCtx`] is the shell that
//! reads the clock, talks to the transport and records the events.
//!
//! Without a fault plan the core passes messages straight through (no
//! checksum, no ACK, nothing kept): the in-process channels are already
//! reliable, and that is decided once, in [`Reliable::new`].
//!
//! ## Receive window
//!
//! Every data wire names its predecessor: the sequence number of the
//! message its sender sent to the same peer just before it. A receiver
//! delivers a message once its predecessor is delivered, so the messages
//! of one sender arrive in send order whatever the medium reorders —
//! MPI's non-overtaking rule — and it remembers, per peer, only the last
//! message delivered in that chain plus the copies that arrived ahead of
//! a missing predecessor. A copy at or below the chain's head, or one
//! already held, is a duplicate. Receiver state is therefore bounded by
//! the messages in flight, not by the life of the world. Sequence numbers
//! stay per sender, not per link: fault fates key on `(seed, rank, seq,
//! attempt)` and the flight recorder joins send and receive on
//! `(src, seq)`.

use std::sync::Arc;
use std::time::Duration;

use crate::fault::{checksum, flip_bit, CommError, ControlFault, FaultInjector, RetryPolicy};
use crate::transport::{Payload, Wire};

/// A received message: `(src, tag, seq, payload)`.
pub(crate) type Delivery = (usize, u64, u64, Vec<f64>);

/// What the shell feeds the core.
pub(crate) enum Input {
    /// The application sends `payload` to rank `to` under `tag`.
    AppSend {
        to: usize,
        tag: u64,
        payload: Vec<f64>,
    },
    /// A wire arrived from the medium.
    Wire(Wire),
    /// Time passed: release due fate-held copies, retransmit overdue
    /// sends.
    Tick,
}

/// What the core asks of the shell.
pub(crate) enum Output {
    /// Hand `wire` to the medium for rank `to`; it is the next wire on
    /// that link (see [`Reliable::departed`]).
    Transmit { to: usize, wire: Wire },
    /// A message for the application, in send order per sender.
    Deliver(Delivery),
    /// Something for the instrumentation.
    Event(Event),
}

/// A protocol event: `name` is its flight-ring op (`arq:*` for the
/// protocol, `fault:*` for an injected fate), `msg` the `(tag, seq)` of
/// the message it concerns, `backoff` a retransmission's timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Event {
    pub name: &'static str,
    pub peer: usize,
    pub msg: Option<(u64, u64)>,
    pub backoff: Option<Duration>,
}

fn event(name: &'static str, peer: usize, tag: u64, seq: u64) -> Output {
    Output::Event(Event {
        name,
        peer,
        msg: Some((tag, seq)),
        backoff: None,
    })
}

/// What the reliable layer of one rank has put on the wire so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArqStats {
    /// Messages handed to the reliable layer, and their payload bytes.
    pub first_sends: u64,
    pub first_send_bytes: u64,
    /// Retransmissions (every copy after a message's first), and their
    /// payload bytes.
    pub retransmits: u64,
    pub retransmit_bytes: u64,
    /// Messages retransmitted at least once.
    pub retransmitted_messages: u64,
    /// Round-trip samples taken by the per-peer estimators.
    pub rtt_samples: u64,
    /// Copies received with a bad checksum (discarded unACKed).
    pub checksum_failures: u64,
    /// Valid copies of an already-received message (ACKed, dropped).
    pub dedup_drops: u64,
}

impl std::ops::AddAssign for ArqStats {
    fn add_assign(&mut self, o: ArqStats) {
        self.first_sends += o.first_sends;
        self.first_send_bytes += o.first_send_bytes;
        self.retransmits += o.retransmits;
        self.retransmit_bytes += o.retransmit_bytes;
        self.retransmitted_messages += o.retransmitted_messages;
        self.rtt_samples += o.rtt_samples;
        self.checksum_failures += o.checksum_failures;
        self.dedup_drops += o.dedup_drops;
    }
}

/// Retransmission timeout before a peer's first round-trip sample. A
/// peer that has never answered may simply not have reached its first
/// receive yet, so this is long; [`RetryPolicy::backoff_base`] floors
/// every later timeout.
const INITIAL_RTO: Duration = Duration::from_millis(200);

/// Smoothed round-trip estimate to one peer (Jacobson/Karels, the
/// retransmission-timer estimator of RFC 6298): `rto = srtt + 4·rttvar`.
/// A "round trip" here ends when this rank *processes* the ACK, so it
/// includes the peer's time to reach a comm call — which is what a
/// retransmission has to outwait.
///
/// One departure from the textbook gains: `rttvar` rises at 1/4 but
/// falls at 1/32. The delay is bimodal (peer inside a comm call:
/// microseconds; peer computing or descheduled: milliseconds) and the
/// samples come in bursts of one exchange, so at a 1/4 decay a single
/// burst of fast ACKs forgets the slow mode just before the next slow
/// one is due. Eight oversubscribed process ranks retransmit 2.6 % of a
/// fault-free solve's messages at 1/4, 0.2 % at 1/32.
#[derive(Clone, Copy, Debug, Default)]
struct RttEstimator {
    /// `(srtt, rttvar)`; `None` until the first sample.
    est: Option<(Duration, Duration)>,
}

impl RttEstimator {
    /// Feed the round trip of a message ACKed after `transmissions`
    /// sends. Karn's rule: an ACK for a retransmitted message cannot be
    /// matched to one of its copies, so it is no sample. Returns whether
    /// the sample was taken.
    fn on_ack(&mut self, transmissions: u32, rtt: Duration) -> bool {
        if transmissions != 1 {
            return false;
        }
        self.est = Some(match self.est {
            None => (rtt, rtt / 2),
            Some((srtt, rttvar)) => {
                let err = rtt.max(srtt) - rtt.min(srtt);
                let keep = if err > rttvar { 3 } else { 31 };
                ((srtt * 7 + rtt) / 8, (rttvar * keep + err) / (keep + 1))
            }
        });
        true
    }

    fn rto(&self) -> Duration {
        self.est
            .map_or(INITIAL_RTO, |(srtt, rttvar)| srtt + rttvar * 4)
    }
}

/// An unACKed send, kept for retransmission.
struct PendingSend {
    to: usize,
    tag: u64,
    seq: u64,
    /// The message sent to `to` just before this one.
    prev: Option<u64>,
    payload: Arc<Vec<f64>>,
    /// [`checksum`] of the clean payload, computed once.
    checksum: u64,
    /// Transmissions so far.
    attempts: u32,
    /// Whether the latest transmission has left, which decides its timer.
    departure: Departure,
}

/// Where the latest copy of a [`PendingSend`] is. Only a copy that has left
/// this rank runs a retransmission timer: time spent held back locally
/// says nothing about the link or the peer.
#[derive(Clone, Copy)]
enum Departure {
    /// In [`Arq::delayed`], held back by a delaying fate.
    Held,
    /// Handed to the shell as this link's wire number `n`; it has left
    /// once [`Reliable::departed`] reports `n` wires gone.
    Queued(u64),
    /// Seen to have left at this time; the next copy is due
    /// [`Arq::timeout`] later.
    Left(Duration),
}

/// A fate-delayed wire awaiting release (models in-flight reordering).
struct DelayedWire {
    to: usize,
    wire: Wire,
    /// Released once the sender's transmission counter reaches this …
    release_at_transmission: u64,
    /// … or at this time, whichever first (so a sender that goes quiet
    /// cannot strand a delayed message forever).
    release_at_time: Duration,
}

/// The receive side of one peer's chain of messages.
#[derive(Default)]
struct Window {
    /// The last message delivered in chain order.
    head: Option<u64>,
    /// Messages that arrived ahead of a missing predecessor, with it.
    held: Vec<(Option<u64>, Delivery)>,
    /// Re-ACKs sent to this peer: each duplicate's ACK is a fresh fate
    /// draw, so a once-dropped ACK is not dropped forever.
    reacks: u32,
}

impl Window {
    fn has(&self, seq: u64) -> bool {
        self.head.is_some_and(|h| seq <= h) || self.held.iter().any(|(_, m)| m.2 == seq)
    }

    /// Deliver `msg` (whose predecessor is the head) and every held
    /// message it unblocks.
    fn deliver(&mut self, msg: Delivery, out: &mut Vec<Output>) {
        self.head = Some(msg.2);
        out.push(Output::Deliver(msg));
        while let Some(i) = self.held.iter().position(|(prev, _)| *prev == self.head) {
            let (_, next) = self.held.swap_remove(i);
            self.head = Some(next.2);
            out.push(Output::Deliver(next));
        }
    }
}

/// The ARQ state of a rank under a fault plan.
struct Arq {
    rank: usize,
    injector: FaultInjector,
    retry: RetryPolicy,
    pending: Vec<PendingSend>,
    delayed: Vec<DelayedWire>,
    rtt: Vec<RttEstimator>,
    /// Per peer: the last message sent to it, the next one's predecessor.
    last_sent: Vec<Option<u64>>,
    windows: Vec<Window>,
    /// Per link: wires handed to the shell so far.
    handed: Vec<u64>,
    stats: ArqStats,
}

/// One rank's reliable-delivery state machine.
pub(crate) struct Reliable {
    rank: usize,
    /// Next outgoing sequence number (assigned in both modes so the
    /// flight recorder can join send/recv pairs across ranks).
    next_seq: u64,
    /// `None`: pass-through, for a medium that is already reliable.
    arq: Option<Arq>,
}

impl Reliable {
    /// The core of rank `rank` in a world of `nranks`: ARQ under `faults`,
    /// pass-through without.
    pub(crate) fn new(
        rank: usize,
        nranks: usize,
        faults: Option<(FaultInjector, RetryPolicy)>,
    ) -> Self {
        let arq = faults.map(|(injector, retry)| Arq {
            rank,
            injector,
            retry,
            pending: Vec::new(),
            delayed: Vec::new(),
            rtt: vec![RttEstimator::default(); nranks],
            last_sent: vec![None; nranks],
            windows: (0..nranks).map(|_| Window::default()).collect(),
            handed: vec![0; nranks],
            stats: ArqStats::default(),
        });
        Reliable {
            rank,
            next_seq: 0,
            arq,
        }
    }

    /// The sequence number the next [`Input::AppSend`] gets.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The retransmission policy; `None` in pass-through.
    pub(crate) fn retry(&self) -> Option<RetryPolicy> {
        self.arq.as_ref().map(|a| a.retry)
    }

    /// Transmission counts (all zero in pass-through).
    pub(crate) fn stats(&self) -> ArqStats {
        self.arq
            .as_ref()
            .map_or_else(ArqStats::default, |a| a.stats)
    }

    /// The control fault (stall / kill) due at this comm-op entry.
    pub(crate) fn control(&mut self) -> (ControlFault, u64) {
        self.arq.as_mut().map_or((ControlFault::None, 0), |a| {
            (a.injector.control(), a.injector.control_ops())
        })
    }

    /// Nothing unACKed and nothing held back.
    pub(crate) fn quiet(&self) -> bool {
        self.arq
            .as_ref()
            .is_none_or(|a| a.pending.is_empty() && a.delayed.is_empty())
    }

    /// Start the timer of every handed-out copy that has left this rank,
    /// at `now`: `departed(to)` is how many of the wires handed out for
    /// `to` have left.
    pub(crate) fn departed(&mut self, now: Duration, departed: impl Fn(usize) -> u64) {
        let Some(a) = &mut self.arq else { return };
        for p in &mut a.pending {
            if matches!(p.departure, Departure::Queued(n) if n <= departed(p.to)) {
                p.departure = Departure::Left(now);
            }
        }
    }

    /// Stop retransmitting a message whose peer is gone for good.
    pub(crate) fn give_up(&mut self, to: usize, seq: u64) {
        if let Some(a) = &mut self.arq {
            a.pending.retain(|p| !(p.to == to && p.seq == seq));
        }
    }

    /// Fence off a finished epoch: in-flight sends, held copies and the
    /// receive windows all belong to the old world. Sequence numbers run
    /// on, so fates and flight joins stay unique.
    pub(crate) fn fence(&mut self) {
        if let Some(a) = &mut self.arq {
            a.pending.clear();
            a.delayed.clear();
            a.last_sent.fill(None);
            a.windows.iter_mut().for_each(|w| *w = Window::default());
        }
    }

    /// Advance the machine by one input. The only error is a send that
    /// exhausted its retransmission budget (from [`Input::Tick`]).
    pub(crate) fn handle(
        &mut self,
        now: Duration,
        input: Input,
        out: &mut Vec<Output>,
    ) -> Result<(), CommError> {
        let rank = self.rank;
        match (input, &mut self.arq) {
            (Input::AppSend { to, tag, payload }, arq) => {
                let seq = self.next_seq;
                self.next_seq += 1;
                match arq {
                    Some(a) => a.send(now, to, tag, seq, payload, out),
                    None => out.push(Output::Transmit {
                        to,
                        wire: Wire::Data {
                            src: rank,
                            tag,
                            seq,
                            prev: None,
                            checksum: 0,
                            payload: Payload::Owned(payload),
                        },
                    }),
                }
            }
            (
                Input::Wire(Wire::Data {
                    src,
                    tag,
                    seq,
                    payload,
                    ..
                }),
                None,
            ) => {
                out.push(Output::Deliver((src, tag, seq, payload.into_vec())));
            }
            (Input::Wire(w), Some(a)) => a.receive(now, w, out),
            (Input::Wire(Wire::Ack { .. }), None) | (Input::Tick, None) => {}
            (Input::Tick, Some(a)) => return a.tick(now, out),
        }
        Ok(())
    }
}

impl Arq {
    /// How long after its latest transmission left `p` is retransmitted:
    /// the peer's current round-trip timeout, floored by the policy's
    /// `backoff_base`, doubled per transmission already made. Evaluated
    /// when the timer is checked, so the first ACK from a peer at once
    /// shortens the wait of everything else in flight to it.
    fn timeout(&self, p: &PendingSend) -> Duration {
        let rto = self.rtt[p.to].rto().max(self.retry.backoff_base);
        rto * 2u32.saturating_pow((p.attempts - 1).min(16))
    }

    /// Hand `wire` out as the next wire on the link to `to`.
    fn emit(&mut self, to: usize, wire: Wire, out: &mut Vec<Output>) -> u64 {
        self.handed[to] += 1;
        out.push(Output::Transmit { to, wire });
        self.handed[to]
    }

    fn send(
        &mut self,
        now: Duration,
        to: usize,
        tag: u64,
        seq: u64,
        payload: Vec<f64>,
        out: &mut Vec<Output>,
    ) {
        self.stats.first_sends += 1;
        self.stats.first_send_bytes += (payload.len() * 8) as u64;
        self.pending.push(PendingSend {
            to,
            tag,
            seq,
            prev: self.last_sent[to].replace(seq),
            checksum: checksum(self.rank, tag, seq, &payload),
            payload: Arc::new(payload),
            attempts: 0,
            departure: Departure::Held,
        });
        self.transmit(now, self.pending.len() - 1, out);
    }

    /// One (re)transmission of `pending[idx]`, with its injected fate
    /// applied.
    fn transmit(&mut self, now: Duration, idx: usize, out: &mut Vec<Output>) {
        let p = &mut self.pending[idx];
        p.attempts += 1;
        // The timer starts now (a copy dropped by its fate has "left")
        // unless the copy turns out to be held back, by its fate or in the
        // shell's backlog.
        p.departure = Departure::Left(now);
        let (to, tag, seq, prev, attempt) = (p.to, p.tag, p.seq, p.prev, p.attempts - 1);
        if attempt > 0 {
            let backoff = self.timeout(&self.pending[idx]);
            self.stats.retransmits += 1;
            self.stats.retransmit_bytes += (self.pending[idx].payload.len() * 8) as u64;
            self.stats.retransmitted_messages += u64::from(attempt == 1);
            out.push(Output::Event(Event {
                name: "arq:retransmit",
                peer: to,
                msg: Some((tag, seq)),
                backoff: Some(backoff),
            }));
        }
        let fate = self.injector.fate(seq, attempt);
        if fate.drop {
            out.push(event("arq:drop", to, tag, seq));
            return;
        }
        // The clean path shares the pending payload and its checksum;
        // only a corrupting fate pays for a private copy.
        let mut payload = Arc::clone(&self.pending[idx].payload);
        let mut cs = self.pending[idx].checksum;
        if fate.sdc || fate.corrupt {
            let private: &mut Vec<f64> = Arc::make_mut(&mut payload);
            flip_bit(private, fate.entropy);
            if fate.sdc {
                // Silent data corruption: the checksum is recomputed over
                // the flipped payload, so only solver-level health guards
                // can see it.
                cs = checksum(self.rank, tag, seq, &payload);
                out.push(event("fault:sdc", to, tag, seq));
            } else {
                out.push(event("fault:corrupt", to, tag, seq));
            }
        }
        let wire = Wire::Data {
            src: self.rank,
            tag,
            seq,
            prev,
            checksum: cs,
            payload: Payload::Shared(payload),
        };
        if fate.duplicates > 0 {
            out.push(event("fault:dup", to, tag, seq));
        }
        for _ in 0..1 + fate.duplicates {
            self.pending[idx].departure = if fate.delay_slots > 0 {
                out.push(event("fault:delay", to, tag, seq));
                self.delayed.push(DelayedWire {
                    to,
                    wire: wire.clone(),
                    release_at_transmission: self.injector.transmissions()
                        + fate.delay_slots as u64,
                    release_at_time: now + self.retry.backoff_base * (fate.delay_slots + 1),
                });
                Departure::Held
            } else {
                Departure::Queued(self.emit(to, wire.clone(), out))
            };
        }
    }

    /// Release due delayed wires, then retransmit overdue unACKed sends.
    fn tick(&mut self, now: Duration, out: &mut Vec<Output>) -> Result<(), CommError> {
        let tx = self.injector.transmissions();
        let mut i = 0;
        while i < self.delayed.len() {
            let d = &self.delayed[i];
            if tx < d.release_at_transmission && now < d.release_at_time {
                i += 1;
                continue;
            }
            let d = self.delayed.swap_remove(i);
            let Wire::Data { seq, .. } = d.wire else {
                unreachable!("only payload wires are delayed")
            };
            let n = self.emit(d.to, d.wire, out);
            // The held copy leaves now: that starts its message's timer,
            // if the message is still waiting for one.
            if let Some(p) = self
                .pending
                .iter_mut()
                .find(|p| p.to == d.to && p.seq == seq && matches!(p.departure, Departure::Held))
            {
                p.departure = Departure::Queued(n);
            }
        }
        for i in 0..self.pending.len() {
            let p = &self.pending[i];
            let Departure::Left(sent_at) = p.departure else {
                continue;
            };
            if now.saturating_sub(sent_at) >= self.timeout(p) {
                if p.attempts >= self.retry.max_attempts {
                    return Err(CommError::RetriesExhausted {
                        to: p.to,
                        tag: p.tag,
                        seq: p.seq,
                        attempts: p.attempts,
                    });
                }
                self.transmit(now, i, out);
            }
        }
        Ok(())
    }

    /// One wire from the medium: an ACK retires its send; a valid data
    /// copy is ACKed and then delivered, held or dropped as a duplicate.
    fn receive(&mut self, now: Duration, w: Wire, out: &mut Vec<Output>) {
        let (src, tag, seq, prev, cs, payload) = match w {
            Wire::Ack { src, seq } => {
                // A duplicate or stale ACK finds nothing.
                let Some(pos) = self
                    .pending
                    .iter()
                    .position(|p| p.to == src && p.seq == seq)
                else {
                    return;
                };
                let p = self.pending.swap_remove(pos);
                // No sample without a departure time: the ACK beat the
                // shell's report that the copy left.
                if let Departure::Left(sent_at) = p.departure {
                    let taken = self.rtt[src].on_ack(p.attempts, now.saturating_sub(sent_at));
                    self.stats.rtt_samples += u64::from(taken);
                }
                return;
            }
            Wire::Data {
                src,
                tag,
                seq,
                prev,
                checksum,
                payload,
            } => (src, tag, seq, prev, checksum, payload),
        };
        if checksum(src, tag, seq, &payload) != cs {
            // Discard without ACK: the sender's timer retransmits a clean
            // copy.
            self.stats.checksum_failures += 1;
            out.push(event("arq:reject", src, tag, seq));
            return;
        }
        // ACK every valid copy, duplicates included — a duplicate usually
        // means our previous ACK was lost in flight.
        let window = &mut self.windows[src];
        let dup = window.has(seq);
        let attempt = if dup {
            window.reacks += 1;
            window.reacks
        } else {
            0
        };
        if self.injector.ack_dropped(src, seq, attempt) {
            // No `seq`: it is the peer's, and the wait-state analysis keys
            // sender-side ARQ activity by this rank.
            out.push(Output::Event(Event {
                name: "arq:ack-drop",
                peer: src,
                msg: None,
                backoff: None,
            }));
        } else {
            self.emit(
                src,
                Wire::Ack {
                    src: self.rank,
                    seq,
                },
                out,
            );
        }
        let window = &mut self.windows[src];
        if dup {
            self.stats.dedup_drops += 1;
            out.push(event("arq:dedup", src, tag, seq));
        } else if prev == window.head {
            window.deliver((src, tag, seq, payload.into_vec()), out);
        } else {
            window
                .held
                .push((prev, (src, tag, seq, payload.into_vec())));
        }
    }
}

#[cfg(test)]
mod tests {
    //! The real core, driven by a seeded in-memory medium on a virtual
    //! clock: no sleeps, no threads, every schedule replayable from its
    //! seed.

    use super::*;
    use crate::fault::{mix, FaultConfig, FaultPlan, FaultRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    impl Reliable {
        /// The earliest time a [`Input::Tick`] has work: a held copy's
        /// release or a retransmission timer.
        fn deadline(&self) -> Option<Duration> {
            let a = self.arq.as_ref()?;
            let release = a.delayed.iter().map(|d| d.release_at_time);
            let timers = a.pending.iter().filter_map(|p| match p.departure {
                Departure::Left(at) => Some(at + a.timeout(p)),
                _ => None,
            });
            release.chain(timers).min()
        }

        /// Messages held for `peer` ahead of a missing predecessor.
        fn held(&self, peer: usize) -> usize {
            self.arq.as_ref().map_or(0, |a| a.windows[peer].held.len())
        }
    }

    const MS: Duration = Duration::from_millis(1);
    const US: Duration = Duration::from_micros(1);

    enum Ev {
        /// A wire reaches rank `to`, stamped with its sender's epoch.
        Arrive {
            to: usize,
            epoch: u64,
            wire: Wire,
        },
        /// `count` wires from `from` to `to` have left `from`.
        Depart {
            from: usize,
            to: usize,
            count: u64,
        },
        Tick(usize),
        Send {
            from: usize,
            to: usize,
            tag: u64,
            payload: Vec<f64>,
        },
        Kill(usize),
        /// Every rank fences into the next epoch; `restart` comes back as
        /// a fresh process (sequence numbers from 0).
        Fence {
            restart: usize,
        },
    }

    /// The medium and the ranks' cores.
    struct Sim {
        now: Duration,
        cores: Vec<Reliable>,
        plan: FaultPlan,
        /// `(time, timers last, order)`: at equal times a rank takes its
        /// inbound wires before its timers, as the shell's pump does.
        queue: BinaryHeap<Reverse<(Duration, bool, usize)>>,
        evs: Vec<Option<Ev>>,
        rng: FaultRng,
        /// Per-wire latency is uniform in `latency.0 + [0, latency.1)`.
        latency: (Duration, Duration),
        /// Time a link needs per payload double (0: departs at once).
        per_double: Duration,
        link_free: Vec<Vec<Duration>>,
        handed: Vec<Vec<u64>>,
        epoch: Vec<u64>,
        dead: Vec<bool>,
        /// Both directions between `cut.0` and `cut.1` drop every wire
        /// during `cut.2`.
        cut: Option<(usize, usize, std::ops::Range<Duration>)>,
        /// A rank computing (not in a comm call) takes no input before this.
        busy_until: Vec<Duration>,
        /// Each rank's one scheduled timer tick.
        next_tick: Vec<Option<Duration>>,
        /// Sends that exhausted their retries: `(rank, to, seq)`.
        exhausted: Vec<(usize, usize, u64)>,
        out: Vec<Output>,
    }

    impl Sim {
        fn new(nranks: usize, plan: FaultPlan, seed: u64) -> Sim {
            Sim {
                now: Duration::ZERO,
                cores: (0..nranks).map(|r| Self::core(&plan, nranks, r)).collect(),
                plan,
                queue: BinaryHeap::new(),
                evs: Vec::new(),
                rng: FaultRng::new(mix(&[seed, 0x5133])),
                latency: (5 * US, Duration::ZERO),
                per_double: Duration::ZERO,
                link_free: vec![vec![Duration::ZERO; nranks]; nranks],
                handed: vec![vec![0; nranks]; nranks],
                epoch: vec![0; nranks],
                dead: vec![false; nranks],
                cut: None,
                busy_until: vec![Duration::ZERO; nranks],
                next_tick: vec![None; nranks],
                exhausted: Vec::new(),
                out: Vec::new(),
            }
        }

        fn core(plan: &FaultPlan, nranks: usize, rank: usize) -> Reliable {
            Reliable::new(rank, nranks, Some((plan.injector(rank), plan.retry)))
        }

        fn at(&mut self, t: Duration, ev: Ev) {
            self.queue
                .push(Reverse((t, matches!(ev, Ev::Tick(_)), self.evs.len())));
            self.evs.push(Some(ev));
        }

        /// Rank `from` sends now (an application reacting to a delivery).
        fn send(&mut self, from: usize, to: usize, tag: u64, payload: Vec<f64>) {
            self.input(from, Input::AppSend { to, tag, payload }, &mut Vec::new());
        }

        /// Feed rank `r` one input and carry out its outputs; deliveries
        /// go to `got`.
        fn input(&mut self, r: usize, input: Input, got: &mut Vec<(usize, Delivery)>) {
            let mut res = self.cores[r].handle(self.now, input, &mut self.out);
            loop {
                for o in std::mem::take(&mut self.out) {
                    match o {
                        Output::Transmit { to, wire } => self.transmit(r, to, wire),
                        Output::Deliver(m) => got.push((r, m)),
                        Output::Event(_) => {}
                    }
                }
                match res {
                    Err(CommError::RetriesExhausted { to, seq, .. }) => {
                        self.exhausted.push((r, to, seq));
                        self.cores[r].give_up(to, seq);
                        res = self.cores[r].handle(self.now, Input::Tick, &mut self.out);
                    }
                    Err(e) => panic!("unexpected {e}"),
                    Ok(()) => break,
                }
            }
            if let Some(t) = self.cores[r].deadline().map(|t| t.max(self.now)) {
                if self.next_tick[r].is_none_or(|n| t < n) {
                    self.next_tick[r] = Some(t);
                    self.at(t, Ev::Tick(r));
                }
            }
        }

        fn transmit(&mut self, from: usize, to: usize, wire: Wire) {
            self.handed[from][to] += 1;
            let count = self.handed[from][to];
            let size = match &wire {
                Wire::Data { payload, .. } => payload.len() as u32,
                Wire::Ack { .. } => 0,
            };
            let left = self.link_free[from][to].max(self.now) + self.per_double * size;
            self.link_free[from][to] = left;
            if left == self.now && self.busy_until[to] <= self.now {
                self.cores[from].departed(self.now, |p| if p == to { count } else { 0 });
            } else {
                self.at(left, Ev::Depart { from, to, count });
            }
            let jitter = self.rng.below(self.latency.1.as_nanos() as u64);
            let epoch = self.epoch[from];
            let t = left + self.latency.0 + Duration::from_nanos(jitter);
            self.at(t, Ev::Arrive { to, epoch, wire });
        }

        fn cut(&self, a: usize, b: usize, t: Duration) -> bool {
            self.cut.as_ref().is_some_and(
                |(x, y, when)| { (a, b) == (*x, *y) || (a, b) == (*y, *x) } && when.contains(&t),
            )
        }

        /// Run until nothing is left to do, handing every delivery to
        /// `app`.
        fn run(&mut self, mut app: impl FnMut(&mut Sim, usize, Delivery)) {
            let mut got = Vec::new();
            while let Some(Reverse((t, _, i))) = self.queue.pop() {
                self.now = t;
                let ev = self.evs[i].take().expect("each event runs once");
                let r = match &ev {
                    Ev::Arrive { to, .. } => *to,
                    Ev::Depart { from, .. } => *from,
                    Ev::Tick(r) | Ev::Kill(r) => *r,
                    Ev::Send { from, .. } => *from,
                    Ev::Fence { .. } => 0,
                };
                if self.dead[r] && !matches!(ev, Ev::Fence { .. }) {
                    continue;
                }
                // A link drains while its rank computes; all else waits.
                let waits = !matches!(ev, Ev::Depart { .. } | Ev::Kill(_) | Ev::Fence { .. });
                if self.busy_until[r] > t && waits {
                    // Computing: the event waits for the rank's next comm
                    // call.
                    if matches!(ev, Ev::Tick(_)) && self.next_tick[r] == Some(t) {
                        self.next_tick[r] = Some(self.busy_until[r]);
                    }
                    self.at(self.busy_until[r], ev);
                    continue;
                }
                match ev {
                    Ev::Arrive { to, epoch, wire } => {
                        let from = match &wire {
                            Wire::Data { src, .. } | Wire::Ack { src, .. } => *src,
                        };
                        // The transport's epoch fence, and the partition.
                        if epoch < self.epoch[to] || self.cut(from, to, t) {
                            continue;
                        }
                        self.input(to, Input::Wire(wire), &mut got);
                        // The shell pumps its timers after every wire.
                        self.input(to, Input::Tick, &mut got);
                    }
                    Ev::Depart { from, to, count } => {
                        if self.busy_until[to] > t {
                            // A receiver that is computing reads nothing:
                            // the wire waits in the sender's backlog.
                            self.at(self.busy_until[to], Ev::Depart { from, to, count });
                        } else {
                            self.cores[from].departed(t, |p| if p == to { count } else { 0 });
                        }
                    }
                    Ev::Tick(r) => {
                        // Only the latest scheduled tick is live.
                        if self.next_tick[r] == Some(t) {
                            self.next_tick[r] = None;
                            self.input(r, Input::Tick, &mut got);
                        }
                    }
                    Ev::Send {
                        from,
                        to,
                        tag,
                        payload,
                    } => self.input(from, Input::AppSend { to, tag, payload }, &mut got),
                    Ev::Kill(r) => self.dead[r] = true,
                    Ev::Fence { restart } => {
                        for r in 0..self.cores.len() {
                            self.epoch[r] += 1;
                            self.cores[r].fence();
                        }
                        self.cores[restart] = Self::core(&self.plan, self.cores.len(), restart);
                        self.dead[restart] = false;
                    }
                }
                for (r, m) in got.drain(..) {
                    app(self, r, m);
                }
            }
        }
    }

    /// Payload of message `idx` from `src` in `epoch`.
    fn body(src: usize, idx: usize, epoch: u64) -> Vec<f64> {
        vec![src as f64, idx as f64, epoch as f64]
    }

    /// What one seeded schedule does.
    struct Schedule {
        nranks: usize,
        /// Per message: `(from, to, tag)`, in send order.
        msgs: Vec<(usize, usize, u64)>,
        kill: Option<(usize, Duration)>,
        fence: Option<(usize, Duration)>,
    }

    /// Build and run schedule `seed`, then check it. Returns the number
    /// of messages delivered.
    fn run_schedule(seed: u64) -> usize {
        let mut rng = FaultRng::new(mix(&[seed, 0x5C4E]));
        let nranks = 2 + rng.below(7) as usize;
        let rate = |rng: &mut FaultRng| rng.below(26) as f64 / 100.0;
        let config = FaultConfig {
            drop_rate: rate(&mut rng),
            duplicate_rate: rate(&mut rng),
            delay_rate: rate(&mut rng),
            max_delay_slots: 1 + rng.below(4) as u32,
            corrupt_rate: rate(&mut rng),
            ..Default::default()
        };
        let mut plan = FaultPlan::new(config, seed);
        // Fair loss: a message's round trip fails with probability below
        // ½, so 40 attempts all failing is below 10⁻¹².
        plan.retry.max_attempts = 40;
        let mut sim = Sim::new(nranks, plan, seed);
        sim.latency = (
            5 * US,
            [Duration::ZERO, 50 * US, 2 * MS][rng.below(3) as usize],
        );
        let nmsgs = 1 + rng.below(3 * nranks as u64) as usize;
        let mut s = Schedule {
            nranks,
            msgs: Vec::with_capacity(nmsgs),
            kill: None,
            fence: None,
        };
        for _ in 0..nmsgs {
            let from = rng.below(nranks as u64) as usize;
            let to = (from + 1 + rng.below(nranks as u64 - 1) as usize) % nranks;
            // Few tags, so that same-tag messages between a pair are common.
            s.msgs.push((from, to, rng.below(3)));
        }
        match rng.below(8) {
            0 => {
                s.kill = Some((
                    rng.below(nranks as u64) as usize,
                    US * rng.below(400) as u32,
                ))
            }
            1 => {
                let (a, b) = (
                    rng.below(nranks as u64) as usize,
                    rng.below(nranks as u64) as usize,
                );
                let start = US * rng.below(300) as u32;
                sim.cut = Some((a, b, start..start + MS * rng.below(50) as u32));
            }
            2 => {
                // After the first epoch's last send.
                let t = US * (300 + rng.below(400) as u32);
                s.fence = Some((rng.below(nranks as u64) as usize, t));
            }
            _ => {}
        }
        // Sends in index order, at random times.
        let mut times: Vec<u32> = s.msgs.iter().map(|_| rng.below(300) as u32).collect();
        times.sort_unstable();
        for (i, &(from, to, tag)) in s.msgs.iter().enumerate() {
            sim.at(
                US * times[i],
                Ev::Send {
                    from,
                    to,
                    tag,
                    payload: body(from, i, 0),
                },
            );
        }
        if let Some((k, t)) = s.kill {
            sim.at(t, Ev::Kill(k));
        }
        if let Some((restart, t)) = s.fence {
            sim.at(t, Ev::Fence { restart });
            // The new epoch repeats the traffic.
            for (i, &(from, to, tag)) in s.msgs.iter().enumerate() {
                sim.at(
                    t + US * times[i],
                    Ev::Send {
                        from,
                        to,
                        tag,
                        payload: body(from, i, 1),
                    },
                );
            }
        }
        check(seed, &s, sim)
    }

    fn check(seed: u64, s: &Schedule, mut sim: Sim) -> usize {
        let n = s.nranks;
        // Per receiver, in delivery order: (src, tag, idx, epoch).
        let mut log: Vec<Vec<(usize, u64, usize, u64)>> = vec![Vec::new(); n];
        let mut sent_to = vec![vec![0usize; n]; n];
        for &(from, to, _) in &s.msgs {
            sent_to[from][to] += 1;
        }
        let fence_at = s.fence.map(|(_, t)| t);
        let mut delivered_from = vec![vec![0usize; n]; n];
        sim.run(|sim, r, (src, tag, _, p)| {
            let (from, idx, epoch) = (p[0] as usize, p[1] as usize, p[2] as u64);
            assert_eq!(
                (from, tag),
                (src, s.msgs[idx].2),
                "seed {seed}: payload mismatch"
            );
            assert_eq!(s.msgs[idx].1, r, "seed {seed}: delivered to the wrong rank");
            if fence_at.is_some_and(|t| sim.now >= t) {
                assert_eq!(
                    epoch, 1,
                    "seed {seed}: an old-epoch message crossed the fence"
                );
            }
            log[r].push((src, tag, idx, epoch));
            delivered_from[r][src] += 1;
            // Receiver state is bounded by what is in flight to it.
            let in_flight = sent_to[src][r] * (1 + fence_at.is_some() as usize);
            assert!(
                sim.cores[r].held(src) <= in_flight - delivered_from[r][src].min(in_flight),
                "seed {seed}: rank {r} holds more from {src} than is in flight"
            );
        });
        let killed = s.kill.map(|(k, _)| k);
        for (r, got) in log.iter().enumerate() {
            // Exactly once, and in send order per (peer, tag) within an
            // epoch.
            let mut seen = std::collections::HashSet::new();
            for &(src, tag, idx, epoch) in got {
                assert!(
                    seen.insert((idx, epoch)),
                    "seed {seed}: rank {r} got message {idx} twice"
                );
                let later = got.iter().filter(|m| (m.0, m.1, m.3) == (src, tag, epoch));
                let order: Vec<usize> = later.map(|m| m.2).collect();
                assert!(
                    order.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed}: overtaking at rank {r}: {order:?}"
                );
            }
            // Progress: every message between live ranks arrives, in the
            // last epoch at least.
            let last = u64::from(s.fence.is_some());
            for (i, &(from, to, _)) in s.msgs.iter().enumerate() {
                if to == r && killed.is_none_or(|k| k != from && k != to) {
                    assert!(
                        seen.contains(&(i, last)),
                        "seed {seed}: message {i} ({from} → {to}) never arrived"
                    );
                }
            }
        }
        for (r, core) in sim.cores.iter().enumerate() {
            if killed != Some(r) {
                // Sends to a dead rank retry until the shell's deadline.
                let a = core.arq.as_ref().unwrap();
                let waits_on_dead = a.pending.iter().all(|p| Some(p.to) == killed);
                assert!(
                    waits_on_dead && a.delayed.is_empty(),
                    "seed {seed}: rank {r} still has work"
                );
                // Held copies wait on a missing predecessor, which only a dead
                // rank never resends.
                let live = (0..n).filter(|&p| Some(p) != killed);
                assert!(
                    live.into_iter().all(|p| core.held(p) == 0),
                    "seed {seed}: rank {r} holds messages"
                );
            }
        }
        if let Some(k) = killed {
            // A live sender gives up on the dead rank, never on another.
            assert!(
                sim.exhausted.iter().all(|&(r, to, _)| to == k || r == k),
                "seed {seed}"
            );
        } else {
            assert!(sim.exhausted.is_empty(), "seed {seed}: {:?}", sim.exhausted);
        }
        log.iter().map(Vec::len).sum()
    }

    /// The sweep: drop / duplicate / reorder / corrupt / delay at up to
    /// 25 % each, kills, partitions and epoch fences, over 2–8 ranks. A
    /// failing schedule names its seed; `run_schedule(seed)` replays it.
    #[test]
    fn virtual_time_schedule_sweep() {
        let schedules: u64 = if cfg!(debug_assertions) {
            10_000
        } else {
            100_000
        };
        let start = std::time::Instant::now();
        let delivered: usize = std::thread::scope(|s| {
            let half =
                |lo: u64, hi: u64| s.spawn(move || (lo..hi).map(run_schedule).sum::<usize>());
            let a = half(0, schedules / 2);
            let b = half(schedules / 2, schedules);
            a.join().unwrap() + b.join().unwrap()
        });
        println!(
            "virtual-time sweep: {schedules} schedules, {delivered} messages delivered, {:.2} s",
            start.elapsed().as_secs_f64()
        );
    }

    /// The bug in `seen: HashSet<(src, seq)>`: one entry per message for
    /// the life of a world. Under loss, a receiver's state follows what is
    /// in flight and is empty once the stream is delivered.
    #[test]
    fn receiver_state_is_bounded_by_the_messages_in_flight() {
        const MSGS: usize = 100_000;
        let mut sim = Sim::new(2, FaultPlan::new(FaultConfig::lossy(0.05), 9), 9);
        sim.latency = (5 * US, 50 * US);
        for i in 0..MSGS {
            sim.at(
                i as u32 * 10 * US,
                Ev::Send {
                    from: 0,
                    to: 1,
                    tag: 7,
                    payload: body(0, i, 0),
                },
            );
        }
        let (mut next, mut most) = (0, 0);
        sim.run(|sim, r, m| {
            assert_eq!((r, m.3[1] as usize), (1, next), "in order, once");
            next += 1;
            most = most.max(sim.cores[1].held(0));
        });
        assert_eq!(next, MSGS);
        assert_eq!(sim.cores[1].held(0), 0);
        // Held copies wait one retransmission timeout at most: a few
        // hundred messages at this rate, not a hundred thousand.
        assert!(most < 1000, "held {most}");
    }

    /// A peer slow to reach its receive is not a lossy link. Fault-free,
    /// (almost) nothing may be sent twice — not while a burst of big
    /// messages waits out a slow link, and not while the receiver computes
    /// through fifty first-retry delays.
    #[test]
    fn slow_receiver_behind_a_send_backlog_is_not_retransmitted_to() {
        const ROUNDS: u64 = 10;
        const BURST: u64 = 5;
        const BIG: usize = 8 * crate::frame::MAX_FRAGMENT_DOUBLES;
        let mut sim = Sim::new(2, FaultPlan::new(FaultConfig::default(), 1), 1);
        // A burst waits in the sender's backlog while the receiver
        // computes, and then takes 2 ms to leave.
        sim.per_double = Duration::from_nanos(8);
        sim.busy_until[1] = 50 * MS;
        for t in 0..BURST {
            sim.send(0, 1, t, vec![0.0; BIG]);
        }
        let mut replies = 0;
        sim.run(|sim, r, (_, tag, _, _)| {
            if r == 1 {
                sim.send(1, 0, 1000 + tag, vec![tag as f64]);
                if tag % BURST == BURST - 1 {
                    // The round is answered; compute for 50 ms.
                    sim.busy_until[1] = sim.now + 50 * MS;
                }
            } else {
                replies += 1;
                if replies % BURST == 0 && replies < ROUNDS * BURST {
                    for t in replies..replies + BURST {
                        sim.send(0, 1, t, vec![0.0; BIG]);
                    }
                }
            }
        });
        assert_eq!(replies, ROUNDS * BURST);
        let (a, b) = (sim.cores[0].stats(), sim.cores[1].stats());
        let sent = a.first_sends + b.first_sends;
        let resent = a.retransmits + b.retransmits;
        assert_eq!(sent, 2 * ROUNDS * BURST);
        assert!(
            resent * 100 <= sent,
            "{resent} retransmissions of {sent}: {a:?} {b:?}"
        );
        assert!(a.rtt_samples > 0 && b.rtt_samples > 0, "{a:?} {b:?}");
    }

    /// Without a fault plan the core keeps nothing: a send is one clean
    /// wire, an arriving wire one delivery.
    #[test]
    fn pass_through_keeps_no_state() {
        let mut core = Reliable::new(0, 2, None);
        let mut out = Vec::new();
        core.handle(
            Duration::ZERO,
            Input::AppSend {
                to: 1,
                tag: 3,
                payload: vec![1.0],
            },
            &mut out,
        )
        .unwrap();
        let Some(Output::Transmit { to: 1, wire }) = out.pop() else {
            panic!("one transmit")
        };
        assert!(matches!(
            wire,
            Wire::Data {
                seq: 0,
                prev: None,
                checksum: 0,
                ..
            }
        ));
        core.handle(Duration::ZERO, Input::Wire(wire), &mut out)
            .unwrap();
        assert!(matches!(out.as_slice(), [Output::Deliver((0, 3, 0, p))] if p == &[1.0]));
        assert!(core.quiet() && core.retry().is_none() && core.next_seq() == 1);
    }

    #[test]
    fn rtt_estimator_follows_jacobson_karels_and_karns_rule() {
        let ms = Duration::from_millis;
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(), INITIAL_RTO);
        // Karn: the ACK of a retransmitted message is no sample.
        assert!(!e.on_ack(2, ms(5)));
        assert_eq!(e.rto(), INITIAL_RTO);
        // First sample: srtt = R, rttvar = R/2, rto = srtt + 4·rttvar.
        assert!(e.on_ack(1, ms(8)));
        assert_eq!(e.est, Some((ms(8), ms(4))));
        assert_eq!(e.rto(), ms(24));
        // Then srtt moves by 1/8 and a larger deviation (taken against
        // the old srtt) raises rttvar by 1/4 …
        assert!(e.on_ack(1, ms(16)));
        assert_eq!(e.est, Some((ms(9), ms(5))));
        assert!(!e.on_ack(3, ms(500)));
        assert_eq!(e.est, Some((ms(9), ms(5))));
        // … while a smaller one lowers it by 1/32 only, so it takes a
        // long calm stretch to pull the timeout in.
        assert!(e.on_ack(1, ms(9)));
        assert_eq!(e.est, Some((ms(9), ms(5) * 31 / 32)));
        for _ in 0..256 {
            e.on_ack(1, ms(9));
        }
        assert!(e.rto() < ms(10), "{:?}", e.rto());
    }
}
