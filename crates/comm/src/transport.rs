//! The transport abstraction under the ARQ layer.
//!
//! [`crate::runtime::RankCtx`] drives one reliable protocol
//! ([`crate::reliable`]: sequence numbers, checksums, ACK + dedup,
//! bounded-backoff retransmit) over any [`Transport`]: an unreliable,
//! unordered-under-fault-injection pipe
//! that moves [`Wire`]s between ranks. Two backends exist:
//!
//! * [`ThreadTransport`] — in-process `std::sync::mpsc` channels
//!   (blocking receives that poll for [`PARK_COST`] before they park,
//!   channel disconnection maps to a transport error).
//! * [`crate::socket::SocketTransport`] — Unix-domain-socket datagrams
//!   between one OS process per rank, framed by [`crate::frame`].
//!
//! Transport errors are deliberately untyped (`()`): the ARQ layer owns
//! the typed [`crate::CommError`] vocabulary and knows which peer it was
//! talking to; the transport only knows "this pipe is gone".

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// What actually travels between ranks.
#[derive(Clone, Debug)]
pub(crate) enum Wire {
    /// A payload message. `seq` is per-sender monotone; `prev` is the
    /// `seq` of the message `src` sent to the same peer just before
    /// (`None` for its first of the epoch); `checksum` covers `(src, tag,
    /// seq, payload)`.
    Data {
        src: usize,
        tag: u64,
        seq: u64,
        prev: Option<u64>,
        checksum: u64,
        payload: Payload,
    },
    /// Acknowledges receipt of the sender's `seq`. `src` is the ACKing
    /// rank.
    Ack { src: usize, seq: u64 },
}

/// The doubles of a [`Wire::Data`].
#[derive(Clone, Debug)]
pub(crate) enum Payload {
    /// This wire is the only holder: an unreliable send (nothing is kept
    /// for retransmission) and every message a socket reassembled. Moving
    /// it costs no allocation — wrapping these in an `Arc` too meant one
    /// small block per message allocated by the sending thread and freed
    /// by the receiving one, which cost a 32³ two-thread solve 5 % and
    /// more than doubled its run-to-run spread.
    Owned(Vec<f64>),
    /// Shared, not copied, between the ARQ layer's retransmission record,
    /// a transport's send queue and fate duplicates.
    Shared(Arc<Vec<f64>>),
}

impl std::ops::Deref for Payload {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(v) => v,
        }
    }
}

impl Payload {
    /// The receiver's vector: a move unless a thread-world sender still
    /// holds the message for retransmission.
    pub(crate) fn into_vec(self) -> Vec<f64> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(v) => Arc::try_unwrap(v).unwrap_or_else(|shared| (*shared).clone()),
        }
    }
}

/// An unreliable pipe between this rank and its peers. Fault injection
/// happens *above* this layer (in `RankCtx`), on `Wire`s, so the same
/// seeded [`crate::FaultPlan`] produces the same fates on every backend.
pub(crate) trait Transport: Send {
    /// Best-effort delivery of `wire` to rank `to`. `Err(())` means the
    /// pipe to that peer is known-dead (the thread backend's channel is
    /// closed); backends where loss is silent simply return `Ok`.
    fn send(&mut self, to: usize, wire: Wire) -> Result<(), ()>;

    /// How many of the wires sent to `to` have left this rank entirely
    /// (every fragment handed to the medium or lost to it); a backend
    /// that hands wires over synchronously answers `u64::MAX`. The ARQ
    /// layer starts a message's retransmission timer only then, so time
    /// spent queued behind a full socket is not mistaken for loss.
    fn departed(&self, _to: usize) -> u64 {
        u64::MAX
    }

    /// Receive the next wire addressed to this rank.
    ///
    /// * `None` — block until a wire arrives (or the pipe dies).
    /// * `Some(Duration::ZERO)` — non-blocking poll.
    /// * `Some(d)` — block at most `d`; `Ok(None)` on timeout.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Wire>, ()>;

    /// Advance an epoch fence (membership change). Wires from older
    /// epochs are dropped by the transport; the default backend has no
    /// epochs because its ranks cannot rejoin.
    fn set_epoch(&mut self, _epoch: u64) {}

    /// Backend name for diagnostics.
    fn kind(&self) -> &'static str;
}

/// The in-process backend: one unbounded channel per rank, every rank
/// holding a sender to each inbox.
pub(crate) struct ThreadTransport {
    pub peers: Vec<Sender<Wire>>,
    pub inbox: Receiver<Wire>,
}

/// Roughly what parking a thread and waking it again costs on a
/// virtualized host (futex wait, the idle vCPU halting, an
/// inter-processor interrupt and the host rescheduling the vCPU): the
/// classic bound for polling before blocking, at most twice the optimum.
pub(crate) const PARK_COST: Duration = Duration::from_micros(50);

impl ThreadTransport {
    /// The transports of a world of `nranks` ranks, in rank order.
    pub(crate) fn world(nranks: usize) -> Vec<ThreadTransport> {
        assert!(nranks >= 1);
        let (peers, inboxes): (Vec<_>, Vec<_>) = (0..nranks).map(|_| mpsc::channel()).unzip();
        let peer = |inbox| ThreadTransport {
            peers: peers.clone(),
            inbox,
        };
        inboxes.into_iter().map(peer).collect()
    }

    /// How long a blocking receive polls the inbox before it parks, for a
    /// world of `nranks` rank threads: [`PARK_COST`] while every rank can
    /// have a core of its own, nothing once they share cores — a polling
    /// rank would then burn the time slice the sender it waits for needs.
    ///
    /// Ranks that smooth in lock-step wait for each other for
    /// microseconds, over a hundred times per 32³ solve. Parking for each
    /// of those waits (30 000 voluntary context switches per rank in a
    /// 10 s run, 3 000 with the window) cost that solve 14 % on a quiet
    /// two-vCPU guest and more on a contended one, where a halted vCPU is
    /// handed to a neighbour and every wake-up waits for the host's
    /// scheduler: its run-to-run spread was the host's, three times the
    /// spread with the window.
    pub(crate) fn poll_window(nranks: usize) -> Duration {
        // Looked up once: the answer reads cgroup files on Linux.
        static CORES: OnceLock<usize> = OnceLock::new();
        let cores =
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        if nranks <= cores {
            PARK_COST
        } else {
            Duration::ZERO
        }
    }

    /// Poll the inbox for up to `window`: a wire, a dead pipe, or
    /// `Ok(None)` when the window closed on an empty inbox.
    fn poll_inbox(&self, window: Duration) -> Result<Option<Wire>, ()> {
        let start = Instant::now();
        loop {
            match self.inbox.try_recv() {
                Ok(w) => return Ok(Some(w)),
                Err(TryRecvError::Disconnected) => return Err(()),
                Err(TryRecvError::Empty) => {}
            }
            if start.elapsed() >= window {
                return Ok(None);
            }
            std::hint::spin_loop();
        }
    }
}

impl Transport for ThreadTransport {
    fn send(&mut self, to: usize, wire: Wire) -> Result<(), ()> {
        self.peers[to].send(wire).map_err(|_| ())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Wire>, ()> {
        match timeout {
            None => match self.poll_inbox(Self::poll_window(self.peers.len()))? {
                Some(w) => Ok(Some(w)),
                None => self.inbox.recv().map(Some).map_err(|_| ()),
            },
            Some(d) if d == Duration::ZERO => match self.inbox.try_recv() {
                Ok(w) => Ok(Some(w)),
                Err(TryRecvError::Empty) => Ok(None),
                Err(TryRecvError::Disconnected) => Err(()),
            },
            Some(d) => match self.inbox.recv_timeout(d) {
                Ok(w) => Ok(Some(w)),
                Err(RecvTimeoutError::Timeout) => Ok(None),
                Err(RecvTimeoutError::Disconnected) => Err(()),
            },
        }
    }

    fn kind(&self) -> &'static str {
        "thread"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn ack(seq: u64) -> Wire {
        Wire::Ack { src: 0, seq }
    }

    #[test]
    fn poll_window_closes_once_ranks_share_cores() {
        assert_eq!(ThreadTransport::poll_window(1), PARK_COST);
        assert_eq!(ThreadTransport::poll_window(1 << 12), Duration::ZERO);
    }

    #[test]
    fn blocking_receive_polls_then_parks() {
        // A world whose ranks each have a core (polls first) and one that
        // oversubscribes any host (parks at once): a queued wire, a wire
        // that arrives long after the window closed, then a dead pipe.
        for nranks in [1, 1 << 12] {
            let (tx, inbox) = mpsc::channel();
            let mut t = ThreadTransport {
                peers: vec![tx.clone(); nranks],
                inbox,
            };
            tx.send(ack(1)).unwrap();
            assert!(matches!(t.recv(None), Ok(Some(Wire::Ack { seq: 1, .. }))));
            let late = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(ack(2)).unwrap();
            });
            assert!(matches!(t.recv(None), Ok(Some(Wire::Ack { seq: 2, .. }))));
            late.join().unwrap();
            t.peers.clear();
            assert_eq!(t.recv(None).map(|w| w.is_some()), Err(()));
        }
    }
}
