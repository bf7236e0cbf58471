//! Datagram socket transport: one OS process (or thread, in tests) per
//! rank, talking [`crate::frame`]-encoded messages.
//!
//! The wire is Unix-domain datagram sockets: each rank binds
//! `d<rank>.sock` in the world directory; a send is one `sendto` per
//! frame. The kernel preserves per-pair FIFO order but the medium is
//! treated as unreliable: a vanished peer (`ECONNREFUSED`/`ENOENT`)
//! absorbs the frame exactly like an injected drop, and the ARQ layer
//! above retransmits. A respawned rank rebinds its predecessor's socket
//! path, which is what makes elastic rejoin possible.
//!
//! The send socket runs nonblocking with per-peer queues, so a world
//! whose ranks all send before receiving (the 26-neighbor exchange)
//! cannot deadlock on full kernel buffers: un-sendable wires queue
//! locally — unencoded, sharing their payload with the ARQ layer — and
//! drain during every subsequent send/recv call, each fragment encoded
//! straight into the link's datagram buffer when its turn comes.
//!
//! Epoch fencing: every frame carries the sender's membership epoch.
//! Frames from an older epoch (in-flight across a park/rejoin) are
//! counted and dropped; frames from a newer epoch are held and replayed
//! once this rank's own epoch catches up.

use std::collections::VecDeque;
use std::io::ErrorKind;
use std::os::unix::net::UnixDatagram;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gmg_trace::probe::{self, Kind};

use crate::frame::{self, FrameKind, Reassembler, MAX_FRAME_LEN};
use crate::transport::{Transport, Wire};

/// Which wire the socket transport rides on. One variant: callers name
/// it when they build a [`crate::ProcessWorld`], and reports carry it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketKind {
    /// Unix-domain datagram sockets.
    Uds,
}

impl SocketKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            SocketKind::Uds => "uds",
        }
    }
}

/// Path of rank `r`'s data socket inside a world directory.
pub fn data_sock_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("d{rank}.sock"))
}

/// How long `recv` naps between send attempts while a backlog is
/// waiting on a full peer queue. A blocking receive cannot be used
/// there: only the *receive* socket wakes it, so a peer that merely
/// frees queue space would leave the backlog sitting until the receive
/// timeout (a whole scheduler tick) expires.
const BACKLOG_NAP: Duration = Duration::from_micros(20);

/// The send side of the link to one peer.
struct Link {
    path: PathBuf,
    /// Wires not yet fully handed to the socket, oldest first. Payloads
    /// are shared with the ARQ layer, so a queued wire costs no copy.
    queue: VecDeque<Wire>,
    /// Next fragment of `queue.front()` to send.
    next_frag: u16,
    /// That fragment, encoded, when the socket refused it: `staged` is a
    /// datagram buffer (allocated on first use) holding `staged_len`
    /// bytes, so a refused fragment is encoded once however often the
    /// send is retried.
    staged: Vec<u8>,
    staged_len: usize,
    /// Wires accepted by `send` / fully departed, see [`Transport::departed`].
    accepted: u64,
    departed: u64,
}

/// Receive-socket blocking mode, tracked so the mode syscalls are made
/// only when the mode changes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RxMode {
    NonBlocking,
    Timeout(Duration),
}

/// The socket-backed [`Transport`].
pub struct SocketTransport {
    epoch: u64,
    recv_sock: UnixDatagram,
    rx_mode: RxMode,
    /// One datagram's worth of receive buffer, reused for every read.
    rx_buf: Vec<u8>,
    send_sock: UnixDatagram,
    links: Vec<Link>,
    reasm: Reassembler,
    /// Wires decoded ahead of delivery (epoch replay, batched polls).
    ready: VecDeque<Wire>,
    /// Raw frames from a future epoch, re-ingested at `set_epoch`.
    future: Vec<Vec<u8>>,
    /// Malformed-frame count (dropped; the ARQ layer retransmits).
    frame_errors: u64,
}

impl SocketTransport {
    /// Bind rank `rank`'s Unix-datagram endpoint in `dir`. Peers may not
    /// exist yet; sends to them drop until they bind (worlds barrier via
    /// the controller's GO before first traffic).
    pub fn uds(rank: usize, nranks: usize, dir: &Path) -> std::io::Result<SocketTransport> {
        let path = data_sock_path(dir, rank);
        // A respawned rank rebinds its predecessor's address.
        let _ = std::fs::remove_file(&path);
        let recv_sock = UnixDatagram::bind(&path)?;
        recv_sock.set_nonblocking(true)?;
        let send_sock = UnixDatagram::unbound()?;
        send_sock.set_nonblocking(true)?;
        Ok(SocketTransport {
            epoch: 0,
            recv_sock,
            rx_mode: RxMode::NonBlocking,
            rx_buf: vec![0u8; MAX_FRAME_LEN],
            send_sock,
            links: (0..nranks)
                .map(|r| Link {
                    path: data_sock_path(dir, r),
                    queue: VecDeque::new(),
                    next_frag: 0,
                    staged: Vec::new(),
                    staged_len: 0,
                    accepted: 0,
                    departed: 0,
                })
                .collect(),
            reasm: Reassembler::default(),
            ready: VecDeque::new(),
            future: Vec::new(),
            frame_errors: 0,
        })
    }

    /// Malformed frames seen (and dropped) so far.
    pub fn frame_errors(&self) -> u64 {
        self.frame_errors
    }

    /// Run one raw datagram through validation, the epoch fence and
    /// reassembly into the delivery queue.
    fn ingest(&mut self, buf: &[u8]) {
        let h = match frame::decode_header(buf) {
            Ok(h) => h,
            Err(_) => {
                self.frame_errors += 1;
                probe::event(Kind::Arq, "frame:reject");
                return;
            }
        };
        if h.kind == FrameKind::Control {
            // Control traffic rides dedicated membership sockets; a stray
            // control frame on the data plane is dropped.
            return;
        }
        if h.epoch < self.epoch {
            probe::event(Kind::Arq, "frame:fenced");
            return;
        }
        if h.epoch > self.epoch {
            self.future.push(buf.to_vec());
            return;
        }
        if let Some(w) = self.reasm.accept(&h, buf) {
            self.ready.push_back(w);
        }
    }

    /// Hand queued wires to the socket, fragment by fragment, until a
    /// peer's queue is full. A vanished peer absorbs its frames: that is
    /// indistinguishable from wire loss, which the ARQ layer owns.
    fn drain_backlog(&mut self) {
        for to in 0..self.links.len() {
            let link = &mut self.links[to];
            while let Some(wire) = link.queue.front() {
                if link.staged_len == 0 {
                    if link.staged.is_empty() {
                        link.staged = vec![0u8; MAX_FRAME_LEN];
                    }
                    link.staged_len = frame::encode_wire_fragment(
                        wire,
                        to,
                        self.epoch,
                        link.next_frag,
                        &mut link.staged,
                    );
                }
                match self
                    .send_sock
                    .send_to(&link.staged[..link.staged_len], &link.path)
                {
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    // Sent, or the peer endpoint is missing/dead and the
                    // frame is lost.
                    Ok(_) | Err(_) => {}
                }
                link.staged_len = 0;
                link.next_frag += 1;
                if link.next_frag == frame::wire_frag_count(wire) {
                    link.queue.pop_front();
                    link.next_frag = 0;
                    link.departed += 1;
                }
            }
        }
    }

    fn backlogged(&self) -> bool {
        self.links.iter().any(|l| !l.queue.is_empty())
    }

    fn set_rx_mode(&mut self, mode: RxMode) {
        if self.rx_mode == mode {
            return;
        }
        match (self.rx_mode, mode) {
            (RxMode::NonBlocking, RxMode::Timeout(d)) => {
                self.recv_sock.set_read_timeout(Some(d)).ok();
                self.recv_sock.set_nonblocking(false).ok();
            }
            (RxMode::Timeout(_), RxMode::Timeout(d)) => {
                self.recv_sock.set_read_timeout(Some(d)).ok();
            }
            (_, RxMode::NonBlocking) => {
                self.recv_sock.set_nonblocking(true).ok();
            }
        }
        self.rx_mode = mode;
    }

    /// Read datagrams in `mode` until the socket has none (or, blocking,
    /// until one arrived), ingesting each.
    fn read_wire(&mut self, mode: RxMode) {
        self.set_rx_mode(mode);
        let mut buf = std::mem::take(&mut self.rx_buf);
        while let Ok(n) = self.recv_sock.recv(&mut buf) {
            self.ingest(&buf[..n]);
            if mode != RxMode::NonBlocking {
                break;
            }
        }
        self.rx_buf = buf;
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, to: usize, wire: Wire) -> Result<(), ()> {
        let link = &mut self.links[to];
        link.queue.push_back(wire);
        link.accepted += 1;
        self.drain_backlog();
        Ok(())
    }

    fn departed(&self, to: usize) -> u64 {
        self.links[to].departed
    }

    /// Besides receiving, every call flushes what it can of the send
    /// backlog, so a world whose ranks all send before receiving makes
    /// progress from its receive loops alone.
    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Wire>, ()> {
        if let Some(w) = self.ready.pop_front() {
            return Ok(Some(w));
        }
        let deadline = timeout.map(|d| Instant::now() + d);
        loop {
            self.drain_backlog();
            self.read_wire(RxMode::NonBlocking);
            if let Some(w) = self.ready.pop_front() {
                return Ok(Some(w));
            }
            let remaining = match deadline {
                Some(d) => {
                    let r = d.saturating_duration_since(Instant::now());
                    if r == Duration::ZERO {
                        return Ok(None);
                    }
                    r
                }
                // "Block forever" still slices internally so backlogged
                // sends keep draining (no cross-rank send deadlock).
                None => Duration::from_millis(20),
            };
            if self.backlogged() {
                std::thread::sleep(BACKLOG_NAP.min(remaining));
            } else {
                let slice = remaining.clamp(Duration::from_micros(100), Duration::from_millis(20));
                self.read_wire(RxMode::Timeout(slice));
            }
        }
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.reasm = Reassembler::default();
        self.ready.clear();
        for l in &mut self.links {
            l.queue.clear();
            l.next_frag = 0;
            l.staged_len = 0;
            l.departed = l.accepted;
        }
        // Re-run the epoch filter over the held frames: matching ones
        // deliver now, still-future ones wait again.
        for raw in std::mem::take(&mut self.future) {
            self.ingest(&raw);
        }
    }

    fn kind(&self) -> &'static str {
        SocketKind::Uds.as_str()
    }
}

/// Bind a full in-process world of socket transports (tests and the
/// equivalence proptests): all endpoints exist before any body runs, so
/// no GO barrier is needed.
pub(crate) fn uds_world(dir: &Path, nranks: usize) -> std::io::Result<Vec<SocketTransport>> {
    (0..nranks)
        .map(|r| SocketTransport::uds(r, nranks, dir))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Payload;

    fn scratch_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gmgsock_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn roundtrip_pair(mut transports: Vec<SocketTransport>) {
        let mut b = transports.pop().unwrap();
        let mut a = transports.pop().unwrap();
        let payload: Vec<f64> = (0..20_000).map(|i| i as f64 * 0.25).collect();
        a.send(
            1,
            Wire::Data {
                src: 0,
                tag: 9,
                seq: 0,
                prev: None,
                checksum: 42,
                payload: Payload::Owned(payload.clone()),
            },
        )
        .unwrap();
        // A real world pumps each rank continuously from its own recv
        // loop; the single-threaded test interleaves by hand.
        let deadline = Instant::now() + Duration::from_secs(5);
        let w = loop {
            a.drain_backlog();
            if let Ok(Some(w)) = b.recv(Some(Duration::from_millis(5))) {
                break w;
            }
            assert!(Instant::now() < deadline, "no wire within budget");
        };
        match w {
            Wire::Data {
                src,
                tag,
                seq,
                checksum,
                payload: p,
                ..
            } => {
                assert_eq!((src, tag, seq, checksum), (0, 9, 0, 42));
                assert_eq!(p.into_vec(), payload);
            }
            other => panic!("unexpected {other:?}"),
        }
        // And the reverse direction.
        b.send(0, Wire::Ack { src: 1, seq: 7 }).unwrap();
        match a.recv(Some(Duration::from_secs(5))).unwrap().unwrap() {
            Wire::Ack { src, seq } => assert_eq!((src, seq), (1, 7)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uds_fragmented_roundtrip_both_directions() {
        let dir = scratch_dir("uds_rt");
        roundtrip_pair(uds_world(&dir, 2).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recv_timeout_expires_and_garbage_is_dropped_not_fatal() {
        let dir = scratch_dir("uds_to");
        let mut w = uds_world(&dir, 2).unwrap();
        let probe = UnixDatagram::unbound().unwrap();
        probe
            .send_to(b"not a frame at all", data_sock_path(&dir, 1))
            .unwrap();
        let start = Instant::now();
        let got = w[1].recv(Some(Duration::from_millis(60))).unwrap();
        assert!(got.is_none());
        assert!(start.elapsed() >= Duration::from_millis(55));
        assert_eq!(w[1].frame_errors(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unassigned_kind_byte_counts_as_a_frame_reject() {
        let dir = scratch_dir("uds_kind");
        let mut w = uds_world(&dir, 1).unwrap();
        let flight = gmg_flight::FlightWorld::with_capacity(1, 16);
        let _g = flight.install(0);
        let mut bytes = crate::frame::Frame {
            kind: FrameKind::Ack,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 1,
            epoch: 0,
            frag_index: 0,
            frag_count: 1,
            arq_checksum: 0,
            payload: Vec::new(),
        }
        .encode();
        bytes[3] = 3;
        w[0].ingest(&bytes);
        assert_eq!(w[0].frame_errors(), 1);
        assert!(w[0].ready.is_empty());
        let ops: Vec<_> = flight.ring(0).snapshot().iter().map(|e| e.op).collect();
        assert_eq!(ops, ["frame:reject"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_epoch_frames_are_fenced_future_ones_replay() {
        let dir = scratch_dir("uds_ep");
        let mut w = uds_world(&dir, 2).unwrap();
        let wire = |seq| Wire::Data {
            src: 0,
            tag: 1,
            seq,
            prev: None,
            checksum: 0,
            payload: Payload::Owned(vec![seq as f64]),
        };
        w[0].send(1, wire(0)).unwrap(); // epoch 0
        let (a, b) = w.split_at_mut(1);
        let (a, b) = (&mut a[0], &mut b[0]);
        a.set_epoch(1);
        a.send(1, wire(1)).unwrap(); // epoch 1: future for the receiver
                                     // Receiver still at epoch 0: sees only the epoch-0 wire.
        let got = b.recv(Some(Duration::from_millis(200))).unwrap().unwrap();
        assert!(matches!(got, Wire::Data { seq: 0, .. }));
        assert!(b.recv(Some(Duration::from_millis(50))).unwrap().is_none());
        // Epoch bump: the held future frame replays; nothing older leaks.
        b.set_epoch(1);
        let got = b.recv(Some(Duration::from_millis(200))).unwrap().unwrap();
        assert!(matches!(got, Wire::Data { seq: 1, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
