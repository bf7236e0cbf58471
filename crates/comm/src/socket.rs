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
//! The send socket runs nonblocking with per-peer backlogs, so a
//! world whose ranks all send before receiving (the 26-neighbor
//! exchange) cannot deadlock on full kernel buffers: un-sendable frames
//! queue locally and drain during every subsequent send/recv/pump call.
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

use crate::frame::{self, Frame, FrameKind, Reassembler, MAX_FRAME_LEN};
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

/// The socket-backed [`Transport`].
pub struct SocketTransport {
    rank: usize,
    epoch: u64,
    recv_sock: UnixDatagram,
    send_sock: UnixDatagram,
    peer_paths: Vec<PathBuf>,
    /// Un-sendable frames, per destination (nonblocking sends).
    backlog: Vec<VecDeque<Vec<u8>>>,
    reasm: Reassembler,
    /// Wires decoded ahead of delivery (epoch replay, batched polls).
    ready: VecDeque<Wire>,
    /// Frames from a future epoch, replayed at `set_epoch`.
    future: Vec<Frame>,
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
        let send_sock = UnixDatagram::unbound()?;
        send_sock.set_nonblocking(true)?;
        Ok(SocketTransport {
            rank,
            epoch: 0,
            recv_sock,
            send_sock,
            peer_paths: (0..nranks).map(|r| data_sock_path(dir, r)).collect(),
            backlog: (0..nranks).map(|_| VecDeque::new()).collect(),
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

    /// Decode one raw frame buffer into the delivery pipeline.
    fn ingest(&mut self, buf: &[u8]) {
        let f = match Frame::decode(buf) {
            Ok(f) => f,
            Err(e) => {
                self.frame_errors += 1;
                gmg_flight::record_arq("frame:reject", None, None, None, 0);
                if gmg_metrics::enabled() {
                    gmg_metrics::counter("frame_decode_errors_total", self.rank, None, "frame")
                        .inc();
                }
                let _ = e;
                return;
            }
        };
        if f.kind == FrameKind::Control {
            // Control traffic rides dedicated membership sockets; a stray
            // control frame on the data plane is dropped.
            return;
        }
        if f.kind == FrameKind::Telemetry {
            // Telemetry rides the gmg-live sidecar socket; a stray
            // telemetry frame on the data plane is dropped (counted) so it
            // can never contaminate the ARQ tag/seq spaces.
            if gmg_metrics::enabled() {
                gmg_metrics::counter("telemetry_misrouted_total", self.rank, None, "frame").inc();
            }
            return;
        }
        if f.epoch < self.epoch {
            if gmg_metrics::enabled() {
                gmg_metrics::counter("epoch_fenced_frames_total", self.rank, None, "frame").inc();
            }
            return;
        }
        if f.epoch > self.epoch {
            self.future.push(f);
            return;
        }
        if let Some(w) = self.reasm.accept(f) {
            self.ready.push_back(w);
        }
    }

    /// Try to flush per-peer backlogs; non-fatal failures drop frames
    /// (indistinguishable from wire loss, which the ARQ layer owns).
    fn drain_backlog(&mut self) {
        for to in 0..self.backlog.len() {
            while let Some(front) = self.backlog[to].front() {
                match self.try_send_raw(to, front) {
                    RawSend::Sent => {
                        self.backlog[to].pop_front();
                    }
                    RawSend::Full => break,
                    RawSend::Gone => {
                        // Peer endpoint missing/dead: this frame is lost.
                        self.backlog[to].pop_front();
                    }
                }
            }
        }
    }

    /// Ingest whatever is on the wire right now without blocking.
    fn poll_wire(&mut self) {
        let mut buf = vec![0u8; MAX_FRAME_LEN];
        self.recv_sock.set_nonblocking(true).ok();
        while let Ok(n) = self.recv_sock.recv(&mut buf) {
            self.ingest(&buf[..n]);
        }
        self.recv_sock.set_nonblocking(false).ok();
    }

    /// Block up to `slice` for at least one datagram, then ingest it.
    fn wait_wire(&mut self, slice: Duration) {
        let mut buf = vec![0u8; MAX_FRAME_LEN];
        self.recv_sock
            .set_read_timeout(Some(slice.max(Duration::from_micros(100))))
            .ok();
        if let Ok(n) = self.recv_sock.recv(&mut buf) {
            self.ingest(&buf[..n]);
        }
    }

    fn try_send_raw(&self, to: usize, frame_bytes: &[u8]) -> RawSend {
        match self.send_sock.send_to(frame_bytes, &self.peer_paths[to]) {
            Ok(_) => RawSend::Sent,
            Err(e) if e.kind() == ErrorKind::WouldBlock => RawSend::Full,
            Err(_) => RawSend::Gone,
        }
    }
}

/// Outcome of one raw nonblocking send attempt.
enum RawSend {
    Sent,
    Full,
    Gone,
}

impl Transport for SocketTransport {
    fn send(&mut self, to: usize, wire: Wire) -> Result<(), ()> {
        for f in frame::encode_wire(&wire, to, self.epoch) {
            self.backlog[to].push_back(f);
        }
        self.drain_backlog();
        Ok(())
    }

    fn recv(&mut self, timeout: Option<Duration>) -> Result<Option<Wire>, ()> {
        let deadline = timeout.map(|d| Instant::now() + d);
        loop {
            self.drain_backlog();
            self.poll_wire();
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
            self.wait_wire(remaining.min(Duration::from_millis(20)));
        }
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.reasm = Reassembler::default();
        self.ready.clear();
        for b in &mut self.backlog {
            b.clear();
        }
        let future = std::mem::take(&mut self.future);
        for f in future {
            // Re-run the epoch filter: matching frames deliver now,
            // still-future ones wait again.
            if f.epoch == self.epoch {
                if let Some(w) = self.reasm.accept(f) {
                    self.ready.push_back(w);
                }
            } else if f.epoch > self.epoch {
                self.future.push(f);
            }
        }
    }

    fn pump(&mut self) {
        self.drain_backlog();
        self.poll_wire();
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
                checksum: 42,
                payload: payload.clone(),
            },
        )
        .unwrap();
        // A real world pumps each rank continuously from its own recv
        // loop; the single-threaded test interleaves by hand.
        let deadline = Instant::now() + Duration::from_secs(5);
        let w = loop {
            a.pump();
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
            } => {
                assert_eq!((src, tag, seq, checksum), (0, 9, 0, 42));
                assert_eq!(p, payload);
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
    fn old_epoch_frames_are_fenced_future_ones_replay() {
        let dir = scratch_dir("uds_ep");
        let mut w = uds_world(&dir, 2).unwrap();
        let wire = |seq| Wire::Data {
            src: 0,
            tag: 1,
            seq,
            checksum: 0,
            payload: vec![seq as f64],
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
