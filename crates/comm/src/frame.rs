//! Length-prefixed wire frames for the socket transports.
//!
//! A [`crate::runtime::RankCtx`] message (`Wire::Data` / `Wire::Ack`) is
//! encoded into one or more datagram-sized frames carrying
//! `{src, dst, tag, seq, epoch, fragment, checksum}`. The ARQ layer's own
//! FNV checksum rides along unchanged (`arq_checksum`) so an injected
//! payload corruption is detected by exactly the same code path on both
//! transports; a *second* frame-level checksum covers the header + bytes
//! on the wire, so garbage read off a socket is rejected with a typed
//! [`FrameError`] and never panics or reaches the ARQ layer.
//!
//! Fragmentation keeps each frame under typical `SO_SNDBUF` datagram
//! limits. Fragments of one message are sent back-to-back on one socket,
//! so per-peer FIFO ordering (which Unix datagram sockets provide) means
//! a [`Reassembler`] only tracks one partial message per sender; a torn
//! sequence is dropped and the ARQ retransmit supplies a clean copy.

use std::fmt;

use crate::transport::Wire;

/// `"GM"` little-endian.
pub const MAGIC: u16 = 0x4d47;
pub const VERSION: u8 = 1;
/// Fixed header size in bytes (checksum trailer included).
pub const HEADER_LEN: usize = 60;
/// Payload doubles per fragment: 48 KiB of payload per frame.
pub const MAX_FRAGMENT_DOUBLES: usize = 6144;
/// Hard ceiling on a frame's declared payload, enforced *before* any
/// allocation so a hostile length field cannot OOM the receiver.
pub const MAX_FRAME_LEN: usize = HEADER_LEN + MAX_FRAGMENT_DOUBLES * 8;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameKind {
    /// An ARQ payload message (possibly one fragment of one).
    Data = 0,
    /// An ARQ acknowledgement.
    Ack = 1,
    /// A membership/control-plane message (never enters the ARQ layer).
    Control = 2,
    /// A loss-tolerant telemetry message (gmg-live sidecar; best-effort,
    /// no ARQ, epoch-fenced by the collector).
    Telemetry = 3,
}

/// A decoded frame.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    pub kind: FrameKind,
    pub src: u32,
    pub dst: u32,
    pub tag: u64,
    pub seq: u64,
    pub epoch: u64,
    pub frag_index: u16,
    pub frag_count: u16,
    /// The ARQ layer's checksum over the *whole* message (all fragments).
    pub arq_checksum: u64,
    pub payload: Vec<f64>,
}

/// Typed frame-decode failures. These surface as
/// [`crate::CommError::Frame`] from the decode API and are counted (then
/// dropped) by the socket receive path — a bad frame is
/// indistinguishable from a lost one, which the ARQ layer already
/// handles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header.
    Truncated {
        len: usize,
    },
    BadMagic {
        magic: u16,
    },
    BadVersion {
        version: u8,
    },
    BadKind {
        kind: u8,
    },
    /// Declared payload exceeds [`MAX_FRAGMENT_DOUBLES`].
    Oversized {
        declared: usize,
        max: usize,
    },
    /// Buffer length disagrees with the declared payload length.
    LengthMismatch {
        declared: usize,
        actual: usize,
    },
    /// `frag_index >= frag_count` or `frag_count == 0`.
    BadFragment {
        index: u16,
        count: u16,
    },
    ChecksumMismatch {
        expected: u64,
        actual: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { len } => {
                write!(f, "frame truncated ({len} bytes < {HEADER_LEN} header)")
            }
            FrameError::BadMagic { magic } => write!(f, "bad frame magic {magic:#06x}"),
            FrameError::BadVersion { version } => write!(f, "unknown frame version {version}"),
            FrameError::BadKind { kind } => write!(f, "unknown frame kind {kind}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "declared payload {declared} doubles exceeds max {max}")
            }
            FrameError::LengthMismatch { declared, actual } => {
                write!(
                    f,
                    "frame length {actual} disagrees with declared {declared}"
                )
            }
            FrameError::BadFragment { index, count } => {
                write!(f, "fragment index {index} out of range for count {count}")
            }
            FrameError::ChecksumMismatch { expected, actual } => write!(
                f,
                "frame checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a over raw bytes (the frame-level checksum; independent of the
/// ARQ message checksum in [`crate::fault`]).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Frame {
    /// Encode into a self-contained datagram / stream record.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.payload.len() * 8);
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(VERSION);
        buf.push(self.kind as u8);
        buf.extend_from_slice(&self.src.to_le_bytes());
        buf.extend_from_slice(&self.dst.to_le_bytes());
        buf.extend_from_slice(&self.tag.to_le_bytes());
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&self.frag_index.to_le_bytes());
        buf.extend_from_slice(&self.frag_count.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.arq_checksum.to_le_bytes());
        // Checksum placeholder, then payload; the checksum covers
        // everything except its own 8 bytes.
        let cs_at = buf.len();
        buf.extend_from_slice(&[0u8; 8]);
        for v in &self.payload {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let cs = fnv1a(&buf[..cs_at]) ^ fnv1a(&buf[cs_at + 8..]);
        buf[cs_at..cs_at + 8].copy_from_slice(&cs.to_le_bytes());
        buf
    }

    /// Decode one frame from `buf`, which must hold exactly one frame.
    /// Never panics: every malformed input maps to a typed [`FrameError`].
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        if buf.len() < HEADER_LEN {
            return Err(FrameError::Truncated { len: buf.len() });
        }
        let rd_u16 = |at: usize| u16::from_le_bytes(buf[at..at + 2].try_into().unwrap());
        let rd_u32 = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap());
        let rd_u64 = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        let magic = rd_u16(0);
        if magic != MAGIC {
            return Err(FrameError::BadMagic { magic });
        }
        if buf[2] != VERSION {
            return Err(FrameError::BadVersion { version: buf[2] });
        }
        let kind = match buf[3] {
            0 => FrameKind::Data,
            1 => FrameKind::Ack,
            2 => FrameKind::Control,
            3 => FrameKind::Telemetry,
            k => return Err(FrameError::BadKind { kind: k }),
        };
        let declared = rd_u32(40) as usize;
        if declared > MAX_FRAGMENT_DOUBLES {
            return Err(FrameError::Oversized {
                declared,
                max: MAX_FRAGMENT_DOUBLES,
            });
        }
        if buf.len() != HEADER_LEN + declared * 8 {
            return Err(FrameError::LengthMismatch {
                declared,
                actual: buf.len(),
            });
        }
        let frag_index = rd_u16(36);
        let frag_count = rd_u16(38);
        if frag_count == 0 || frag_index >= frag_count {
            return Err(FrameError::BadFragment {
                index: frag_index,
                count: frag_count,
            });
        }
        let expected = rd_u64(52);
        let actual = fnv1a(&buf[..52]) ^ fnv1a(&buf[HEADER_LEN..]);
        if expected != actual {
            return Err(FrameError::ChecksumMismatch { expected, actual });
        }
        let payload = buf[HEADER_LEN..]
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect();
        Ok(Frame {
            kind,
            src: rd_u32(4),
            dst: rd_u32(8),
            tag: rd_u64(12),
            seq: rd_u64(20),
            epoch: rd_u64(28),
            frag_index,
            frag_count,
            arq_checksum: rd_u64(44),
            payload,
        })
    }
}

/// Encode a [`Wire`] into its (possibly fragmented) frame sequence.
pub(crate) fn encode_wire(wire: &Wire, dst: usize, epoch: u64) -> Vec<Vec<u8>> {
    match wire {
        Wire::Ack { src, seq } => vec![Frame {
            kind: FrameKind::Ack,
            src: *src as u32,
            dst: dst as u32,
            tag: 0,
            seq: *seq,
            epoch,
            frag_index: 0,
            frag_count: 1,
            arq_checksum: 0,
            payload: Vec::new(),
        }
        .encode()],
        Wire::Data {
            src,
            tag,
            seq,
            checksum,
            payload,
        } => {
            let frag_count = payload.len().div_ceil(MAX_FRAGMENT_DOUBLES).max(1) as u16;
            (0..frag_count)
                .map(|i| {
                    let lo = i as usize * MAX_FRAGMENT_DOUBLES;
                    let hi = (lo + MAX_FRAGMENT_DOUBLES).min(payload.len());
                    Frame {
                        kind: FrameKind::Data,
                        src: *src as u32,
                        dst: dst as u32,
                        tag: *tag,
                        seq: *seq,
                        epoch,
                        frag_index: i,
                        frag_count,
                        arq_checksum: *checksum,
                        payload: payload[lo..hi].to_vec(),
                    }
                    .encode()
                })
                .collect()
        }
    }
}

/// One in-progress multi-fragment message from one sender.
struct Partial {
    seq: u64,
    tag: u64,
    arq_checksum: u64,
    frag_count: u16,
    next_index: u16,
    payload: Vec<f64>,
}

/// Reassembles per-sender fragment sequences back into [`Wire`]s.
/// Senders emit a message's fragments back-to-back on a FIFO link, so one
/// partial per sender suffices; any discontinuity discards the partial
/// (the ARQ layer retransmits the whole message).
#[derive(Default)]
pub(crate) struct Reassembler {
    partial: std::collections::HashMap<u32, Partial>,
}

impl Reassembler {
    /// Feed one decoded frame; returns a completed message if this frame
    /// finished one. Control frames are the caller's business and must
    /// not be fed here.
    pub(crate) fn accept(&mut self, f: Frame) -> Option<Wire> {
        match f.kind {
            FrameKind::Ack => Some(Wire::Ack {
                src: f.src as usize,
                seq: f.seq,
            }),
            FrameKind::Control | FrameKind::Telemetry => None,
            FrameKind::Data => {
                if f.frag_count == 1 {
                    self.partial.remove(&f.src);
                    return Some(Wire::Data {
                        src: f.src as usize,
                        tag: f.tag,
                        seq: f.seq,
                        checksum: f.arq_checksum,
                        payload: f.payload,
                    });
                }
                if f.frag_index == 0 {
                    self.partial.insert(
                        f.src,
                        Partial {
                            seq: f.seq,
                            tag: f.tag,
                            arq_checksum: f.arq_checksum,
                            frag_count: f.frag_count,
                            next_index: 1,
                            payload: f.payload,
                        },
                    );
                    return None;
                }
                let p = self.partial.get_mut(&f.src)?;
                if p.seq != f.seq || p.frag_count != f.frag_count || p.next_index != f.frag_index {
                    // Torn sequence: drop it and wait for a retransmit.
                    self.partial.remove(&f.src);
                    return None;
                }
                p.payload.extend_from_slice(&f.payload);
                p.next_index += 1;
                if p.next_index == p.frag_count {
                    let p = self.partial.remove(&f.src).unwrap();
                    return Some(Wire::Data {
                        src: f.src as usize,
                        tag: p.tag,
                        seq: p.seq,
                        checksum: p.arq_checksum,
                        payload: p.payload,
                    });
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 3,
            dst: 1,
            tag: 42,
            seq: 7,
            epoch: 2,
            frag_index: 0,
            frag_count: 1,
            arq_checksum: 0xdead_beef,
            payload: vec![1.5, -2.25, f64::MAX, 0.0],
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn telemetry_kind_round_trips_and_never_reassembles() {
        let f = Frame {
            kind: FrameKind::Telemetry,
            ..sample()
        };
        let back = Frame::decode(&f.encode()).unwrap();
        assert_eq!(back, f);
        // A telemetry frame must never surface as ARQ traffic.
        assert!(Reassembler::default().accept(back).is_none());
    }

    #[test]
    fn truncated_and_corrupted_frames_reject_with_typed_errors() {
        let bytes = sample().encode();
        assert_eq!(
            Frame::decode(&bytes[..10]),
            Err(FrameError::Truncated { len: 10 })
        );
        // Flip any single bit: must reject, never panic, never accept.
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut b = bytes.clone();
                b[byte] ^= 1 << bit;
                assert!(Frame::decode(&b).is_err(), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut bytes = sample().encode();
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn fragmentation_reassembles_large_messages() {
        let payload: Vec<f64> = (0..3 * MAX_FRAGMENT_DOUBLES + 17)
            .map(|i| i as f64)
            .collect();
        let wire = Wire::Data {
            src: 2,
            tag: 9,
            seq: 4,
            checksum: 11,
            payload: payload.clone(),
        };
        let frames = encode_wire(&wire, 0, 0);
        assert_eq!(frames.len(), 4);
        let mut r = Reassembler::default();
        let mut out = None;
        for f in &frames {
            assert!(out.is_none());
            out = r.accept(Frame::decode(f).unwrap());
        }
        match out.unwrap() {
            Wire::Data { payload: p, .. } => assert_eq!(p, payload),
            w => panic!("unexpected {w:?}"),
        }
    }

    #[test]
    fn torn_fragment_sequence_is_dropped_then_clean_retransmit_wins() {
        let payload: Vec<f64> = (0..2 * MAX_FRAGMENT_DOUBLES)
            .map(|i| i as f64 * 0.5)
            .collect();
        let wire = Wire::Data {
            src: 1,
            tag: 3,
            seq: 8,
            checksum: 5,
            payload: payload.clone(),
        };
        let frames: Vec<Frame> = encode_wire(&wire, 0, 0)
            .iter()
            .map(|b| Frame::decode(b).unwrap())
            .collect();
        let mut r = Reassembler::default();
        // First fragment arrives, second is lost, then a full retransmit.
        assert!(r.accept(frames[0].clone()).is_none());
        assert!(r.accept(frames[0].clone()).is_none()); // restart, not error
        assert!(matches!(
            r.accept(frames[1].clone()),
            Some(Wire::Data { .. })
        ));
    }
}
