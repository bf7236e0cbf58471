//! Length-prefixed wire frames for the socket transports.
//!
//! A [`crate::runtime::RankCtx`] message (`Wire::Data` / `Wire::Ack`) is
//! encoded into one or more datagram-sized frames carrying
//! `{src, dst, tag, seq, epoch, fragment, checksum, prev}`. The ARQ layer's own
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

use crate::fault::LaneHash;
use crate::transport::{Payload, Wire};

/// `"GM"` little-endian.
pub const MAGIC: u16 = 0x4d47;
/// Version 2 added the data wire's predecessor link (`prev`).
pub const VERSION: u8 = 2;
/// Fixed header size in bytes (checksum trailer included).
pub const HEADER_LEN: usize = 68;
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
}

/// A decoded frame: the control plane's view, and the codec's public
/// face. A data wire's predecessor link travels in the header too, but
/// only the socket transport's reassembler reads it; `Frame` encodes it
/// as absent.
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

/// Everything a frame carries besides its payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FrameHeader {
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
    /// The data message's predecessor on its link (`Wire::Data::prev`).
    pub prev: Option<u64>,
}

/// Byte offsets of the header fields that are read back by name.
const AT_PAYLOAD_LEN: usize = 40;
const AT_PREV: usize = 52;
const AT_CHECKSUM: usize = 60;

/// The frame-level checksum (independent of the ARQ message checksum in
/// [`crate::fault`]): [`LaneHash`] over every byte of `buf` except the
/// checksum's own eight. `buf` is one whole frame, so both stretches are
/// word-aligned but for the four header bytes before the checksum, which
/// are folded zero-extended.
fn frame_checksum(buf: &[u8]) -> u64 {
    let le = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    let head = &buf[..AT_CHECKSUM];
    let tail = u32::from_le_bytes(head[AT_CHECKSUM - 4..].try_into().expect("4-byte tail")) as u64;
    let mut h = LaneHash::new(0xF4A3);
    h.eat_words(head.chunks_exact(8).map(le).chain([tail]));
    h.eat_words(buf[HEADER_LEN..].chunks_exact(8).map(le));
    h.finish()
}

/// Encode one frame into the front of `out` and return its length.
/// `out` must hold `HEADER_LEN + 8 * payload.len()` bytes; what lies
/// beyond is left alone, so a caller can reuse one datagram buffer.
pub(crate) fn encode_into(h: &FrameHeader, payload: &[f64], out: &mut [u8]) -> usize {
    let len = HEADER_LEN + payload.len() * 8;
    let out = &mut out[..len];
    out[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    out[2] = VERSION;
    out[3] = h.kind as u8;
    out[4..8].copy_from_slice(&h.src.to_le_bytes());
    out[8..12].copy_from_slice(&h.dst.to_le_bytes());
    out[12..20].copy_from_slice(&h.tag.to_le_bytes());
    out[20..28].copy_from_slice(&h.seq.to_le_bytes());
    out[28..36].copy_from_slice(&h.epoch.to_le_bytes());
    out[36..38].copy_from_slice(&h.frag_index.to_le_bytes());
    out[38..40].copy_from_slice(&h.frag_count.to_le_bytes());
    out[AT_PAYLOAD_LEN..44].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    out[44..AT_PREV].copy_from_slice(&h.arq_checksum.to_le_bytes());
    // `seq + 1`, so that 0 says "no predecessor".
    let prev = h.prev.map_or(0, |p| p + 1);
    out[AT_PREV..AT_CHECKSUM].copy_from_slice(&prev.to_le_bytes());
    for (dst, v) in out[HEADER_LEN..].chunks_exact_mut(8).zip(payload) {
        dst.copy_from_slice(&v.to_bits().to_le_bytes());
    }
    let cs = frame_checksum(out);
    out[AT_CHECKSUM..HEADER_LEN].copy_from_slice(&cs.to_le_bytes());
    len
}

/// Validate `buf` as exactly one frame — structure first, checksum last —
/// and return its header. Never panics and allocates nothing: every
/// malformed input maps to a typed [`FrameError`]. The payload stays in
/// `buf`; [`decode_payload_into`] copies it out.
pub(crate) fn decode_header(buf: &[u8]) -> Result<FrameHeader, FrameError> {
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
        k => return Err(FrameError::BadKind { kind: k }),
    };
    let declared = rd_u32(AT_PAYLOAD_LEN) as usize;
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
    let expected = rd_u64(AT_CHECKSUM);
    let actual = frame_checksum(buf);
    if expected != actual {
        return Err(FrameError::ChecksumMismatch { expected, actual });
    }
    Ok(FrameHeader {
        kind,
        src: rd_u32(4),
        dst: rd_u32(8),
        tag: rd_u64(12),
        seq: rd_u64(20),
        epoch: rd_u64(28),
        frag_index,
        frag_count,
        arq_checksum: rd_u64(44),
        prev: rd_u64(AT_PREV).checked_sub(1),
    })
}

/// Append the payload of a frame [`decode_header`] accepted to `out`.
pub(crate) fn decode_payload_into(buf: &[u8], out: &mut Vec<f64>) {
    out.extend(
        buf[HEADER_LEN..]
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk")))),
    );
}

impl Frame {
    fn header(&self) -> FrameHeader {
        FrameHeader {
            kind: self.kind,
            src: self.src,
            dst: self.dst,
            tag: self.tag,
            seq: self.seq,
            epoch: self.epoch,
            frag_index: self.frag_index,
            frag_count: self.frag_count,
            arq_checksum: self.arq_checksum,
            prev: None,
        }
    }

    /// Encode into a self-contained datagram / stream record.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + self.payload.len() * 8];
        encode_into(&self.header(), &self.payload, &mut buf);
        buf
    }

    /// Decode one frame from `buf`, which must hold exactly one frame.
    /// Never panics: every malformed input maps to a typed [`FrameError`].
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let h = decode_header(buf)?;
        let mut payload = Vec::with_capacity((buf.len() - HEADER_LEN) / 8);
        decode_payload_into(buf, &mut payload);
        Ok(Frame {
            kind: h.kind,
            src: h.src,
            dst: h.dst,
            tag: h.tag,
            seq: h.seq,
            epoch: h.epoch,
            frag_index: h.frag_index,
            frag_count: h.frag_count,
            arq_checksum: h.arq_checksum,
            payload,
        })
    }
}

/// How many frames `wire` travels as.
pub(crate) fn wire_frag_count(wire: &Wire) -> u16 {
    match wire {
        Wire::Ack { .. } => 1,
        Wire::Data { payload, .. } => {
            u16::try_from(payload.len().div_ceil(MAX_FRAGMENT_DOUBLES).max(1))
                .expect("message exceeds 65535 fragments")
        }
    }
}

/// Encode fragment `frag` of `wire` straight from its payload slice into
/// the datagram buffer `out`; returns the frame's length.
pub(crate) fn encode_wire_fragment(
    wire: &Wire,
    dst: usize,
    epoch: u64,
    frag: u16,
    out: &mut [u8],
) -> usize {
    let (kind, src, tag, seq, prev, arq_checksum, payload): (_, _, _, _, _, _, &[f64]) = match wire
    {
        Wire::Ack { src, seq } => (FrameKind::Ack, *src, 0, *seq, None, 0, &[]),
        Wire::Data {
            src,
            tag,
            seq,
            prev,
            checksum,
            payload,
        } => {
            let lo = frag as usize * MAX_FRAGMENT_DOUBLES;
            let hi = (lo + MAX_FRAGMENT_DOUBLES).min(payload.len());
            (
                FrameKind::Data,
                *src,
                *tag,
                *seq,
                *prev,
                *checksum,
                &payload[lo..hi],
            )
        }
    };
    let h = FrameHeader {
        kind,
        src: src as u32,
        dst: dst as u32,
        tag,
        seq,
        epoch,
        frag_index: frag,
        frag_count: wire_frag_count(wire),
        arq_checksum,
        prev,
    };
    encode_into(&h, payload, out)
}

/// One in-progress multi-fragment message from one sender.
struct Partial {
    seq: u64,
    prev: Option<u64>,
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
    /// Feed one frame — the header [`decode_header`] returned for `buf` —
    /// and get back the message it completed, if any. Payload bytes are
    /// decoded straight into the message's buffer, which the first
    /// fragment sizes from `frag_count` (a fragment holds at most
    /// [`MAX_FRAGMENT_DOUBLES`], so the buffer never regrows). Control
    /// frames are the caller's business; fed here they are dropped.
    pub(crate) fn accept(&mut self, h: &FrameHeader, buf: &[u8]) -> Option<Wire> {
        match h.kind {
            FrameKind::Ack => {
                return Some(Wire::Ack {
                    src: h.src as usize,
                    seq: h.seq,
                })
            }
            FrameKind::Control => return None,
            FrameKind::Data => {}
        }
        let done = |tag, seq, prev, checksum, payload| {
            Some(Wire::Data {
                src: h.src as usize,
                tag,
                seq,
                prev,
                checksum,
                payload: Payload::Owned(payload),
            })
        };
        if h.frag_index == 0 {
            let fragments = h.frag_count as usize;
            let mut payload = Vec::with_capacity(if fragments == 1 {
                (buf.len() - HEADER_LEN) / 8
            } else {
                fragments * MAX_FRAGMENT_DOUBLES
            });
            decode_payload_into(buf, &mut payload);
            if fragments == 1 {
                self.partial.remove(&h.src);
                return done(h.tag, h.seq, h.prev, h.arq_checksum, payload);
            }
            self.partial.insert(
                h.src,
                Partial {
                    seq: h.seq,
                    prev: h.prev,
                    tag: h.tag,
                    arq_checksum: h.arq_checksum,
                    frag_count: h.frag_count,
                    next_index: 1,
                    payload,
                },
            );
            return None;
        }
        let p = self.partial.get_mut(&h.src)?;
        if p.seq != h.seq || p.frag_count != h.frag_count || p.next_index != h.frag_index {
            // Torn sequence: drop it and wait for a retransmit.
            self.partial.remove(&h.src);
            return None;
        }
        decode_payload_into(buf, &mut p.payload);
        p.next_index += 1;
        if p.next_index < p.frag_count {
            return None;
        }
        let p = self.partial.remove(&h.src)?;
        done(p.tag, p.seq, p.prev, p.arq_checksum, p.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmg_proptest::prelude::*;

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

    fn data_wire(src: usize, seq: u64, payload: Vec<f64>) -> Wire {
        Wire::Data {
            src,
            tag: 9,
            seq,
            prev: seq.checked_sub(1),
            checksum: 11,
            payload: Payload::Owned(payload),
        }
    }

    /// Every frame of `wire`, each in a buffer of its own.
    fn encode_wire(wire: &Wire, dst: usize, epoch: u64) -> Vec<Vec<u8>> {
        (0..wire_frag_count(wire))
            .map(|frag| {
                let mut buf = vec![0u8; MAX_FRAME_LEN];
                let len = encode_wire_fragment(wire, dst, epoch, frag, &mut buf);
                buf.truncate(len);
                buf
            })
            .collect()
    }

    /// What the socket receive path does with one datagram.
    fn feed(r: &mut Reassembler, bytes: &[u8]) -> Result<Option<Wire>, FrameError> {
        decode_header(bytes).map(|h| r.accept(&h, bytes))
    }

    fn payload_of(w: Option<Wire>) -> Vec<f64> {
        match w {
            Some(Wire::Data { payload, .. }) => payload.into_vec(),
            other => panic!("expected a data wire, got {other:?}"),
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn unassigned_kind_byte_rejects_as_bad_kind() {
        // The first unassigned kind byte, and two beyond it.
        for kind in [3u8, 4, u8::MAX] {
            let mut bytes = sample().encode();
            bytes[3] = kind;
            assert_eq!(Frame::decode(&bytes), Err(FrameError::BadKind { kind }));
            assert_eq!(
                feed(&mut Reassembler::default(), &bytes).err(),
                Some(FrameError::BadKind { kind })
            );
        }
    }

    #[test]
    fn truncated_and_corrupted_frames_reject_with_typed_errors() {
        // 4·LANES + 1 payload words: every lane is used, the tail is odd.
        let bytes = Frame {
            payload: (0..4 * LaneHash::LANES + 1)
                .map(|i| i as f64 * 0.3)
                .collect(),
            ..sample()
        }
        .encode();
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
    fn encode_into_leaves_the_rest_of_a_reused_buffer_alone() {
        let f = sample();
        let mut buf = vec![0xAAu8; MAX_FRAME_LEN];
        let len = encode_into(&f.header(), &f.payload, &mut buf);
        assert_eq!(buf[..len], f.encode()[..]);
        assert!(buf[len..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn fragmentation_reassembles_large_messages() {
        let payload: Vec<f64> = (0..3 * MAX_FRAGMENT_DOUBLES + 17)
            .map(|i| i as f64)
            .collect();
        let frames = encode_wire(&data_wire(2, 4, payload.clone()), 0, 0);
        assert_eq!(frames.len(), 4);
        let mut r = Reassembler::default();
        let mut out = None;
        for f in &frames {
            assert!(out.is_none());
            out = feed(&mut r, f).unwrap();
        }
        assert_eq!(payload_of(out), payload);
    }

    #[test]
    fn torn_fragment_sequence_is_dropped_then_clean_retransmit_wins() {
        let payload: Vec<f64> = (0..2 * MAX_FRAGMENT_DOUBLES)
            .map(|i| i as f64 * 0.5)
            .collect();
        let frames = encode_wire(&data_wire(1, 8, payload.clone()), 0, 0);
        let mut r = Reassembler::default();
        // First fragment arrives, second is lost, then a full retransmit.
        assert!(feed(&mut r, &frames[0]).unwrap().is_none());
        assert!(feed(&mut r, &frames[0]).unwrap().is_none()); // restart, not error
        assert_eq!(payload_of(feed(&mut r, &frames[1]).unwrap()), payload);
    }

    /// Hostile or damaged fragment streams end in a typed error or a
    /// dropped partial — and whatever is delivered or held never
    /// reserves more than `frag_count` fragments' worth.
    #[test]
    fn malformed_fragment_streams_are_dropped_without_overallocating() {
        let payload: Vec<f64> = (0..2 * MAX_FRAGMENT_DOUBLES + 5)
            .map(|i| i as f64)
            .collect();
        let frames = encode_wire(&data_wire(1, 8, payload.clone()), 0, 0);
        assert_eq!(frames.len(), 3);
        let mut r = Reassembler::default();

        // Truncated and oversized datagrams never reach reassembly.
        assert!(feed(&mut r, &frames[0]).unwrap().is_none());
        assert!(matches!(
            feed(&mut r, &frames[1][..frames[1].len() - 8]),
            Err(FrameError::LengthMismatch { .. })
        ));
        assert!(matches!(
            feed(&mut r, &frames[1][..HEADER_LEN - 1]),
            Err(FrameError::Truncated { .. })
        ));
        let mut long = frames[1].clone();
        long.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            feed(&mut r, &long),
            Err(FrameError::LengthMismatch { .. })
        ));
        // The partial survived the rejects (they were never fed to it) …
        assert!(feed(&mut r, &frames[1]).unwrap().is_none());
        // … a duplicated fragment tears it …
        assert!(feed(&mut r, &frames[1]).unwrap().is_none());
        assert!(r.partial.is_empty());
        // … and what follows of the torn message is dropped too.
        assert!(feed(&mut r, &frames[2]).unwrap().is_none());

        // A clean copy then delivers, inside its reservation.
        let mut out = None;
        for f in &frames {
            if let Some(p) = r.partial.get(&1) {
                assert!(p.payload.capacity() <= 3 * MAX_FRAGMENT_DOUBLES);
            }
            out = feed(&mut r, f).unwrap();
        }
        match out {
            Some(Wire::Data { payload: p, .. }) => {
                let p = p.into_vec();
                assert!(p.capacity() <= 3 * MAX_FRAGMENT_DOUBLES);
                assert_eq!(p, payload);
            }
            other => panic!("expected a data wire, got {other:?}"),
        }

        // A lone continuation fragment of an unknown message is dropped.
        assert!(feed(&mut Reassembler::default(), &frames[2])
            .unwrap()
            .is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any payload length across zero, one, two and three fragments —
        /// most of them not a multiple of the checksum's lane count —
        /// survives `encode_wire` → `Reassembler` bit for bit.
        #[test]
        fn wire_round_trips_through_fragments(
            len in 0usize..2 * MAX_FRAGMENT_DOUBLES + 18,
            seed in any::<u64>(),
            first in any::<bool>(),
        ) {
            let payload: Vec<f64> = (0..len as u64)
                .map(|i| f64::from_bits(seed.wrapping_mul(i | 1).rotate_left(i as u32)))
                .collect();
            // A link's first message has no predecessor.
            let seq = if first { 0 } else { seed | 1 };
            let frames = encode_wire(&data_wire(5, seq, payload.clone()), 1, 3);
            prop_assert_eq!(frames.len(), len.div_ceil(MAX_FRAGMENT_DOUBLES).max(1));
            let mut r = Reassembler::default();
            let mut out = None;
            for f in &frames {
                prop_assert!(f.len() <= MAX_FRAME_LEN);
                prop_assert!(out.is_none());
                out = feed(&mut r, f).map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            match out {
                Some(Wire::Data { src, tag, seq: got, prev, checksum, payload: p }) => {
                    prop_assert_eq!((src, tag, got, checksum), (5, 9, seq, 11));
                    prop_assert_eq!(prev, seq.checked_sub(1));
                    prop_assert_eq!(p.len(), len);
                    prop_assert!(p.iter().zip(&payload).all(|(a, b)| a.to_bits() == b.to_bits()));
                }
                other => prop_assert!(false, "expected a data wire, got {:?}", other),
            }
        }

        /// Every single-bit flip of a data fragment's header — the
        /// predecessor link included — is rejected with a typed error.
        #[test]
        fn every_header_bit_flip_of_a_data_fragment_rejects(
            seq in any::<u64>(),
            epoch in any::<u64>(),
            len in 0usize..9,
        ) {
            let payload: Vec<f64> = (0..len).map(|i| i as f64 * 0.5).collect();
            let frames = encode_wire(&data_wire(2, seq, payload), 4, epoch);
            prop_assert_eq!(frames.len(), 1);
            let h = decode_header(&frames[0]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(h.prev, seq.checked_sub(1));
            for byte in 0..HEADER_LEN {
                for bit in 0..8 {
                    let mut b = frames[0].clone();
                    b[byte] ^= 1 << bit;
                    prop_assert!(decode_header(&b).is_err(), "byte {} bit {}", byte, bit);
                }
            }
        }
    }
}
