//! Replication wire format: length-delimited, checksummed frames.
//!
//! Every byte that would cross a network in the replication subsystem
//! ([`galo_core::replication`](../../galo_core/replication/index.html))
//! goes through this codec — learner publishes, primary acknowledgements,
//! the replica mutation feed, and cold-start snapshot transfers. A frame
//! is:
//!
//! ```text
//! magic "GWF3" | kind u8 | seq u64 LE | epoch u64 LE |
//! payload_len u32 LE | payload bytes | checksum64 LE over kind..payload
//! ```
//!
//! Payloads reuse the formats the store already trusts. `Publish` and
//! `Mutation` carry one encoded quad block ([`crate::block`]): a learner
//! encodes its batch once, the primary applies the block it decodes from
//! those bytes, journals it as one log record in the same encoding, and
//! keeps the bytes as the feed entry, so a `Mutation` frame is the
//! publish payload under a new header. `Snapshot` carries
//! [`crate::persist::snapshot_bytes`] output verbatim: the whole image as
//! one block, sealed by magic, version and checksum. The codec moves
//! all three as opaque bytes; the receiver validates them where it
//! applies them ([`QuadBlock::decode`](crate::block::QuadBlock::decode),
//! [`crate::persist::decode_snapshot`]), and bytes that fail there
//! are re-requested like a frame that never arrived. The outer checksum
//! covers everything after the magic, so a frame torn at *any* byte — or
//! with any byte corrupted in flight — decodes to an error, never to a
//! different frame (the tests below sweep every cut and every bit).
//!
//! The checksum is `checksum64`, four lanes of multiply-xor over 8-byte
//! words; the magic is `GWF3` since it replaced byte-serial FNV-1a (under
//! `GWF2`), and a `GWF2` or `GWF1` peer is answered
//! [`FrameError::BadMagic`], not misparsed.

use crate::checksum::checksum64;

/// Frame preamble: "galo wire format v3".
pub const FRAME_MAGIC: [u8; 4] = *b"GWF3";

/// Fixed header length: magic + kind + seq + epoch + payload length.
const HEADER_LEN: usize = 4 + 1 + 8 + 8 + 4;

/// Trailing checksum length.
const SUM_LEN: usize = 8;

/// Refuse to allocate for absurd advertised payload lengths (a corrupted
/// length field must not turn into an OOM before the checksum check).
const MAX_PAYLOAD: u32 = 256 * 1024 * 1024;

/// What a frame carries.
#[derive(Debug, Clone, PartialEq)]
pub enum FramePayload {
    /// Learner → primary: publish these statements (one encoded
    /// [`QuadBlock`](crate::block::QuadBlock) of inserts).
    Publish(Vec<u8>),
    /// Primary → sender: request `seq` applied; `added` is how many
    /// statements were new (0 for an idempotent re-delivery).
    Ack { added: u64 },
    /// Primary → replica: one ordered feed entry (the encoded
    /// [`QuadBlock`](crate::block::QuadBlock) of one applied publish).
    Mutation(Vec<u8>),
    /// Primary → replica: the full image in snapshot format
    /// ([`crate::persist::snapshot_bytes`], one block that replaces the
    /// replica's image).
    Snapshot(Vec<u8>),
    /// Replica → primary: send feed entries starting at this frame's
    /// `seq`; `max` bounds the batch (0 = no bound).
    Pull { max: u32 },
}

impl FramePayload {
    fn kind(&self) -> u8 {
        match self {
            FramePayload::Publish(_) => 1,
            FramePayload::Ack { .. } => 2,
            FramePayload::Mutation(_) => 3,
            FramePayload::Snapshot(_) => 4,
            FramePayload::Pull { .. } => 5,
        }
    }
}

/// One replication frame: a sequence number, the primary mutation epoch
/// the frame was stamped at (0 where not meaningful), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Publish/ack: the sender's request id. Mutation: the feed index.
    /// Pull: the first feed index wanted.
    pub seq: u64,
    /// The primary's mutation epoch associated with this frame — after
    /// apply for acks, after the entry for feed frames, at capture for
    /// snapshots.
    pub epoch: u64,
    pub payload: FramePayload,
}

/// A rejected [`decode_frame`].
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// Not enough bytes for a whole frame — the only retryable error: a
    /// reader holding a stream prefix waits for more bytes.
    Truncated,
    /// The first four bytes are not [`FRAME_MAGIC`].
    BadMagic,
    /// Checksum verified but the kind byte is unknown (a newer peer).
    BadKind(u8),
    /// The trailing checksum does not match the received bytes.
    Checksum { stored: u64, computed: u64 },
    /// Envelope intact but the payload would not parse.
    Payload(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Checksum { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:016x}, computed {computed:016x}"
                )
            }
            FrameError::Payload(m) => write!(f, "bad frame payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn parse_payload(kind: u8, bytes: &[u8]) -> Result<FramePayload, FrameError> {
    let bad = |m: &str| FrameError::Payload(m.to_string());
    match kind {
        1 => Ok(FramePayload::Publish(bytes.to_vec())),
        2 => {
            let arr: [u8; 8] = bytes.try_into().map_err(|_| bad("ack length"))?;
            Ok(FramePayload::Ack {
                added: u64::from_le_bytes(arr),
            })
        }
        3 => Ok(FramePayload::Mutation(bytes.to_vec())),
        4 => Ok(FramePayload::Snapshot(bytes.to_vec())),
        5 => {
            let arr: [u8; 4] = bytes.try_into().map_err(|_| bad("pull length"))?;
            Ok(FramePayload::Pull {
                max: u32::from_le_bytes(arr),
            })
        }
        k => Err(FrameError::BadKind(k)),
    }
}

/// Encode one frame. The result is self-delimiting: a reader that has the
/// whole encoding (and possibly trailing bytes of the next frame) can
/// [`decode_frame`] it back and learn how many bytes it consumed.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let (ack, pull);
    let payload: &[u8] = match &frame.payload {
        FramePayload::Publish(bytes)
        | FramePayload::Mutation(bytes)
        | FramePayload::Snapshot(bytes) => bytes,
        FramePayload::Ack { added } => {
            ack = added.to_le_bytes();
            &ack
        }
        FramePayload::Pull { max } => {
            pull = max.to_le_bytes();
            &pull
        }
    };
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + SUM_LEN);
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.push(frame.payload.kind());
    buf.extend_from_slice(&frame.seq.to_le_bytes());
    buf.extend_from_slice(&frame.epoch.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = checksum64(&buf[FRAME_MAGIC.len()..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Decode the frame at the head of `bytes`. Returns the frame and the
/// number of bytes it occupied. Validation order matters for the failure
/// model: length first (so a torn prefix is always [`FrameError::Truncated`]),
/// then the envelope checksum (so corruption anywhere in kind, seq,
/// epoch, length, or payload is caught before any payload parsing), then
/// the payload itself.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    if bytes.len() < FRAME_MAGIC.len() {
        return Err(FrameError::Truncated);
    }
    if bytes[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    if bytes.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let kind = bytes[4];
    let seq = u64::from_le_bytes(bytes[5..13].try_into().unwrap());
    let epoch = u64::from_le_bytes(bytes[13..21].try_into().unwrap());
    let payload_len = u32::from_le_bytes(bytes[21..25].try_into().unwrap());
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Payload(format!(
            "payload length {payload_len} over limit"
        )));
    }
    let total = HEADER_LEN + payload_len as usize + SUM_LEN;
    if bytes.len() < total {
        return Err(FrameError::Truncated);
    }
    let body_end = HEADER_LEN + payload_len as usize;
    let stored = u64::from_le_bytes(bytes[body_end..total].try_into().unwrap());
    let computed = checksum64(&bytes[FRAME_MAGIC.len()..body_end]);
    if stored != computed {
        return Err(FrameError::Checksum { stored, computed });
    }
    let payload = parse_payload(kind, &bytes[HEADER_LEN..body_end])?;
    Ok((
        Frame {
            seq,
            epoch,
            payload,
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{QuadBlock, Record};
    use crate::ntriples::Quad;
    use crate::term::Term;

    fn sample_frames() -> Vec<Frame> {
        let q: Quad = (
            Term::iri("urn:s"),
            Term::iri("urn:p"),
            Term::lit("a \"quoted\"\nvalue"),
            Some(Term::iri("urn:g")),
        );
        let q2: Quad = (
            Term::iri("urn:s2"),
            Term::iri("urn:p"),
            Term::Blank("b0".into()),
            None,
        );
        let records = [
            Record::Insert(q.0.clone(), q.1.clone(), q.2.clone(), q.3.clone()),
            Record::Remove(q2.0.clone(), q2.1.clone(), q2.2.clone(), None),
            Record::Clear,
        ];
        vec![
            Frame {
                seq: 7,
                epoch: 0,
                payload: FramePayload::Publish(QuadBlock::of_inserts(&[q, q2]).encode()),
            },
            Frame {
                seq: 7,
                epoch: 42,
                payload: FramePayload::Ack { added: 2 },
            },
            Frame {
                seq: 3,
                epoch: 44,
                payload: FramePayload::Mutation(QuadBlock::of_records(&records).encode()),
            },
            Frame {
                seq: 0,
                epoch: 46,
                payload: FramePayload::Snapshot(vec![1, 2, 3, 255, 0]),
            },
            Frame {
                seq: 12,
                epoch: 0,
                payload: FramePayload::Pull { max: 64 },
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let (decoded, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(decoded, frame);
            assert_eq!(used, bytes.len());
            // What a block-carrying frame delivers is the block that was
            // sent, not just its bytes.
            if let FramePayload::Publish(sent) | FramePayload::Mutation(sent) = &frame.payload {
                let (FramePayload::Publish(got) | FramePayload::Mutation(got)) = decoded.payload
                else {
                    panic!("kind changed in flight");
                };
                assert_eq!(QuadBlock::decode(&got), QuadBlock::decode(sent));
                assert!(QuadBlock::decode(&got).is_ok());
            }
        }
    }

    #[test]
    fn an_old_peer_is_refused_by_its_magic() {
        for old in [b"GWF1", b"GWF2"] {
            let mut bytes = encode_frame(&sample_frames()[0]);
            bytes[..4].copy_from_slice(old);
            assert_eq!(decode_frame(&bytes), Err(FrameError::BadMagic));
        }
    }

    #[test]
    fn decode_reports_consumed_length_with_trailing_bytes() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        let mut at = 0;
        for f in &frames {
            let (decoded, used) = decode_frame(&stream[at..]).expect("decodes mid-stream");
            assert_eq!(&decoded, f);
            at += used;
        }
        assert_eq!(at, stream.len());
    }

    #[test]
    fn torn_frame_at_every_byte_is_truncated() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            for cut in 0..bytes.len() {
                let err = decode_frame(&bytes[..cut]).expect_err("prefix must not decode");
                assert_eq!(err, FrameError::Truncated, "cut at {cut}");
            }
        }
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    // A flipped length bit may make the frame look short:
                    // any error will do, a frame will not.
                    if let Ok((decoded, _)) = decode_frame(&bad) {
                        panic!("bit {bit} of byte {i} flipped decoded as {decoded:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoder() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let valid = encode_frame(&sample_frames()[0]);
        for round in 0..2_000 {
            // Half the inputs are noise behind a real magic, half are a
            // real frame with a run of bytes overwritten.
            let mut bytes = if round % 2 == 0 {
                let len = (next() % 96) as usize;
                let mut noise: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                let magic = FRAME_MAGIC.len().min(noise.len());
                noise[..magic].copy_from_slice(&FRAME_MAGIC[..magic]);
                noise
            } else {
                valid.clone()
            };
            if round % 2 == 1 {
                let at = (next() as usize) % bytes.len();
                let run = 1 + (next() as usize) % 8;
                for b in bytes.iter_mut().skip(at).take(run) {
                    *b = next() as u8;
                }
            }
            if let Ok((frame, used)) = decode_frame(&bytes) {
                assert!(used <= bytes.len());
                assert_eq!(encode_frame(&frame), bytes[..used]);
            }
        }
    }
}
