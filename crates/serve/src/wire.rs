//! The length-prefixed binary wire protocol of the socket front end.
//!
//! Every message is `[type: u8][len: u32 LE][payload: len bytes]`. A
//! connection opens with [`WireMsg::Hello`] (magic + protocol version) so
//! the server can reject foreign byte streams before trusting any length
//! prefix. Payload lengths are capped ([`MAX_PAYLOAD`]) and frame axis
//! extents are validated before any allocation, so a hostile or corrupted
//! stream surfaces as a typed [`WireError`] — never a panic and never an
//! unbounded allocation.
//!
//! The codec is symmetric and incremental: [`encode`] appends one message
//! to a byte buffer; [`Decoder`] consumes arbitrary byte chunks (as
//! delivered by non-blocking socket reads) and yields complete messages,
//! buffering partial ones. Truncated input is simply "not yet a message";
//! only structurally invalid input errors.
//!
//! Skeletons travel as raw little-endian `f32` bit patterns, so a result
//! read off the wire is bitwise identical to one taken from the engine
//! in-process — the sharded-serve identity guarantee extends to clients.

use crate::session::SessionStats;
use mmhand_core::Precision;
use mmhand_math::Complex;
use mmhand_radar::RawFrame;
use std::fmt;

/// Protocol magic, first bytes of every connection's `Hello` payload.
pub const WIRE_MAGIC: [u8; 4] = *b"MMHW";
/// The one protocol version this codec speaks. Version 2 added the
/// precision byte to `Hello`; a `Hello` of any other version is a typed
/// [`WireError::BadVersion`].
pub const WIRE_VERSION: u16 = 2;
/// Hard cap on one message's payload length (bytes). A `Push` of the
/// full-scale radar geometry (3·4 antennas × 128 chirps × 256 samples ×
/// 8 bytes ≈ 3.1 MiB) fits with an order of magnitude to spare.
pub const MAX_PAYLOAD: u32 = 32 << 20;
/// Cap on `tx · rx · chirps · samples` accepted from the wire.
pub const MAX_FRAME_SAMPLES: usize = 1 << 22;

/// Message type tags. Client → server tags are < 128.
mod tag {
    pub const HELLO: u8 = 1;
    pub const OPEN: u8 = 2;
    pub const PUSH: u8 = 3;
    pub const POLL: u8 = 4;
    pub const CLOSE: u8 = 5;
    pub const OPENED: u8 = 128;
    pub const RESULT: u8 = 129;
    pub const REJECT: u8 = 130;
    pub const CLOSED: u8 = 131;
}

/// Typed rejection codes carried by [`WireMsg::Reject`], mirroring
/// [`ServeError`](crate::ServeError) across the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The session's bounded ingress queue is full (backpressure).
    QueueFull,
    /// Admission control refused a new session.
    SessionLimit,
    /// The session id is not open on the server.
    UnknownSession,
    /// The session was recently evicted for idling.
    SessionEvicted,
    /// The frame's geometry does not match the serving pipeline.
    BadFrame,
    /// The client violated the protocol (bad magic, bad ordering, …).
    Protocol,
    /// An internal serving error.
    Internal,
    /// The `Hello` requested an inference precision this server does not
    /// serve (e.g. int8 against an uncalibrated f32 deployment).
    UnsupportedPrecision,
}

impl RejectCode {
    fn to_u16(self) -> u16 {
        match self {
            RejectCode::QueueFull => 1,
            RejectCode::SessionLimit => 2,
            RejectCode::UnknownSession => 3,
            RejectCode::SessionEvicted => 4,
            RejectCode::BadFrame => 5,
            RejectCode::Protocol => 6,
            RejectCode::Internal => 7,
            RejectCode::UnsupportedPrecision => 8,
        }
    }

    fn from_u16(v: u16) -> Result<Self, WireError> {
        Ok(match v {
            1 => RejectCode::QueueFull,
            2 => RejectCode::SessionLimit,
            3 => RejectCode::UnknownSession,
            4 => RejectCode::SessionEvicted,
            5 => RejectCode::BadFrame,
            6 => RejectCode::Protocol,
            7 => RejectCode::Internal,
            8 => RejectCode::UnsupportedPrecision,
            other => return Err(WireError::Malformed { what: "reject code", value: other as u64 }),
        })
    }
}

/// Wire encoding of [`Precision`] (one byte in the `Hello`).
fn precision_to_u8(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::Int8 => 1,
    }
}

fn precision_from_u8(v: u8) -> Result<Precision, WireError> {
    match v {
        0 => Ok(Precision::F32),
        1 => Ok(Precision::Int8),
        other => Err(WireError::Malformed { what: "hello precision", value: other as u64 }),
    }
}

/// One protocol message, either direction.
#[derive(Debug)]
pub enum WireMsg {
    /// Connection preamble: magic + version + requested precision
    /// (client → server). The version must be [`WIRE_VERSION`].
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// Inference precision the client expects the server to run.
        precision: Precision,
    },
    /// Open a new session (client → server).
    Open,
    /// Push one raw radar frame into a session (client → server).
    Push {
        /// Target session id.
        session: u64,
        /// The frame, validated against [`MAX_FRAME_SAMPLES`] at decode.
        frame: RawFrame,
    },
    /// Ask the server to flush buffered results now (client → server).
    Poll {
        /// Target session id.
        session: u64,
    },
    /// Close a session (client → server).
    Close {
        /// Target session id.
        session: u64,
    },
    /// A session was opened (server → client).
    Opened {
        /// The allocated session id.
        session: u64,
    },
    /// One per-segment inference result (server → client).
    Result {
        /// The session the result belongs to.
        session: u64,
        /// Running segment index within the session's stream.
        segment_index: u64,
        /// Whether the mesh stage was skipped by policy.
        mesh_skipped: bool,
        /// Flat 63-float skeleton, raw little-endian f32 bits.
        skeleton: Vec<f32>,
    },
    /// A request was rejected (server → client).
    Reject {
        /// The session the rejection concerns (0 when none applies).
        session: u64,
        /// Why.
        code: RejectCode,
    },
    /// A session closed; its lifetime stats (server → client).
    Closed {
        /// The closed session id.
        session: u64,
        /// Lifetime accounting.
        stats: SessionStats,
    },
}

/// A structurally invalid byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The first message was not `Hello`, or its magic bytes differ.
    BadMagic,
    /// The peer speaks an unsupported protocol version.
    BadVersion {
        /// The version the peer announced.
        got: u16,
    },
    /// An unknown message type tag.
    UnknownType {
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeding [`MAX_PAYLOAD`].
    Oversize {
        /// The announced payload length.
        len: u32,
    },
    /// A payload whose contents disagree with its message type.
    Malformed {
        /// Which field was malformed.
        what: &'static str,
        /// The offending value (best effort).
        value: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad protocol magic (expected MMHW hello)"),
            WireError::BadVersion { got } => {
                write!(f, "unsupported protocol version {got} (speaking {WIRE_VERSION})")
            }
            WireError::UnknownType { tag } => write!(f, "unknown message type tag {tag}"),
            WireError::Oversize { len } => {
                write!(f, "payload length {len} exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Malformed { what, value } => {
                write!(f, "malformed payload field `{what}` (value {value})")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `msg`, framed, to `out`.
pub fn encode(msg: &WireMsg, out: &mut Vec<u8>) {
    let tag = match msg {
        WireMsg::Hello { .. } => tag::HELLO,
        WireMsg::Open => tag::OPEN,
        WireMsg::Push { .. } => tag::PUSH,
        WireMsg::Poll { .. } => tag::POLL,
        WireMsg::Close { .. } => tag::CLOSE,
        WireMsg::Opened { .. } => tag::OPENED,
        WireMsg::Result { .. } => tag::RESULT,
        WireMsg::Reject { .. } => tag::REJECT,
        WireMsg::Closed { .. } => tag::CLOSED,
    };
    out.push(tag);
    let len_at = out.len();
    put_u32(out, 0); // patched below
    match msg {
        WireMsg::Hello { version, precision } => {
            out.extend_from_slice(&WIRE_MAGIC);
            put_u16(out, *version);
            out.push(precision_to_u8(*precision));
        }
        WireMsg::Open => {}
        WireMsg::Push { session, frame } => {
            put_u64(out, *session);
            put_u16(out, frame.tx_count() as u16);
            put_u16(out, frame.rx_count() as u16);
            put_u16(out, frame.chirps_per_tx() as u16);
            put_u16(out, frame.samples_per_chirp() as u16);
            // One resize, then each sample's 8 bytes in place.
            let start = out.len();
            out.resize(start + 8 * frame.data().len(), 0);
            for (bytes, c) in out[start..].chunks_exact_mut(8).zip(frame.data()) {
                bytes[..4].copy_from_slice(&c.re.to_le_bytes());
                bytes[4..].copy_from_slice(&c.im.to_le_bytes());
            }
        }
        WireMsg::Poll { session } | WireMsg::Close { session } => put_u64(out, *session),
        WireMsg::Opened { session } => put_u64(out, *session),
        WireMsg::Result { session, segment_index, mesh_skipped, skeleton } => {
            put_u64(out, *session);
            put_u64(out, *segment_index);
            out.push(u8::from(*mesh_skipped));
            put_u32(out, skeleton.len() as u32);
            for v in skeleton {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        WireMsg::Reject { session, code } => {
            put_u64(out, *session);
            put_u16(out, code.to_u16());
        }
        WireMsg::Closed { session, stats } => {
            put_u64(out, *session);
            put_u64(out, stats.frames_in);
            put_u64(out, stats.segments_out);
            put_u64(out, stats.meshes_skipped);
        }
    }
    let len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Little cursor over one complete payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(WireError::Malformed { what, value: n as u64 }),
        }
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn finished(&self, what: &'static str) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed { what, value: (self.buf.len() - self.pos) as u64 })
        }
    }
}

fn decode_payload(tag: u8, payload: &[u8]) -> Result<WireMsg, WireError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let msg = match tag {
        tag::HELLO => {
            let magic = r.take(4, "hello magic")?;
            if magic != WIRE_MAGIC {
                return Err(WireError::BadMagic);
            }
            let version = r.u16("hello version")?;
            if version != WIRE_VERSION {
                return Err(WireError::BadVersion { got: version });
            }
            let precision = precision_from_u8(r.u8("hello precision")?)?;
            WireMsg::Hello { version, precision }
        }
        tag::OPEN => WireMsg::Open,
        tag::PUSH => {
            let session = r.u64("push session")?;
            let tx = r.u16("push tx")? as usize;
            let rx = r.u16("push rx")? as usize;
            let chirps = r.u16("push chirps")? as usize;
            let samples = r.u16("push samples")? as usize;
            let total = tx
                .checked_mul(rx)
                .and_then(|v| v.checked_mul(chirps))
                .and_then(|v| v.checked_mul(samples))
                .filter(|&v| v > 0 && v <= MAX_FRAME_SAMPLES)
                .ok_or(WireError::Malformed {
                    what: "push frame extents",
                    value: (tx * rx) as u64,
                })?;
            // The length prefix must agree with the extents *before* the
            // buffer is allocated — a lying header cannot balloon memory.
            if payload.len() != 16 + 8 * total {
                return Err(WireError::Malformed {
                    what: "push payload length",
                    value: payload.len() as u64,
                });
            }
            let data: Vec<Complex> = r
                .take(8 * total, "push samples")?
                .chunks_exact(8)
                .map(|b| {
                    Complex::new(
                        f32::from_le_bytes([b[0], b[1], b[2], b[3]]),
                        f32::from_le_bytes([b[4], b[5], b[6], b[7]]),
                    )
                })
                .collect();
            let frame = RawFrame::from_parts(tx, rx, chirps, samples, data).map_err(|_| {
                WireError::Malformed { what: "push frame geometry", value: total as u64 }
            })?;
            WireMsg::Push { session, frame }
        }
        tag::POLL => WireMsg::Poll { session: r.u64("poll session")? },
        tag::CLOSE => WireMsg::Close { session: r.u64("close session")? },
        tag::OPENED => WireMsg::Opened { session: r.u64("opened session")? },
        tag::RESULT => {
            let session = r.u64("result session")?;
            let segment_index = r.u64("result segment")?;
            let mesh_skipped = r.u8("result mesh flag")? != 0;
            let n = r.u32("result skeleton len")? as usize;
            if n > 4096 {
                return Err(WireError::Malformed { what: "result skeleton len", value: n as u64 });
            }
            let mut skeleton = Vec::with_capacity(n);
            for _ in 0..n {
                skeleton.push(r.f32("result skeleton value")?);
            }
            WireMsg::Result { session, segment_index, mesh_skipped, skeleton }
        }
        tag::REJECT => {
            let session = r.u64("reject session")?;
            let code = RejectCode::from_u16(r.u16("reject code")?)?;
            WireMsg::Reject { session, code }
        }
        tag::CLOSED => {
            let session = r.u64("closed session")?;
            let stats = SessionStats {
                frames_in: r.u64("closed frames_in")?,
                segments_out: r.u64("closed segments_out")?,
                meshes_skipped: r.u64("closed meshes_skipped")?,
            };
            WireMsg::Closed { session, stats }
        }
        other => return Err(WireError::UnknownType { tag: other }),
    };
    r.finished("trailing payload bytes")?;
    Ok(msg)
}

/// Incremental frame decoder over a non-blocking byte stream.
///
/// Feed it whatever chunks the socket delivers; [`Decoder::next_msg`]
/// yields `Ok(Some(_))` per complete message, `Ok(None)` while the buffer
/// holds only a partial message, and `Err` exactly when the stream is
/// structurally invalid (at which point the connection should be dropped —
/// the decoder makes no attempt to resynchronise).
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends raw bytes from the stream.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        // Compact consumed space before growing, keeping the buffer at
        // O(largest in-flight message).
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Tries to decode the next complete message.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation ([`WireError`]); the decoder
    /// is poisoned afterwards in the sense that the caller should drop the
    /// connection rather than continue.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 5 {
            return Ok(None);
        }
        let tag = avail[0];
        if !matches!(
            tag,
            tag::HELLO
                | tag::OPEN
                | tag::PUSH
                | tag::POLL
                | tag::CLOSE
                | tag::OPENED
                | tag::RESULT
                | tag::REJECT
                | tag::CLOSED
        ) {
            return Err(WireError::UnknownType { tag });
        }
        let len = u32::from_le_bytes([avail[1], avail[2], avail[3], avail[4]]);
        if len > MAX_PAYLOAD {
            return Err(WireError::Oversize { len });
        }
        let total = 5 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let msg = decode_payload(tag, &avail[5..total])?;
        self.pos += total;
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(msg: &WireMsg) -> WireMsg {
        let mut bytes = Vec::new();
        encode(msg, &mut bytes);
        let mut d = Decoder::new();
        d.push_bytes(&bytes);
        let out = d.next_msg().expect("decodes").expect("complete");
        assert_eq!(d.pending(), 0, "no leftover bytes");
        out
    }

    /// Encoding then decoding must reproduce the exact bytes — compared by
    /// re-encoding, which sidesteps float/frame equality.
    fn assert_bitwise_roundtrip(msg: &WireMsg) {
        let mut first = Vec::new();
        encode(msg, &mut first);
        let decoded = roundtrip(msg);
        let mut second = Vec::new();
        encode(&decoded, &mut second);
        assert_eq!(first, second, "roundtrip must be bitwise lossless");
    }

    #[test]
    fn control_messages_roundtrip() {
        for msg in [
            WireMsg::Hello { version: WIRE_VERSION, precision: Precision::F32 },
            WireMsg::Hello { version: WIRE_VERSION, precision: Precision::Int8 },
            WireMsg::Open,
            WireMsg::Poll { session: 0x0123_4567_89AB_CDEF },
            WireMsg::Close { session: 42 },
            WireMsg::Opened { session: 7 },
            WireMsg::Reject { session: 3, code: RejectCode::QueueFull },
            WireMsg::Reject { session: 3, code: RejectCode::UnsupportedPrecision },
            WireMsg::Closed {
                session: 9,
                stats: SessionStats { frames_in: 100, segments_out: 50, meshes_skipped: 5 },
            },
        ] {
            assert_bitwise_roundtrip(&msg);
        }
    }

    #[test]
    fn out_of_range_versions_and_bad_precision_bytes_are_typed_errors() {
        for bad_version in [0u16, 1, WIRE_VERSION + 1, u16::MAX] {
            let mut bytes = vec![tag::HELLO];
            bytes.extend_from_slice(&6u32.to_le_bytes());
            bytes.extend_from_slice(&WIRE_MAGIC);
            bytes.extend_from_slice(&bad_version.to_le_bytes());
            let mut d = Decoder::new();
            d.push_bytes(&bytes);
            assert!(
                matches!(d.next_msg(), Err(WireError::BadVersion { got }) if got == bad_version),
                "version {bad_version} must be rejected"
            );
        }
        // A v2 Hello whose precision byte is outside the encoding.
        let mut bytes = vec![tag::HELLO];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.push(9);
        let mut d = Decoder::new();
        d.push_bytes(&bytes);
        assert!(matches!(
            d.next_msg(),
            Err(WireError::Malformed { what: "hello precision", .. })
        ));
    }

    #[test]
    fn push_roundtrips_a_real_frame() {
        let frame = RawFrame::zeroed(&mmhand_radar::ChirpConfig {
            chirps_per_tx: 4,
            samples_per_chirp: 8,
            ..Default::default()
        });
        assert_bitwise_roundtrip(&WireMsg::Push { session: 11, frame });
    }

    #[test]
    fn push_keeps_signed_zero_subnormal_and_nan_payload_bits() {
        let specials = [
            -0.0,
            f32::from_bits(1),           // smallest positive subnormal
            f32::from_bits(0x807F_FFFF), // largest negative subnormal
            f32::from_bits(0x7FC0_1234), // quiet NaN with a payload
            f32::from_bits(0xFF80_0001), // signalling NaN, sign set
            f32::INFINITY,
            f32::MIN_POSITIVE,
        ];
        let (tx, rx, chirps, samples) = (3, 4, 4, 8);
        let data: Vec<Complex> = (0..tx * rx * chirps * samples)
            .map(|k| Complex::new(specials[k % 7], specials[(k + 3) % 7]))
            .collect();
        let want: Vec<(u32, u32)> = data.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect();
        let frame = RawFrame::from_parts(tx, rx, chirps, samples, data).expect("valid geometry");
        match roundtrip(&WireMsg::Push { session: 5, frame }) {
            WireMsg::Push { session, frame } => {
                assert_eq!(session, 5);
                let got: Vec<(u32, u32)> =
                    frame.data().iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect();
                assert_eq!(got, want, "every sample must keep its bits");
            }
            other => panic!("expected a Push, got {other:?}"),
        }
    }

    #[test]
    fn split_delivery_reassembles() {
        let mut bytes = Vec::new();
        encode(&WireMsg::Opened { session: 77 }, &mut bytes);
        encode(&WireMsg::Poll { session: 77 }, &mut bytes);
        let mut d = Decoder::new();
        for b in &bytes {
            d.push_bytes(std::slice::from_ref(b));
        }
        assert!(matches!(d.next_msg(), Ok(Some(WireMsg::Opened { session: 77 }))));
        assert!(matches!(d.next_msg(), Ok(Some(WireMsg::Poll { session: 77 }))));
        assert!(matches!(d.next_msg(), Ok(None)));
    }

    #[test]
    fn oversize_and_unknown_tags_are_rejected() {
        let mut d = Decoder::new();
        d.push_bytes(&[tag::OPEN, 0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(matches!(d.next_msg(), Err(WireError::Oversize { .. })));
        let mut d = Decoder::new();
        d.push_bytes(&[0x7F, 0, 0, 0, 0]);
        assert!(matches!(d.next_msg(), Err(WireError::UnknownType { tag: 0x7F })));
    }

    #[test]
    fn lying_push_header_cannot_balloon_memory() {
        // Extents far beyond MAX_FRAME_SAMPLES but a small actual payload.
        let mut bytes = vec![tag::PUSH];
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // session
        for extent in [0xFFFFu16; 4] {
            bytes.extend_from_slice(&extent.to_le_bytes());
        }
        let mut d = Decoder::new();
        d.push_bytes(&bytes);
        assert!(matches!(d.next_msg(), Err(WireError::Malformed { .. })));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Truncating a valid stream at any byte boundary never errors —
        /// it just waits for the rest; delivering the remainder completes
        /// the message bitwise.
        #[test]
        fn truncation_is_never_an_error(cut in 0usize..64, session in 0u64..=u64::MAX, seg in 0u64..=u64::MAX) {
            let msg = WireMsg::Result {
                session,
                segment_index: seg,
                mesh_skipped: false,
                skeleton: vec![1.5f32; 9],
            };
            let mut bytes = Vec::new();
            encode(&msg, &mut bytes);
            let cut = cut.min(bytes.len().saturating_sub(1));
            let mut d = Decoder::new();
            d.push_bytes(&bytes[..cut]);
            prop_assert!(matches!(d.next_msg(), Ok(None)), "truncated stream must wait");
            d.push_bytes(&bytes[cut..]);
            let mut out = Vec::new();
            match d.next_msg() {
                Ok(Some(m)) => encode(&m, &mut out),
                other => {
                    prop_assert!(false, "remainder must complete: {:?}", other);
                }
            }
            prop_assert_eq!(out, bytes);
        }

        /// A garbage prefix (any first byte outside the tag set) is a
        /// typed error, not a panic or a silent skip.
        #[test]
        fn garbage_prefix_is_a_typed_error(head in 6u8..128, rest in proptest::collection::vec(0u8..=255, 0..64)) {
            let mut d = Decoder::new();
            let mut bytes = vec![head];
            bytes.extend_from_slice(&rest);
            d.push_bytes(&bytes);
            if bytes.len() >= 5 {
                prop_assert!(matches!(d.next_msg(), Err(WireError::UnknownType { .. })));
            } else {
                prop_assert!(matches!(d.next_msg(), Ok(None)));
            }
        }

        /// Arbitrary byte soup never panics the decoder: every outcome is
        /// a typed message, a wait, or a typed error.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            let mut d = Decoder::new();
            d.push_bytes(&bytes);
            // Drain until the decoder stalls or errors; both are fine.
            for _ in 0..64 {
                match d.next_msg() {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}
