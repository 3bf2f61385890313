//! The federation wire format: labels and payloads in serialized form.
//!
//! Every cross-kernel exchange is one [`WireMsg`] inside one *frame*:
//!
//! ```text
//! magic "ASWM" (4) | version u8 | body-len u32 LE | crc32 u32 LE | body
//! ```
//!
//! The CRC (the store crate's snapshot polynomial) covers exactly the
//! body, so a flipped bit anywhere in a frame is detected before any
//! field is interpreted, and the version byte sits *outside* the body so
//! a future v2 can change the body layout freely — same discipline as
//! the snapshot codec's header.
//!
//! **One hop, one check.** A frame travels on the link from the kernel
//! that sent it to the kernel it is for, so it is checksummed twice —
//! written by the source gateway, verified by the destination gateway's
//! [`decode_frame`] — and nothing reads it in between. [`decode_frame`]
//! checks the header, the length and the CRC (the only pass over every
//! byte) before [`decode_body`] interprets any field.
//!
//! **Labels travel in their §5.6 shape and in one form only.** A label is
//! its default level's bits, an entry count, and its explicit entries as
//! `handle << 3 | level-bits` — the `u64` packing the in-memory chunks
//! use, copied out chunk by chunk. The run must be *canonical*, exactly
//! what [`Label::packed_entries`] yields: level bits 0–4, handles strictly
//! ascending, no entry at the default level. The decoder checks that in
//! place and builds dense 64-entry chunks straight from the bytes
//! ([`Label::from_packed_ascending`]); anything else is
//! [`WireError::BadLevel`] or [`WireError::NonCanonical`] — a label off
//! the wire is *checked*, never trusted and never repaired, so no two
//! byte strings decode to the same message and whatever decodes
//! re-encodes to the bytes it came from.
//!
//! **No length is believed before it is paid for.** A CRC is not a MAC: a
//! well-checksummed frame can claim anything. Every count is checked
//! against the bytes that remain before anything is reserved for it, and
//! a list's `Vec` grows as its elements decode.
//!
//! Payload bytes are zero-copy on both sides of the boundary that
//! matters: encoding appends a [`Payload`]'s bytes straight out of its
//! backing store (no intermediate `Payload` materialization), and
//! decoding pins the whole received body in one `Arc<[u8]>` when it meets
//! the first `Value::Bytes`, so every one in the decoded message is a
//! [`Payload::from_arc`] slice view of it — one copy per frame (socket
//! buffer → body arc), no matter how many payloads the message carries.

use std::sync::Arc;

use asbestos_kernel::{Payload, Value};
use asbestos_labels::chunk::entry_handle;
use asbestos_labels::{Handle, Label, Level};
use asbestos_store::{codec, crc32};

/// Frame magic: "ASbestos Wire Message".
pub const MAGIC: [u8; 4] = *b"ASWM";

/// Current wire format version.
pub const WIRE_VERSION: u8 = 1;

/// Frame header size: magic + version + body length + CRC.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Upper bound on a frame body. Far above anything the kernel can emit
/// (message payloads are bounded by queue limits long before this), it
/// exists so garbage that happens to spell a huge length cannot make a
/// connection buffer gigabytes waiting for bytes that never come.
pub const MAX_BODY_LEN: usize = 1 << 26;

/// Recursion bound for `Value::List` nesting on decode.
const MAX_VALUE_DEPTH: u32 = 64;

/// Everything that can be wrong with bytes claiming to be a frame.
///
/// `decode_frame` distinguishes "not enough bytes yet" (`Ok(None)` — a
/// streaming read mid-frame) from these, which are all *corruption*: the
/// bytes can never become a valid frame no matter what arrives next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The first four bytes are not `ASWM`.
    BadMagic,
    /// The version byte is not one this decoder speaks.
    BadVersion(u8),
    /// The declared body length exceeds [`MAX_BODY_LEN`].
    FrameTooLong(usize),
    /// The body checksum does not match.
    BadCrc,
    /// An unknown message tag.
    BadTag(u8),
    /// An unknown `Value` variant tag.
    BadValueTag(u8),
    /// A CRC-valid body ended before its fields did.
    Truncated,
    /// A CRC-valid body has bytes left over after its message.
    TrailingBytes,
    /// A string field is not UTF-8.
    BadText,
    /// A handle field (a port or a `Value::Handle`) exceeds 61 bits.
    BadHandle,
    /// A label's default or a packed label entry encodes level bits 5–7.
    BadLevel,
    /// A field is well-formed but not as the encoder writes it, so two
    /// byte strings would decode to one message: a label run that is not
    /// strictly ascending by handle (out of order, or a handle repeated)
    /// or carries an entry at the label's default level, a label default
    /// byte with bits set above its three level bits, or a boolean byte
    /// other than 0 or 1. Rejected, never repaired.
    NonCanonical,
    /// `Value::List` nesting deeper than the decoder's recursion bound.
    TooDeep,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::FrameTooLong(n) => write!(f, "frame body of {n} bytes exceeds limit"),
            WireError::BadCrc => write!(f, "frame body failed CRC"),
            WireError::BadTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadValueTag(t) => write!(f, "unknown value tag {t}"),
            WireError::Truncated => write!(f, "frame body truncated"),
            WireError::TrailingBytes => write!(f, "frame body has trailing bytes"),
            WireError::BadText => write!(f, "string field is not UTF-8"),
            WireError::BadHandle => write!(f, "handle exceeds 61 bits"),
            WireError::BadLevel => write!(f, "invalid level bits"),
            WireError::NonCanonical => write!(f, "field is not in canonical form"),
            WireError::TooDeep => write!(f, "value nesting too deep"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<codec::CodecError> for WireError {
    fn from(e: codec::CodecError) -> WireError {
        match e {
            codec::CodecError::Truncated => WireError::Truncated,
            codec::CodecError::BadText => WireError::BadText,
            codec::CodecError::TrailingBytes => WireError::TrailingBytes,
        }
    }
}

/// Wire corruption on a socket is `InvalidData`: framing errors are not
/// recoverable mid-stream, so the connection that carried them dies.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// A federation message.
///
/// `EnvSet` replicates the global environment (§4's bootstrap namespace)
/// across kernels; `Forward` carries one cross-kernel message — the
/// sender's effective send label `E_S` and the `SEND` arguments, exactly
/// what the destination kernel needs to re-run the Figure 4 check against
/// *its own* state. No message says where a port lives: its value does
/// (see [`crate::switch`]).
#[derive(Clone, PartialEq, Debug)]
pub enum WireMsg {
    /// Replicate one global-environment binding.
    EnvSet { key: String, value: Value },
    /// One cross-kernel message: deliver `body` to `port` under these labels.
    Forward {
        port: Handle,
        /// The sender's effective send label `E_S = P_S ⊔ C_S`, snapshotted
        /// at send time on the source kernel.
        es: Label,
        /// Decontamination argument `D_S` (already privilege-checked at send).
        ds: Label,
        /// Receiver decontamination bound `D_R`.
        dr: Label,
        /// Verification label `V`.
        v: Label,
        body: Value,
    },
}

// Tags 0–4 and 7 are retired — a `Hello` that nothing read, a port
// directory's four messages, and a `Bye` that nothing sent: they decode as
// `BadTag`, and a new message must not reuse them.
const TAG_ENV_SET: u8 = 5;
const TAG_FORWARD: u8 = 6;

const VTAG_UNIT: u8 = 0;
const VTAG_BOOL: u8 = 1;
const VTAG_U64: u8 = 2;
const VTAG_BYTES: u8 = 3;
const VTAG_STR: u8 = 4;
const VTAG_HANDLE: u8 = 5;
const VTAG_LIST: u8 = 6;

// ---------------------------------------------------------------- encode

/// Appends `msg` as one complete frame to `out`.
pub fn encode_frame(msg: &WireMsg, out: &mut Vec<u8>) {
    let header_at = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&[0u8; 8]); // length + CRC, patched below
    let body_at = out.len();
    encode_body(msg, out);
    let body_len = out.len() - body_at;
    debug_assert!(body_len <= MAX_BODY_LEN, "kernel emitted an absurd frame");
    let crc = crc32(&out[body_at..]);
    out[header_at + 5..header_at + 9].copy_from_slice(&(body_len as u32).to_le_bytes());
    out[header_at + 9..header_at + 13].copy_from_slice(&crc.to_le_bytes());
}

fn encode_body(msg: &WireMsg, out: &mut Vec<u8>) {
    match msg {
        WireMsg::EnvSet { key, value } => {
            out.push(TAG_ENV_SET);
            encode_str(key, out);
            encode_value(value, out);
        }
        WireMsg::Forward {
            port,
            es,
            ds,
            dr,
            v,
            body,
        } => {
            out.push(TAG_FORWARD);
            out.extend_from_slice(&port.raw().to_le_bytes());
            encode_label(es, out);
            encode_label(ds, out);
            encode_label(dr, out);
            encode_label(v, out);
            encode_value(body, out);
        }
    }
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// §5.6 packed form: default-level bits, entry count, then each explicit
/// entry as `handle << 3 | level-bits` — the in-memory chunk packing, so
/// the label's chunks are copied out word for word.
fn encode_label(label: &Label, out: &mut Vec<u8>) {
    out.reserve(5 + 8 * label.entry_count());
    out.push(label.default_level().to_bits() as u8);
    out.extend_from_slice(&(label.entry_count() as u32).to_le_bytes());
    label
        .packed_entries()
        .for_each(|packed| out.extend_from_slice(&packed.to_le_bytes()));
}

fn encode_value(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Unit => out.push(VTAG_UNIT),
        Value::Bool(b) => {
            out.push(VTAG_BOOL);
            out.push(*b as u8);
        }
        Value::U64(n) => {
            out.push(VTAG_U64);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Bytes(p) => {
            out.push(VTAG_BYTES);
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            // Straight out of the payload's backing store — egress never
            // materializes an intermediate Payload.
            out.extend_from_slice(p.as_slice());
        }
        Value::Str(s) => {
            out.push(VTAG_STR);
            encode_str(s, out);
        }
        Value::Handle(h) => {
            out.push(VTAG_HANDLE);
            out.extend_from_slice(&h.raw().to_le_bytes());
        }
        Value::List(items) => {
            out.push(VTAG_LIST);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
    }
}

// ---------------------------------------------------------------- decode

/// Tries to decode one frame from the front of `buf`. The header and
/// the CRC are checked before any field of the body is read.
///
/// * `Ok(Some((msg, consumed)))` — a complete frame; the caller should
///   drop the first `consumed` bytes.
/// * `Ok(None)` — `buf` holds a valid prefix of a frame; read more.
/// * `Err(_)` — the bytes are corrupt and the connection should die.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(WireMsg, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        if !MAGIC.starts_with(&buf[..buf.len().min(4)]) {
            return Err(WireError::BadMagic);
        }
        return Ok(None);
    }
    if buf[..4] != MAGIC {
        return Err(WireError::BadMagic);
    }
    if buf[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(buf[4]));
    }
    let body_len = u32::from_le_bytes(buf[5..9].try_into().unwrap()) as usize;
    if body_len > MAX_BODY_LEN {
        return Err(WireError::FrameTooLong(body_len));
    }
    let crc_want = u32::from_le_bytes(buf[9..13].try_into().unwrap());
    let Some(body) = buf.get(HEADER_LEN..HEADER_LEN + body_len) else {
        return Ok(None);
    };
    if crc32(body) != crc_want {
        return Err(WireError::BadCrc);
    }
    Ok(Some((decode_body(body)?, HEADER_LEN + body_len)))
}

/// Decodes the body of a frame whose header and CRC checked out.
pub fn decode_body(body: &[u8]) -> Result<WireMsg, WireError> {
    let mut r = Reader::new(body);
    let tag = r.bytes.u8()?;
    let msg = match tag {
        TAG_ENV_SET => WireMsg::EnvSet {
            key: r.bytes.str()?.to_owned(),
            value: r.value(0)?,
        },
        TAG_FORWARD => WireMsg::Forward {
            port: r.handle()?,
            es: r.label()?,
            ds: r.label()?,
            dr: r.label()?,
            v: r.label()?,
            body: r.value(0)?,
        },
        t => return Err(WireError::BadTag(t)),
    };
    r.bytes.finish()?;
    Ok(msg)
}

/// A cursor over one frame body: the store's bounded [`codec::Reader`]
/// plus the wire's own fields. Every accept/reject decision of the codec
/// is one of their methods.
struct Reader<'a> {
    bytes: codec::Reader<'a>,
    body: &'a [u8],
    /// The body, pinned for `Value::Bytes` views; made on first use, so a
    /// message without one never copies it.
    pin: Option<Arc<[u8]>>,
}

impl<'a> Reader<'a> {
    fn new(body: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes: codec::Reader::new(body),
            body,
            pin: None,
        }
    }

    /// The encoder writes 0 or 1; any other byte would decode to a
    /// message that re-encodes differently.
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.bytes.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::NonCanonical),
        }
    }

    fn handle(&mut self) -> Result<Handle, WireError> {
        Handle::new(self.bytes.u64()?).ok_or(WireError::BadHandle)
    }

    /// Checks one label's packed run in place — valid level bits, handles
    /// strictly ascending, no entry at the default — then builds the label
    /// straight from it.
    fn label(&mut self) -> Result<Label, WireError> {
        let bits = self.bytes.u8()?;
        let default = Level::from_bits(bits.into()).ok_or(WireError::BadLevel)?;
        // `from_bits` reads the low three bits; the byte is only those.
        if default.to_bits() != u64::from(bits) {
            return Err(WireError::NonCanonical);
        }
        // Eight bytes an entry: a count the body cannot hold is refused
        // before anything is allocated for it.
        let count = self.bytes.count(8)?;
        let run = self.bytes.take(count * 8)?;
        let mut prev = None;
        for packed in packed_words(run) {
            let level = Level::from_bits(packed & 0x7).ok_or(WireError::BadLevel)?;
            let handle = entry_handle(packed);
            if level == default || prev >= Some(handle) {
                return Err(WireError::NonCanonical);
            }
            prev = Some(handle);
        }
        Label::from_packed_ascending(default, packed_words(run)).ok_or(WireError::NonCanonical)
    }

    /// The value at the cursor, `depth` lists down.
    fn value(&mut self, depth: u32) -> Result<Value, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep);
        }
        Ok(match self.bytes.u8()? {
            VTAG_UNIT => Value::Unit,
            VTAG_BOOL => Value::Bool(self.bool()?),
            VTAG_U64 => Value::U64(self.bytes.u64()?),
            VTAG_BYTES => {
                let len = self.bytes.blob()?.len();
                let end = self.bytes.pos();
                // Zero-copy ingest: a slice view of the pinned frame body.
                let pin = self.pin.get_or_insert_with(|| Arc::from(self.body));
                Value::Bytes(Payload::from_arc(Arc::clone(pin)).slice(end - len..end))
            }
            VTAG_STR => Value::Str(self.bytes.str()?.to_owned()),
            VTAG_HANDLE => Value::Handle(self.handle()?),
            VTAG_LIST => {
                // Every element takes at least its tag byte, so a count
                // the bytes left cannot hold is refused; the `Vec` still
                // grows as elements decode: a CRC is not a MAC, and a
                // claimed count must not reserve 40 bytes per 1-byte
                // element before the first one is read.
                let mut items = Vec::new();
                for _ in 0..self.bytes.count(1)? {
                    items.push(self.value(depth + 1)?);
                }
                Value::List(items)
            }
            t => return Err(WireError::BadValueTag(t)),
        })
    }
}

/// A checked label run's bytes as packed `handle << 3 | level` words.
fn packed_words(run: &[u8]) -> impl Iterator<Item = u64> + '_ {
    run.chunks_exact(8)
        .map(|e| u64::from_le_bytes(e.try_into().unwrap()))
}

/// Frames and bodies for this crate's tests, assembled by hand where the
/// encoder would refuse to write them.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// A frame around a hand-assembled body, CRC and all: what a peer that
    /// does not use [`encode_frame`] can put on the wire.
    pub(crate) fn frame_around(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(WIRE_VERSION);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// A `Forward` body for port 5 with `body` `Unit` and four uniform
    /// labels, `es` then taking `es_run` as its packed entries verbatim and
    /// `ds` taking `ds_default` as its default-level byte.
    pub(crate) fn raw_forward_body(es_run: &[u64], ds_default: u8) -> Vec<u8> {
        let mut body = vec![TAG_FORWARD];
        body.extend_from_slice(&5u64.to_le_bytes());
        body.push(Level::L1.to_bits() as u8);
        body.extend_from_slice(&(es_run.len() as u32).to_le_bytes());
        for packed in es_run {
            body.extend_from_slice(&packed.to_le_bytes());
        }
        for default in [
            ds_default,
            Level::Star.to_bits() as u8,
            Level::L3.to_bits() as u8,
        ] {
            body.push(default);
            body.extend_from_slice(&0u32.to_le_bytes());
        }
        body.push(VTAG_UNIT);
        body
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::{frame_around, raw_forward_body};
    use super::*;
    use asbestos_labels::chunk::pack;
    use asbestos_labels::HANDLE_SPACE;

    fn roundtrip(msg: &WireMsg) -> WireMsg {
        let mut buf = Vec::new();
        encode_frame(msg, &mut buf);
        let (got, used) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(used, buf.len());
        got
    }

    #[test]
    fn every_variant_roundtrips() {
        let label = Label::from_pairs(
            Level::L1,
            &[
                (Handle::from_raw(7), Level::Star),
                (Handle::from_raw(HANDLE_SPACE - 1), Level::L3),
            ],
        );
        let msgs = [
            WireMsg::EnvSet {
                key: "okws.worker.ws.port".into(),
                value: Value::Handle(Handle::from_raw(9)),
            },
            WireMsg::Forward {
                port: Handle::from_raw(5),
                es: label.clone(),
                ds: Label::top(),
                dr: label.clone(),
                v: Label::bottom(),
                body: Value::List(vec![
                    Value::Unit,
                    Value::Bool(true),
                    Value::U64(u64::MAX),
                    Value::Bytes(Payload::copy_from_slice(b"hello")),
                    Value::Str("s".into()),
                    Value::Handle(Handle::from_raw(1)),
                ]),
            },
        ];
        for msg in &msgs {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn streaming_prefixes_ask_for_more() {
        let mut buf = Vec::new();
        encode_frame(
            &WireMsg::EnvSet {
                key: "k".into(),
                value: Value::U64(7),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]).unwrap(), None);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut buf = Vec::new();
        encode_frame(
            &WireMsg::EnvSet {
                key: "k".into(),
                value: Value::Handle(Handle::from_raw(3)),
            },
            &mut buf,
        );
        // Flip one bit in the body: CRC must catch it.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert_eq!(decode_frame(&bad), Err(WireError::BadCrc));
        // Wrong magic.
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert_eq!(decode_frame(&bad), Err(WireError::BadMagic));
        // Future version.
        let mut bad = buf.clone();
        bad[4] = 2;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(2)));
    }

    #[test]
    fn ingest_payloads_share_the_frame_body() {
        let msg = WireMsg::Forward {
            port: Handle::from_raw(1),
            es: Label::bottom(),
            ds: Label::bottom(),
            dr: Label::bottom(),
            v: Label::bottom(),
            body: Value::List(vec![
                Value::Bytes(Payload::copy_from_slice(b"abc")),
                Value::Bytes(Payload::copy_from_slice(b"defg")),
            ]),
        };
        let mut buf = Vec::new();
        encode_frame(&msg, &mut buf);
        let (got, _) = decode_frame(&buf).unwrap().unwrap();
        let WireMsg::Forward {
            body: Value::List(items),
            ..
        } = got
        else {
            panic!("wrong shape")
        };
        let ids: Vec<_> = items
            .iter()
            .map(|v| v.as_payload().unwrap().backing_id())
            .collect();
        // Both payloads are views of the one pinned frame body.
        assert_eq!(ids[0], ids[1]);
        assert_eq!(items[0].as_bytes().unwrap(), b"abc");
        assert_eq!(items[1].as_bytes().unwrap(), b"defg");
    }

    fn forward_with_es_run(run: &[u64]) -> Vec<u8> {
        raw_forward_body(run, Level::L3.to_bits() as u8)
    }

    /// The decoder's verdict on one CRC-valid body.
    fn decode_checked(body: &[u8]) -> Result<WireMsg, WireError> {
        decode_frame(&frame_around(body)).map(|f| f.expect("complete frame").0)
    }

    #[test]
    fn a_canonical_hand_assembled_run_decodes() {
        let run = [pack(3, Level::Star), pack(9, Level::L3)];
        let Ok(WireMsg::Forward { es, .. }) = decode_checked(&forward_with_es_run(&run)) else {
            panic!("canonical run refused")
        };
        assert_eq!(
            es,
            Label::from_pairs(
                Level::L1,
                &[
                    (Handle::from_raw(3), Level::Star),
                    (Handle::from_raw(9), Level::L3)
                ]
            )
        );
    }

    #[test]
    fn non_canonical_label_runs_are_rejected_not_repaired() {
        let runs: [(&str, Vec<u64>); 3] = [
            ("descending", vec![pack(9, Level::L3), pack(3, Level::Star)]),
            (
                "repeated handle",
                vec![pack(3, Level::Star), pack(3, Level::L3)],
            ),
            (
                "entry at the default level",
                vec![pack(3, Level::Star), pack(9, Level::L1)],
            ),
        ];
        for (what, run) in &runs {
            assert_eq!(
                decode_checked(&forward_with_es_run(run)),
                Err(WireError::NonCanonical),
                "{what}"
            );
        }
    }

    #[test]
    fn unused_level_encodings_are_rejected() {
        for bits in 5..8u64 {
            let run = [pack(3, Level::Star), 9 << 3 | bits];
            assert_eq!(
                decode_checked(&forward_with_es_run(&run)),
                Err(WireError::BadLevel),
                "entry level bits {bits}"
            );
            // ... and as a label's default.
            let mut body = forward_with_es_run(&[]);
            body[9] = bits as u8;
            assert_eq!(
                decode_checked(&body),
                Err(WireError::BadLevel),
                "default level bits {bits}"
            );
        }
    }

    /// Found by `crc_valid_mutations`: a default byte of 0x6A has L1's low
    /// three bits, and used to decode as L1 and re-encode as 0x02.
    #[test]
    fn a_label_default_byte_is_only_its_level_bits() {
        let mut body = forward_with_es_run(&[]);
        body[9] = 0x68 | Level::L1.to_bits() as u8;
        assert_eq!(decode_checked(&body), Err(WireError::NonCanonical));
    }

    #[test]
    fn non_canonical_booleans_are_rejected() {
        let mut body = vec![TAG_ENV_SET];
        encode_str("k", &mut body);
        body.extend_from_slice(&[VTAG_BOOL, 2]);
        assert_eq!(decode_checked(&body), Err(WireError::NonCanonical));
    }

    /// What a retired message's body looked like — a tag, then a port or
    /// two kernel ids — is an unknown tag.
    #[test]
    fn retired_tags_are_unknown() {
        for tag in [0, 1, 2, 3, 4, 7] {
            let mut body = vec![tag];
            body.extend_from_slice(&42u64.to_le_bytes());
            assert_eq!(decode_checked(&body), Err(WireError::BadTag(tag)));
        }
    }

    #[test]
    fn label_shapes_at_the_edges_roundtrip() {
        let max = Handle::from_raw(HANDLE_SPACE - 1);
        let wide: Vec<(Handle, Level)> = (0..8 * 64 + 1)
            .map(|i| (Handle::from_raw(i * 7 + 1), Level::Star))
            .collect();
        let labels = [
            Label::from_pairs(Level::Star, &[(max, Level::L3)]),
            Label::default_send(),
            Label::from_pairs(Level::L1, &wide),
        ];
        for label in labels {
            let msg = WireMsg::Forward {
                port: max,
                es: label.clone(),
                ds: Label::top(),
                dr: Label::bottom(),
                v: label.clone(),
                body: Value::Handle(max),
            };
            let WireMsg::Forward { es, .. } = roundtrip(&msg) else {
                panic!("wrong shape")
            };
            // Equal, and laid out as `from_pairs` lays it out: dense
            // chunks, so the accounted size does not depend on which side
            // of the wire a label was built.
            assert_eq!(es, label);
            assert_eq!(es.chunk_count(), label.chunk_count());
            assert_eq!(es.heap_bytes(), label.heap_bytes());
            es.check_invariants();
        }
    }

    /// A CRC is not a MAC: a frame can claim anything. The list below
    /// claims one element per remaining byte of a 4 MiB body — 40 bytes of
    /// `Value` each if the claim were believed — and its first element is
    /// garbage. (No allocator hook: at a decoder that reserves for the
    /// claim this test passes too, 160 MiB later.)
    #[test]
    fn a_claimed_list_length_reserves_nothing() {
        let mut body = vec![TAG_ENV_SET];
        encode_str("k", &mut body);
        body.push(VTAG_LIST);
        let rest = (4 << 20) - body.len() - 4;
        body.extend_from_slice(&(rest as u32).to_le_bytes());
        body.resize(4 << 20, 0xFF);
        assert_eq!(decode_checked(&body), Err(WireError::BadValueTag(0xFF)));
    }

    /// One `Forward` frame exactly as the codec wrote it when `crc32` was
    /// a byte-at-a-time loop and labels decoded through `from_pairs`: old
    /// bytes must still verify, decode, and come back out bit for bit.
    #[test]
    fn a_frame_written_before_this_codec_still_decodes() {
        let hex = "4153574d01790000004d6a110c0600200000000000000203000000380000\
                   00000000000c80000000000000f9ffffffffffffff04000000000000000000\
                   04010000004b0000000000000006060000000406000000726561642d720312\
                   000000474554202f20485454502f312e300d0a0d0a052a0000000000000001\
                   0102000000000001000000";
        let frozen: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let (msg, used) = decode_frame(&frozen).unwrap().unwrap();
        assert_eq!(used, frozen.len());
        let want = WireMsg::Forward {
            port: Handle::from_raw(0x2000),
            es: Label::from_pairs(
                Level::L1,
                &[
                    (Handle::from_raw(7), Level::Star),
                    (Handle::from_raw(0x1001), Level::L3),
                    (Handle::from_raw(HANDLE_SPACE - 1), Level::L0),
                ],
            ),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::from_pairs(Level::L3, &[(Handle::from_raw(9), Level::L2)]),
            body: Value::List(vec![
                Value::Str("read-r".into()),
                Value::Bytes(Payload::copy_from_slice(b"GET / HTTP/1.0\r\n\r\n")),
                Value::Handle(Handle::from_raw(42)),
                Value::Bool(true),
                Value::U64(1 << 40),
                Value::Unit,
            ]),
        };
        assert_eq!(msg, want);
        let mut again = Vec::new();
        encode_frame(&msg, &mut again);
        assert_eq!(again, frozen);
    }
}
