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
//! **One CRC pass per hop.** Decoding is two steps: [`check_frame`] frames
//! the bytes (header, length, checksum — the only pass over every byte)
//! and [`decode_body`] interprets them; [`decode_frame`] is the two in
//! sequence. The switch makes the first step once per frame and then, for
//! a `Forward`, calls [`forward_port`] instead of the second: the same
//! walk over the same field checks, building nothing, after which it
//! relays the frame's original bytes. A frame is therefore checksummed
//! three times between two kernels — written by the source gateway,
//! verified by the switch, verified by the destination gateway — and
//! never re-encoded on the way.
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
use asbestos_store::crc32;

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
    /// or carries an entry at the label's default level, or a boolean
    /// byte other than 0 or 1. Rejected, never repaired.
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

/// Wire corruption on a socket is `InvalidData`: framing errors are not
/// recoverable mid-stream, so the connection that carried them dies.
impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// A federation message.
///
/// `Hello`/`Bye` bracket a connection; `Register`/`Unregister`/`Resolve`/
/// `ResolveR` are the port directory protocol (the switch answers
/// `Resolve` and pushes `ResolveR` on every `Register`, so gateways
/// normally never need to ask); `EnvSet` replicates the global
/// environment (§4's bootstrap namespace) across kernels; `Forward`
/// carries one cross-kernel message — the sender's effective send label
/// `E_S` and the `SEND` arguments, exactly what the destination kernel
/// needs to re-run the Figure 4 check against *its own* state.
#[derive(Clone, PartialEq, Debug)]
pub enum WireMsg {
    /// Connection preamble: "I am kernel `kernel` of `kernels`".
    Hello { kernel: u16, kernels: u16 },
    /// The sending kernel owns this port; route `Forward`s for it here.
    Register { port: Handle },
    /// The port is gone (its owner died or revoked it).
    Unregister { port: Handle },
    /// Where does this port live? (Pull path; push via `ResolveR` is the norm.)
    Resolve { port: Handle },
    /// Directory answer/update: `kernel` owns `port` (`None`: nobody does).
    ResolveR { port: Handle, kernel: Option<u16> },
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
    /// Orderly goodbye.
    Bye,
}

const TAG_HELLO: u8 = 0;
const TAG_REGISTER: u8 = 1;
const TAG_UNREGISTER: u8 = 2;
const TAG_RESOLVE: u8 = 3;
const TAG_RESOLVE_R: u8 = 4;
const TAG_ENV_SET: u8 = 5;
const TAG_FORWARD: u8 = 6;
const TAG_BYE: u8 = 7;

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
        WireMsg::Hello { kernel, kernels } => {
            out.push(TAG_HELLO);
            out.extend_from_slice(&kernel.to_le_bytes());
            out.extend_from_slice(&kernels.to_le_bytes());
        }
        WireMsg::Register { port } => {
            out.push(TAG_REGISTER);
            out.extend_from_slice(&port.raw().to_le_bytes());
        }
        WireMsg::Unregister { port } => {
            out.push(TAG_UNREGISTER);
            out.extend_from_slice(&port.raw().to_le_bytes());
        }
        WireMsg::Resolve { port } => {
            out.push(TAG_RESOLVE);
            out.extend_from_slice(&port.raw().to_le_bytes());
        }
        WireMsg::ResolveR { port, kernel } => {
            out.push(TAG_RESOLVE_R);
            out.extend_from_slice(&port.raw().to_le_bytes());
            match kernel {
                Some(k) => {
                    out.push(1);
                    out.extend_from_slice(&k.to_le_bytes());
                }
                None => out.push(0),
            }
        }
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
        WireMsg::Bye => out.push(TAG_BYE),
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

/// Frames the bytes at the front of `buf`: checks the header and the CRC
/// — the one pass a hop makes over a frame's bytes before it believes
/// any of them — and hands back the body, interpreting none of it.
///
/// * `Ok(Some(body))` — a complete, checksummed frame: `buf[..HEADER_LEN +
///   body.len()]`.
/// * `Ok(None)` — `buf` holds a valid prefix of a frame; read more.
/// * `Err(_)` — the bytes are corrupt and the connection should die.
pub fn check_frame(buf: &[u8]) -> Result<Option<&[u8]>, WireError> {
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
    Ok(Some(body))
}

/// Tries to decode one frame from the front of `buf`.
///
/// * `Ok(Some((msg, consumed)))` — a complete frame; the caller should
///   drop the first `consumed` bytes.
/// * `Ok(None)` — `buf` holds a valid prefix of a frame; read more.
/// * `Err(_)` — the bytes are corrupt and the connection should die.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(WireMsg, usize)>, WireError> {
    let Some(body) = check_frame(buf)? else {
        return Ok(None);
    };
    Ok(Some((decode_body(body)?, HEADER_LEN + body.len())))
}

/// Decodes the body of a frame [`check_frame`] accepted.
pub fn decode_body(body: &[u8]) -> Result<WireMsg, WireError> {
    let mut r = Reader::new(body);
    let tag = r.u8()?;
    let msg = match tag {
        TAG_HELLO => WireMsg::Hello {
            kernel: r.u16()?,
            kernels: r.u16()?,
        },
        TAG_REGISTER => WireMsg::Register { port: r.handle()? },
        TAG_UNREGISTER => WireMsg::Unregister { port: r.handle()? },
        TAG_RESOLVE => WireMsg::Resolve { port: r.handle()? },
        TAG_RESOLVE_R => WireMsg::ResolveR {
            port: r.handle()?,
            kernel: match r.bool()? {
                true => Some(r.u16()?),
                false => None,
            },
        },
        TAG_ENV_SET => WireMsg::EnvSet {
            key: r.str()?.to_owned(),
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
        TAG_BYE => WireMsg::Bye,
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// The relay's view of a body: if it is a `Forward`, walks it exactly as
/// [`decode_body`] would — every check, in the same order, through the
/// same `Reader` methods — but builds no `Label`, `Value` or `Vec`, and
/// returns the destination port. `Ok(None)` is any other tag, unwalked.
///
/// `forward_port(b)` is `Ok(Some(port))` iff `decode_body(b)` is
/// `Ok(WireMsg::Forward { port, .. })`, and is `Err(e)` iff `decode_body`
/// of a `Forward`-tagged body is `Err(e)` (`tests/wire_proptests.rs`).
pub fn forward_port(body: &[u8]) -> Result<Option<Handle>, WireError> {
    let mut r = Reader::new(body);
    if r.u8()? != TAG_FORWARD {
        return Ok(None);
    }
    let port = r.handle()?;
    for _ in 0..4 {
        r.label_run()?;
    }
    r.skip_value(0)?;
    r.finish()?;
    Ok(Some(port))
}

/// A cursor over one frame body. Every accept/reject decision of the
/// codec is one of its methods; [`decode_body`] and [`forward_port`]
/// differ only in whether they build what the checked bytes describe.
struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// The body, pinned for `Value::Bytes` views; made on first use, so a
    /// walk that builds nothing never copies it.
    pin: Option<Arc<[u8]>>,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Reader<'a> {
        Reader {
            data,
            pos: 0,
            pin: None,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.data.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos != self.data.len() {
            return Err(WireError::TrailingBytes);
        }
        Ok(())
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// The encoder writes 0 or 1; any other byte would decode to a
    /// message that re-encodes differently.
    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::NonCanonical),
        }
    }

    fn handle(&mut self) -> Result<Handle, WireError> {
        Handle::new(self.u64()?).ok_or(WireError::BadHandle)
    }

    /// A `u32` length and that many bytes.
    fn blob(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.blob()?).map_err(|_| WireError::BadText)
    }

    /// Checks one label's packed run in place — valid level bits, handles
    /// strictly ascending, no entry at the default — and hands back the
    /// default and the run's bytes.
    fn label_run(&mut self) -> Result<(Level, &'a [u8]), WireError> {
        let default = Level::from_bits(self.u8()? as u64).ok_or(WireError::BadLevel)?;
        // Eight bytes an entry: `take` rejects a count the body cannot
        // hold before anything is allocated for it.
        let count = self.u32()? as usize;
        let run = self.take(count.checked_mul(8).ok_or(WireError::Truncated)?)?;
        let mut prev = None;
        for packed in packed_words(run) {
            let level = Level::from_bits(packed & 0x7).ok_or(WireError::BadLevel)?;
            let handle = entry_handle(packed);
            if level == default || prev >= Some(handle) {
                return Err(WireError::NonCanonical);
            }
            prev = Some(handle);
        }
        Ok((default, run))
    }

    fn label(&mut self) -> Result<Label, WireError> {
        let (default, run) = self.label_run()?;
        Label::from_packed_ascending(default, packed_words(run)).ok_or(WireError::NonCanonical)
    }

    /// The tag of the value at the cursor, `depth` lists down.
    fn value_tag(&mut self, depth: u32) -> Result<u8, WireError> {
        if depth > MAX_VALUE_DEPTH {
            return Err(WireError::TooDeep);
        }
        self.u8()
    }

    /// A list's element count. Every element takes at least its tag byte,
    /// so a count the remaining bytes cannot hold is refused here; what
    /// the count *claims* still reserves nothing (see `value`).
    fn list_count(&mut self) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        if self.data.len() - self.pos < count {
            return Err(WireError::Truncated);
        }
        Ok(count)
    }

    fn value(&mut self, depth: u32) -> Result<Value, WireError> {
        Ok(match self.value_tag(depth)? {
            VTAG_UNIT => Value::Unit,
            VTAG_BOOL => Value::Bool(self.bool()?),
            VTAG_U64 => Value::U64(self.u64()?),
            VTAG_BYTES => {
                let len = self.blob()?.len();
                // Zero-copy ingest: a slice view of the pinned frame body.
                let pin = self.pin.get_or_insert_with(|| Arc::from(self.data));
                Value::Bytes(Payload::from_arc(Arc::clone(pin)).slice(self.pos - len..self.pos))
            }
            VTAG_STR => Value::Str(self.str()?.to_owned()),
            VTAG_HANDLE => Value::Handle(self.handle()?),
            VTAG_LIST => {
                // Grown as elements decode: a CRC is not a MAC, and a
                // claimed count must not reserve 40 bytes per 1-byte
                // element before the first one is read.
                let mut items = Vec::new();
                for _ in 0..self.list_count()? {
                    items.push(self.value(depth + 1)?);
                }
                Value::List(items)
            }
            t => return Err(WireError::BadValueTag(t)),
        })
    }

    /// [`Reader::value`] without the `Value`.
    fn skip_value(&mut self, depth: u32) -> Result<(), WireError> {
        match self.value_tag(depth)? {
            VTAG_UNIT => {}
            VTAG_BOOL => {
                self.bool()?;
            }
            VTAG_U64 => {
                self.u64()?;
            }
            VTAG_BYTES => {
                self.blob()?;
            }
            VTAG_STR => {
                self.str()?;
            }
            VTAG_HANDLE => {
                self.handle()?;
            }
            VTAG_LIST => {
                for _ in 0..self.list_count()? {
                    self.skip_value(depth + 1)?;
                }
            }
            t => return Err(WireError::BadValueTag(t)),
        }
        Ok(())
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

    /// A `Forward` to `port` under a 780-entry `E_S` — demux's send label on
    /// `fed-k2`, 13 chunks.
    pub(crate) fn big_forward(port: Handle) -> WireMsg {
        let pairs: Vec<(Handle, Level)> = (0..780)
            .map(|i| (Handle::from_raw(i * 5 + 2), Level::Star))
            .collect();
        WireMsg::Forward {
            port,
            es: Label::from_pairs(Level::L1, &pairs),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            body: Value::List(vec![Value::Str("read".into()), Value::U64(7)]),
        }
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
            WireMsg::Hello {
                kernel: 1,
                kernels: 4,
            },
            WireMsg::Register {
                port: Handle::from_raw(0),
            },
            WireMsg::Unregister {
                port: Handle::from_raw(HANDLE_SPACE - 1),
            },
            WireMsg::Resolve {
                port: Handle::from_raw(42),
            },
            WireMsg::ResolveR {
                port: Handle::from_raw(42),
                kernel: Some(3),
            },
            WireMsg::ResolveR {
                port: Handle::from_raw(42),
                kernel: None,
            },
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
            WireMsg::Bye,
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
            &WireMsg::Register {
                port: Handle::from_raw(3),
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

    /// Both walks over one CRC-valid body: the decoder's verdict, after
    /// checking that the relay's is the same.
    fn decode_checked_by_both(body: &[u8]) -> Result<WireMsg, WireError> {
        let decoded = decode_frame(&frame_around(body)).map(|f| f.expect("complete frame").0);
        // The switch walks `Forward`s itself and hands every other tag to
        // the decoder, unwalked.
        let relay_should = match (&decoded, body.first()) {
            (Ok(WireMsg::Forward { port, .. }), _) => Ok(Some(*port)),
            (Err(e), Some(&TAG_FORWARD) | None) => Err(*e),
            _ => Ok(None),
        };
        assert_eq!(forward_port(body), relay_should);
        decoded
    }

    #[test]
    fn a_canonical_hand_assembled_run_decodes() {
        let run = [pack(3, Level::Star), pack(9, Level::L3)];
        let Ok(WireMsg::Forward { es, .. }) = decode_checked_by_both(&forward_with_es_run(&run))
        else {
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
                decode_checked_by_both(&forward_with_es_run(run)),
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
                decode_checked_by_both(&forward_with_es_run(&run)),
                Err(WireError::BadLevel),
                "entry level bits {bits}"
            );
            // ... and as a label's default.
            let mut body = forward_with_es_run(&[]);
            body[9] = bits as u8;
            assert_eq!(
                decode_checked_by_both(&body),
                Err(WireError::BadLevel),
                "default level bits {bits}"
            );
        }
    }

    #[test]
    fn non_canonical_booleans_are_rejected() {
        let mut body = vec![TAG_ENV_SET];
        encode_str("k", &mut body);
        body.extend_from_slice(&[VTAG_BOOL, 2]);
        assert_eq!(decode_checked_by_both(&body), Err(WireError::NonCanonical));
        let mut body = vec![TAG_RESOLVE_R];
        body.extend_from_slice(&42u64.to_le_bytes());
        body.extend_from_slice(&[2, 7, 0]);
        assert_eq!(decode_checked_by_both(&body), Err(WireError::NonCanonical));
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
        assert_eq!(
            decode_checked_by_both(&body),
            Err(WireError::BadValueTag(0xFF))
        );
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
        assert_eq!(
            forward_port(&frozen[HEADER_LEN..]),
            Ok(Some(Handle::from_raw(0x2000)))
        );
    }
}
