//! The federation wire format: labels and payloads in serialized form.
//!
//! Every cross-kernel exchange is one [`WireMsg`] inside one *frame*:
//!
//! ```text
//! magic "ASWM" (4) | version u8 | body-len u32 LE | crc32 u32 LE | body
//! ```
//!
//! The CRC (the store crate's snapshot polynomial) covers the frame's
//! index on its link — 8 bytes little-endian, not sent — and then the
//! body, so a flipped bit anywhere in a frame is detected before any
//! field is interpreted, and the version byte sits *outside* the body so
//! a new version can change the body layout freely — same discipline as
//! the snapshot codec's header. Version 2 sent labels as chunks; version
//! 3 seeds the CRC with the frame index. An older frame is
//! [`WireError::BadVersion`].
//!
//! **One hop, one check.** A frame travels on the link from the kernel
//! that sent it to the kernel it is for, so it is checksummed twice —
//! written by the source gateway, verified by the destination gateway's
//! decoder — and nothing reads it in between. [`ChunkTable::decode_frame`]
//! checks the header, the length and the CRC (the only pass over every
//! byte) before any field of the body is interpreted.
//!
//! **Labels travel as their §5.6 chunks, and a chunk crosses a link
//! once.** A label is its default level's bits, a chunk count, and one
//! header byte per chunk. A header `1..=64` *defines* a chunk of that many
//! entries, which follow as `handle << 3 | level-bits` — the in-memory
//! packing, copied out word for word. A header `0x80 | slot` *references*
//! a chunk the receiver already holds. Any other header byte is
//! [`WireError::BadChunkHeader`].
//!
//! **One [`ChunkTable`] per link direction, at both ends.** Every
//! definition or reference stamps its slot, and a definition takes the
//! least recently stamped of the [`SLOTS`] slots, the lowest index on a
//! tie. Both ends run that one rule, so a definition names no slot and
//! each end's table is a function of the frames the link has carried.
//!
//! **The two tables stay in lockstep because the link is FIFO and
//! lossless, and the CRC proves it.** Each table also counts the frames
//! it has passed, and a frame's CRC is seeded with that count. A frame
//! that was lost, duplicated or reordered is checked against the wrong
//! index and fails as [`WireError::BadCrc`] — at the first frame after
//! the fault at the latest — and the link closes at its first bad frame,
//! so no frame is ever decoded against a table its sender did not hold
//! and nothing resyncs them. The sender finds a chunk by its allocation
//! ([`Chunk::ptr_eq`]): a chunk is never changed in place (an edit builds
//! a new one), so a held pointer always means the same entries. A
//! receiver holds at most [`SLOTS`] chunks of at most 64 entries per link
//! direction, whatever its peer sends. A reference clones the held chunk
//! (a refcount), so a repeated chunk costs no allocation, and a decoded
//! label keeps the sender's chunk layout — exactly as a local send's
//! `E_S` does — so its accounted `heap_bytes` does not depend on which
//! side of the wire it was built.
//!
//! **Checked, never repaired.** A definition is checked in place: level
//! bits 0–4 ([`WireError::BadLevel`]), handles strictly ascending. A
//! label's chunks, defined or referenced, must then ascend across the
//! label and hold no entry at its default ([`Label::from_chunks`]).
//! Anything else is [`WireError::NonCanonical`], and a reference to an
//! empty slot is [`WireError::EmptySlot`]. So over one table state no two
//! byte strings decode to the same message, and whatever decodes
//! re-encodes to the bytes it came from.
//!
//! [`encode_frame`], [`decode_frame`] and [`decode_body`] are the
//! one-frame case: each runs over a fresh table, so only a chunk that
//! repeats within the frame travels as a reference, and the frame is
//! index 0.
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
use asbestos_labels::chunk::{entry_handle, Chunk, CHUNK_CAP};
use asbestos_labels::{Handle, Label, Level};
use asbestos_store::{codec, crc32, crc32_extend};

/// Frame magic: "ASbestos Wire Message".
pub const MAGIC: [u8; 4] = *b"ASWM";

/// Current wire format version.
pub const WIRE_VERSION: u8 = 3;

/// Frame header size: magic + version + body length + CRC.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 4;

/// Upper bound on a frame body. Far above anything the kernel can emit
/// (message payloads are bounded by queue limits long before this), it
/// exists so garbage that happens to spell a huge length cannot make a
/// connection buffer gigabytes waiting for bytes that never come.
pub const MAX_BODY_LEN: usize = 1 << 26;

/// Recursion bound for `Value::List` nesting on decode.
const MAX_VALUE_DEPTH: u32 = 64;

/// Slots in one link direction's [`ChunkTable`].
pub const SLOTS: usize = 64;

/// Chunk headers: `1..=LONGEST` defines a chunk of that many entries,
/// `REF..=LAST_REF` references slot `header - REF`.
const LONGEST: u8 = CHUNK_CAP as u8;
const REF: u8 = 0x80;
const LAST_REF: u8 = REF + (SLOTS - 1) as u8;
const _: () = assert!(CHUNK_CAP < REF as usize);
const _: () = assert!(SLOTS <= REF as usize);

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
    /// A label's default or an entry of a chunk definition encodes level
    /// bits 5–7.
    BadLevel,
    /// A chunk header is neither a definition's length (1–64) nor a
    /// reference to a slot (`0x80 | slot`, slot below [`SLOTS`]).
    BadChunkHeader(u8),
    /// A chunk reference names a slot that holds no chunk.
    EmptySlot(u8),
    /// A field is well-formed but not as the encoder writes it, so two
    /// byte strings would decode to one message: a chunk definition that
    /// is not strictly ascending by handle (out of order, or a handle
    /// repeated), a label whose chunks do not ascend across it or hold an
    /// entry at its default level, a label default byte with bits set
    /// above its three level bits, or a boolean byte other than 0 or 1.
    /// Rejected, never repaired.
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
            WireError::BadChunkHeader(h) => write!(f, "invalid chunk header {h:#04x}"),
            WireError::EmptySlot(s) => write!(f, "reference to empty chunk slot {s}"),
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
/// (the sending kernel computes the home kernel from the cipher lane
/// that minted the port, [`asbestos_labels::HandleAllocator::lane_of`]).
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

/// The chunks one direction of one link has left its receiver holding:
/// up to [`SLOTS`], each stamped when a frame last defined or referenced
/// it, and the number of frames that direction has carried.
///
/// The sending end encodes through one table and the receiving end
/// decodes through its twin. Both change only as a frame passes through
/// them, by one replacement rule, so they stay equal (see the
/// [module docs](self)). A fresh table is the state of both ends of a new
/// link.
#[derive(Clone)]
pub struct ChunkTable {
    slots: [Option<Chunk>; SLOTS],
    /// The clock when each slot was last defined or referenced; 0: never.
    stamps: [u64; SLOTS],
    clock: u64,
    /// Frames this table has encoded or decoded: the next frame's index,
    /// which seeds its CRC.
    frames: u64,
}

impl Default for ChunkTable {
    fn default() -> ChunkTable {
        ChunkTable {
            slots: std::array::from_fn(|_| None),
            stamps: [0; SLOTS],
            clock: 0,
            frames: 0,
        }
    }
}

impl ChunkTable {
    /// Whether the receiver holds this very chunk allocation, so that the
    /// next frame sends it as a reference.
    pub fn holds(&self, chunk: &Chunk) -> bool {
        self.slot_of(chunk).is_some()
    }

    /// Appends `msg` as one complete frame to `out`: each chunk of its
    /// labels as a reference when the table holds it, as a definition
    /// into the table otherwise.
    pub fn encode_frame(&mut self, msg: &WireMsg, out: &mut Vec<u8>) {
        let header_at = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(WIRE_VERSION);
        out.extend_from_slice(&[0u8; 8]); // length + CRC, patched below
        let body_at = out.len();
        self.encode_body(msg, out);
        let body_len = out.len() - body_at;
        debug_assert!(body_len <= MAX_BODY_LEN, "kernel emitted an absurd frame");
        let crc = frame_crc(self.frames, &out[body_at..]);
        self.frames += 1;
        out[header_at + 5..header_at + 9].copy_from_slice(&(body_len as u32).to_le_bytes());
        out[header_at + 9..header_at + 13].copy_from_slice(&crc.to_le_bytes());
    }

    /// Tries to decode one frame from the front of `buf`. The header and
    /// the CRC — seeded with this table's frame count — are checked before
    /// any field of the body is read, and the table changes only once they
    /// have passed.
    ///
    /// * `Ok(Some((msg, consumed)))` — a complete frame; the caller should
    ///   drop the first `consumed` bytes.
    /// * `Ok(None)` — `buf` holds a valid prefix of a frame; read more.
    /// * `Err(_)` — the bytes are corrupt and the connection should die:
    ///   the table may have taken part of the frame in.
    pub fn decode_frame(&mut self, buf: &[u8]) -> Result<Option<(WireMsg, usize)>, WireError> {
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
        if frame_crc(self.frames, body) != crc_want {
            return Err(WireError::BadCrc);
        }
        self.frames += 1;
        Ok(Some((self.decode_body(body)?, HEADER_LEN + body_len)))
    }

    /// Decodes the body of a frame whose header and CRC checked out.
    pub fn decode_body(&mut self, body: &[u8]) -> Result<WireMsg, WireError> {
        let mut r = Reader::new(body, self);
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

    fn slot_of(&self, chunk: &Chunk) -> Option<usize> {
        self.slots
            .iter()
            .position(|held| held.as_ref().is_some_and(|held| Chunk::ptr_eq(held, chunk)))
    }

    fn stamp(&mut self, slot: usize) {
        self.clock += 1;
        self.stamps[slot] = self.clock;
    }

    /// The replacement rule both ends run: a new chunk takes the least
    /// recently stamped slot, the lowest index on a tie (so empty slots
    /// fill in order).
    fn define(&mut self, chunk: Chunk) {
        let (slot, _) = (self.stamps.iter().enumerate())
            .min_by_key(|&(_, &stamp)| stamp)
            .expect("a table has slots");
        self.slots[slot] = Some(chunk);
        self.stamp(slot);
    }

    fn encode_body(&mut self, msg: &WireMsg, out: &mut Vec<u8>) {
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
                for label in [es, ds, dr, v] {
                    self.encode_label(label, out);
                }
                encode_value(body, out);
            }
        }
    }

    /// §5.6 chunked form: default-level bits, chunk count, then each chunk
    /// as a reference to the slot that holds it, or as its length and its
    /// entries copied out word for word.
    fn encode_label(&mut self, label: &Label, out: &mut Vec<u8>) {
        out.push(label.default_level().to_bits() as u8);
        out.extend_from_slice(&(label.chunks().len() as u32).to_le_bytes());
        for chunk in label.chunks() {
            if let Some(slot) = self.slot_of(chunk) {
                self.stamp(slot);
                out.push(REF + slot as u8);
            } else {
                out.push(chunk.len() as u8);
                for packed in chunk.entries() {
                    out.extend_from_slice(&packed.to_le_bytes());
                }
                self.define(chunk.clone());
            }
        }
    }
}

/// The CRC of the frame at `index` on its link with this body: the 8-byte
/// little-endian index, then the body.
pub fn frame_crc(index: u64, body: &[u8]) -> u32 {
    crc32_extend(crc32(&index.to_le_bytes()), body)
}

/// Appends `msg` as one complete frame to `out`, over a fresh table: the
/// one-frame case of [`ChunkTable::encode_frame`].
pub fn encode_frame(msg: &WireMsg, out: &mut Vec<u8>) {
    ChunkTable::default().encode_frame(msg, out)
}

/// Decodes one frame from the front of `buf` over a fresh table: the
/// one-frame case of [`ChunkTable::decode_frame`].
pub fn decode_frame(buf: &[u8]) -> Result<Option<(WireMsg, usize)>, WireError> {
    ChunkTable::default().decode_frame(buf)
}

/// Decodes a frame body over a fresh table: the one-frame case of
/// [`ChunkTable::decode_body`].
pub fn decode_body(body: &[u8]) -> Result<WireMsg, WireError> {
    ChunkTable::default().decode_body(body)
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
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

/// A cursor over one frame body: the store's bounded [`codec::Reader`]
/// plus the wire's own fields. Every accept/reject decision of the codec
/// is one of their methods.
struct Reader<'a, 't> {
    bytes: codec::Reader<'a>,
    body: &'a [u8],
    /// The body, pinned for `Value::Bytes` views; made on first use, so a
    /// message without one never copies it.
    pin: Option<Arc<[u8]>>,
    /// The receiving end's table, which each chunk header updates.
    table: &'t mut ChunkTable,
}

impl<'a, 't> Reader<'a, 't> {
    fn new(body: &'a [u8], table: &'t mut ChunkTable) -> Reader<'a, 't> {
        Reader {
            bytes: codec::Reader::new(body),
            body,
            pin: None,
            table,
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

    /// One label: its default, then its chunks, each checked as it
    /// decodes and all of them together by [`Label::from_chunks`].
    fn label(&mut self) -> Result<Label, WireError> {
        let bits = self.bytes.u8()?;
        let default = Level::from_bits(bits.into()).ok_or(WireError::BadLevel)?;
        // `from_bits` reads the low three bits; the byte is only those.
        if default.to_bits() != u64::from(bits) {
            return Err(WireError::NonCanonical);
        }
        // Every chunk takes at least its header byte, so a count the body
        // cannot hold is refused; the array grows as chunks decode.
        let mut chunks = Vec::new();
        for _ in 0..self.bytes.count(1)? {
            chunks.push(self.chunk()?);
        }
        Label::from_chunks(default, chunks).ok_or(WireError::NonCanonical)
    }

    /// One chunk header and the chunk it stands for: a definition, checked
    /// in place and entered in the table, or the chunk a slot holds.
    fn chunk(&mut self) -> Result<Chunk, WireError> {
        match self.bytes.u8()? {
            len @ 1..=LONGEST => {
                let run = self.bytes.take(usize::from(len) * 8)?;
                let mut entries = [0u64; CHUNK_CAP];
                for (i, word) in run.chunks_exact(8).enumerate() {
                    let packed = u64::from_le_bytes(word.try_into().unwrap());
                    Level::from_bits(packed & 0x7).ok_or(WireError::BadLevel)?;
                    if i > 0 && entry_handle(entries[i - 1]) >= entry_handle(packed) {
                        return Err(WireError::NonCanonical);
                    }
                    entries[i] = packed;
                }
                let chunk = Chunk::from_entries(&entries[..usize::from(len)]);
                self.table.define(chunk.clone());
                Ok(chunk)
            }
            header @ REF..=LAST_REF => {
                let slot = header - REF;
                let chunk = self.table.slots[usize::from(slot)]
                    .clone()
                    .ok_or(WireError::EmptySlot(slot))?;
                self.table.stamp(slot.into());
                Ok(chunk)
            }
            header => Err(WireError::BadChunkHeader(header)),
        }
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
            VTAG_STR => Value::Str(self.bytes.str()?.to_owned().into()),
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

/// Frames and bodies for this crate's tests, assembled by hand where the
/// encoder would refuse to write them.
#[cfg(test)]
pub(crate) mod fixtures {
    use super::*;

    /// A frame around a hand-assembled body, CRC and all: what a peer that
    /// does not use [`encode_frame`] can put on the wire.
    /// `index` is the frame's place on its link, which seeds the CRC.
    pub(crate) fn frame_around(index: u64, body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.push(WIRE_VERSION);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame_crc(index, body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    /// `msg` encoded as the frame at `index` on a link whose table holds
    /// no chunks.
    pub(crate) fn encode_at(index: u64, msg: &WireMsg, out: &mut Vec<u8>) {
        let mut table = ChunkTable {
            frames: index,
            ..ChunkTable::default()
        };
        table.encode_frame(msg, out);
    }

    /// One chunk of a hand-assembled label.
    pub(crate) enum RawChunk<'a> {
        /// A definition of these packed entries, verbatim.
        Define(&'a [u64]),
        /// A bare header byte: a reference, or garbage.
        Header(u8),
    }

    /// A label's bytes: `default` as its default byte, then `chunks`.
    pub(crate) fn raw_label(default: u8, chunks: &[RawChunk]) -> Vec<u8> {
        let mut out = vec![default];
        out.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
        for chunk in chunks {
            match chunk {
                RawChunk::Define(entries) => {
                    out.push(entries.len() as u8);
                    for packed in *entries {
                        out.extend_from_slice(&packed.to_le_bytes());
                    }
                }
                RawChunk::Header(byte) => out.push(*byte),
            }
        }
        out
    }

    /// The four labels of a plain `Forward`, as bytes: uniform `{1}`,
    /// `{3}`, `{⋆}` and `{3}` for `es`, `ds`, `dr` and `v`.
    pub(crate) fn uniform_labels() -> [Vec<u8>; 4] {
        [Level::L1, Level::L3, Level::Star, Level::L3].map(|l| raw_label(l.to_bits() as u8, &[]))
    }

    /// A `Forward` body for port 5 with body `Unit` and these labels'
    /// bytes as `es`, `ds`, `dr` and `v`.
    pub(crate) fn raw_forward_body(labels: [Vec<u8>; 4]) -> Vec<u8> {
        let mut body = vec![TAG_FORWARD];
        body.extend_from_slice(&5u64.to_le_bytes());
        for label in labels {
            body.extend_from_slice(&label);
        }
        body.push(VTAG_UNIT);
        body
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::RawChunk::{Define, Header};
    use super::fixtures::{frame_around, raw_forward_body, raw_label, uniform_labels, RawChunk};
    use super::*;
    use asbestos_labels::chunk::pack;
    use asbestos_labels::HANDLE_SPACE;

    fn h(raw: u64) -> Handle {
        Handle::from_raw(raw)
    }

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
            &[(h(7), Level::Star), (h(HANDLE_SPACE - 1), Level::L3)],
        );
        let msgs = [
            WireMsg::EnvSet {
                key: "okws.worker.ws.port".into(),
                value: Value::Handle(h(9)),
            },
            WireMsg::Forward {
                port: h(5),
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
                    Value::Handle(h(1)),
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
                value: Value::Handle(h(3)),
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
        // The previous version and a future one.
        for version in [2, 4] {
            let mut bad = buf.clone();
            bad[4] = version;
            assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(version)));
        }
    }

    #[test]
    fn ingest_payloads_share_the_frame_body() {
        let msg = WireMsg::Forward {
            port: h(1),
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

    /// A `Forward` body whose `es` is `{…, 1}` over these chunks, its
    /// other labels uniform.
    fn forward_with_es(chunks: &[RawChunk]) -> Vec<u8> {
        let mut labels = uniform_labels();
        labels[0] = raw_label(Level::L1.to_bits() as u8, chunks);
        raw_forward_body(labels)
    }

    /// The `Forward` that [`forward_with_es`] spells, with this `es`.
    fn forward_of(es: Label) -> WireMsg {
        WireMsg::Forward {
            port: h(5),
            es,
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            body: Value::Unit,
        }
    }

    /// The decoder's verdict on one CRC-valid body, over a fresh table.
    fn decode_checked(body: &[u8]) -> Result<WireMsg, WireError> {
        decode_frame(&frame_around(0, body)).map(|f| f.expect("complete frame").0)
    }

    #[test]
    fn a_canonical_hand_assembled_run_decodes() {
        let body = forward_with_es(&[
            Define(&[pack(3, Level::Star)]),
            Define(&[pack(9, Level::L3)]),
        ]);
        let want = Label::from_pairs(Level::L1, &[(h(3), Level::Star), (h(9), Level::L3)]);
        assert_eq!(decode_checked(&body), Ok(forward_of(want)));
    }

    /// A definition is checked in place, never sorted or normalized.
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
                decode_checked(&forward_with_es(&[Define(run)])),
                Err(WireError::NonCanonical),
                "{what}"
            );
        }
    }

    /// Chunks that are each canonical but do not ascend across their
    /// label: out of order, overlapping, or one chunk named twice.
    #[test]
    fn chunks_out_of_order_across_a_label_are_refused() {
        let (three, nine) = ([pack(3, Level::Star)], [pack(9, Level::L3)]);
        let both = [three[0], nine[0]];
        let labels: [(&str, Vec<RawChunk>); 3] = [
            ("descending", vec![Define(&nine), Define(&three)]),
            ("overlapping", vec![Define(&both), Define(&nine)]),
            ("repeated", vec![Define(&three), Header(REF)]),
        ];
        for (what, chunks) in &labels {
            assert_eq!(
                decode_checked(&forward_with_es(chunks)),
                Err(WireError::NonCanonical),
                "{what}"
            );
        }
    }

    /// A chunk defined under one label's default, referenced from a label
    /// whose default it holds, is refused there.
    #[test]
    fn a_chunk_holding_an_entry_at_the_labels_default_is_refused() {
        let mut labels = uniform_labels();
        labels[0] = raw_label(Level::L1.to_bits() as u8, &[Define(&[pack(3, Level::L3)])]);
        assert!(decode_checked(&raw_forward_body(labels.clone())).is_ok());
        // `ds`'s default is 3.
        labels[1] = raw_label(Level::L3.to_bits() as u8, &[Header(REF)]);
        assert_eq!(
            decode_checked(&raw_forward_body(labels)),
            Err(WireError::NonCanonical)
        );
    }

    #[test]
    fn a_reference_to_an_empty_slot_is_refused() {
        for slot in [0, 5, SLOTS as u8 - 1] {
            assert_eq!(
                decode_checked(&forward_with_es(&[Header(REF | slot)])),
                Err(WireError::EmptySlot(slot))
            );
        }
        // The first definition takes slot 0; slot 1 is still empty.
        let body = forward_with_es(&[Define(&[pack(3, Level::Star)]), Header(REF | 1)]);
        assert_eq!(decode_checked(&body), Err(WireError::EmptySlot(1)));
    }

    #[test]
    fn a_reference_past_the_last_slot_is_refused() {
        for header in (REF | SLOTS as u8)..=u8::MAX {
            assert_eq!(
                decode_checked(&forward_with_es(&[Header(header)])),
                Err(WireError::BadChunkHeader(header))
            );
        }
    }

    #[test]
    fn chunk_headers_0_and_65_to_127_are_refused() {
        for header in std::iter::once(0).chain(LONGEST + 1..REF) {
            assert_eq!(
                decode_checked(&forward_with_es(&[Header(header)])),
                Err(WireError::BadChunkHeader(header))
            );
        }
    }

    #[test]
    fn unused_level_encodings_are_rejected() {
        for bits in 5..8u64 {
            let run = [pack(3, Level::Star), 9 << 3 | bits];
            assert_eq!(
                decode_checked(&forward_with_es(&[Define(&run)])),
                Err(WireError::BadLevel),
                "entry level bits {bits}"
            );
            // ... and as a label's default.
            let mut labels = uniform_labels();
            labels[0] = raw_label(bits as u8, &[]);
            assert_eq!(
                decode_checked(&raw_forward_body(labels)),
                Err(WireError::BadLevel),
                "default level bits {bits}"
            );
        }
    }

    /// Found by `crc_valid_mutations`: a default byte of 0x6A has L1's low
    /// three bits, and used to decode as L1 and re-encode as 0x02.
    #[test]
    fn a_label_default_byte_is_only_its_level_bits() {
        let mut labels = uniform_labels();
        labels[0] = raw_label(0x68 | Level::L1.to_bits() as u8, &[]);
        assert_eq!(
            decode_checked(&raw_forward_body(labels)),
            Err(WireError::NonCanonical)
        );
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
        let max = h(HANDLE_SPACE - 1);
        let wide: Vec<(Handle, Level)> = (0..8 * 64 + 1)
            .map(|i| (h(i * 7 + 1), Level::Star))
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
            // Equal, and laid out as the sender laid it out, so the
            // accounted size does not depend on which side of the wire a
            // label was built.
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

    /// Both ends' one replacement rule: empty slots fill in order, then a
    /// definition takes the slot least recently defined or referenced —
    /// and the receiver, running the same rule, finds the chunk there.
    #[test]
    fn the_least_recently_used_slot_is_replaced() {
        let chunks: Vec<Chunk> = (0..=SLOTS as u64)
            .map(|i| Chunk::from_entries(&[pack(i, Level::L3)]))
            .collect();
        let label_of = |picks: &[usize]| {
            let picked = picks.iter().map(|&i| chunks[i].clone()).collect();
            Label::from_chunks(Level::L1, picked).unwrap()
        };
        let (mut sender, mut receiver) = (ChunkTable::default(), ChunkTable::default());
        for picks in [(0..SLOTS).collect(), vec![0], vec![SLOTS]] {
            let mut frame = Vec::new();
            sender.encode_frame(&forward_of(label_of(&picks)), &mut frame);
            receiver.decode_frame(&frame).unwrap().unwrap();
        }
        assert!(sender.holds(&chunks[0]) && sender.holds(&chunks[SLOTS]));
        assert!(!sender.holds(&chunks[1]), "chunk 1 was the oldest");
        // Chunk 64 took chunk 1's slot. The link has carried three frames.
        let frame = frame_around(3, &forward_with_es(&[Header(REF | 1)]));
        let (got, _) = receiver.decode_frame(&frame).unwrap().unwrap();
        assert_eq!(got, forward_of(label_of(&[SLOTS])));
    }

    /// One `Forward` frame exactly as the v3 codec writes it as a link's
    /// first frame — `dr` names the chunk `es` defined — must verify,
    /// decode, and come back out bit for bit; the same message as the v1
    /// and v2 codecs wrote it is refused by its version byte.
    #[test]
    fn a_frame_written_before_this_codec_still_decodes() {
        let unhex = |hex: &str| -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect()
        };
        let es = Label::from_pairs(
            Level::L1,
            &[
                (h(7), Level::Star),
                (h(0x1001), Level::L3),
                (h(HANDLE_SPACE - 1), Level::L0),
            ],
        );
        let want = WireMsg::Forward {
            port: h(0x2000),
            es: es.clone(),
            ds: Label::top(),
            dr: es,
            v: Label::from_pairs(Level::L3, &[(h(9), Level::L2)]),
            body: Value::List(vec![
                Value::Str("read-r".into()),
                Value::Bytes(Payload::copy_from_slice(b"GET / HTTP/1.0\r\n\r\n")),
                Value::Handle(h(42)),
                Value::Bool(true),
                Value::U64(1 << 40),
                Value::Unit,
            ]),
        };
        let frozen = unhex(
            "4153574d037c00000094479e5806002000000000000002010000000338000000\
             000000000c80000000000000f9ffffffffffffff0400000000020100000080\
             0401000000014b0000000000000006060000000406000000726561642d7203\
             12000000474554202f20485454502f312e300d0a0d0a052a00000000000000\
             010102000000000001000000",
        );
        let (msg, used) = decode_frame(&frozen).unwrap().unwrap();
        assert_eq!(used, frozen.len());
        assert_eq!(msg, want);
        let mut again = Vec::new();
        encode_frame(&msg, &mut again);
        assert_eq!(again, frozen);

        let v1 = unhex(
            "4153574d01790000004d6a110c0600200000000000000203000000380000\
             00000000000c80000000000000f9ffffffffffffff04000000000000000000\
             04010000004b0000000000000006060000000406000000726561642d720312\
             000000474554202f20485454502f312e300d0a0d0a052a0000000000000001\
             0102000000000001000000",
        );
        assert_eq!(decode_frame(&v1), Err(WireError::BadVersion(1)));
        // The v2 frame of the same message: its CRC covered the body alone.
        let mut v2 = frozen.clone();
        v2[4] = 2;
        v2[9..13].copy_from_slice(&crc32(&frozen[HEADER_LEN..]).to_le_bytes());
        assert_eq!(decode_frame(&v2), Err(WireError::BadVersion(2)));
    }
}
