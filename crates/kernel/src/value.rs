//! Structured message payloads.
//!
//! Asbestos messages carry opaque data; protocols (9P-style file access,
//! netd's READ/WRITE, OKWS requests) layer meaning on top (§4). In this
//! user-space reproduction, payloads are a small structured [`Value`] type
//! rather than raw bytes, which keeps protocol code checkable while still
//! letting the cost model charge for payload size.
//!
//! Handles may be carried as plain values: knowing a handle's value confers
//! no privilege (§5.1) — privileges travel only through label grants.
//!
//! # The message format
//!
//! Every service protocol (netd, OKWS, ok-dbproxy, the file server)
//! writes a message as `[Str(tag), field…]`: a list whose first item
//! names the variant and whose remaining items are the variant's fields,
//! by position. A field's type fixes its [`Value`] kind through
//! the [`Field`] trait:
//!
//! * `u64` is `U64`, and `u16` is a `U64` that must fit in 16 bits;
//! * `bool` is `Bool`, `String` is `Str` and [`Handle`] is `Handle`;
//! * [`Payload`] is `Bytes`, shared by refcount in both directions;
//! * `Option<T>` is `T`'s value or `Unit`, and it is always written;
//! * `Vec<T>` is a `List` of `T`'s values.
//!
//! An encoder writes a message with [`Value::message`], whose tag is a
//! `&'static str` held by reference: `Value::Str` is a
//! `Cow<'static, str>`, so a tag costs no allocation, and its `Debug`
//! text, size and wire bytes are those of the same text owned. A decoder opens
//! the tag with [`Fields::open`], reads each field in wire order with
//! [`Fields::field`] (a struct literal evaluates its fields in the order
//! they are written, so it can read them in place), and closes with
//! [`Fields::end`], which refuses the message if a field is left over. A
//! missing field, a field of the wrong kind and an extra field each
//! decode as `None`: a trusted server never acts on a message its own
//! encoder could not have written.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use asbestos_labels::Handle;

thread_local! {
    /// Per-thread count of [`Payload`] backing-buffer materializations
    /// (monotonic). Thread-local like the label clone counter: a kernel
    /// runs on the thread that drives it, so concurrently running tests
    /// cannot perturb each other's deltas.
    static DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// A refcounted, immutable byte buffer — the message payload carrier.
///
/// The zero-copy contract: a payload's bytes are written **once**, into a
/// fresh backing buffer, by one of the materializing constructors
/// ([`Payload::copy_from_slice`], [`Payload::build`], `From<Vec<u8>>`).
/// Every movement after that — through `Value::Bytes`, mailboxes, the
/// cross-shard channels, and back out through netd — is a
/// [`Payload::clone`] or [`Payload::slice`], which bump the refcount and
/// never touch the bytes. Each materialization increments the per-thread
/// [`Payload::deep_copies`] counter, so a test can prove a whole
/// request path did zero byte-copies (the `Arc<Label>` discipline of
/// delivery, applied to payloads).
#[derive(Clone)]
pub struct Payload {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Payload {
    /// An empty payload (no backing allocation shared; not counted).
    pub fn new() -> Payload {
        Payload {
            data: Arc::from(&[][..]),
            start: 0,
            end: 0,
        }
    }

    /// Materializes a payload by copying `data` into a fresh buffer.
    /// Counted by [`Payload::deep_copies`].
    pub fn copy_from_slice(data: &[u8]) -> Payload {
        DEEP_COPIES.with(|c| c.set(c.get() + 1));
        Payload {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Materializes a `len`-byte payload that `fill` writes in place: the
    /// buffer is allocated once, at its final size, and no byte is copied
    /// after `fill`. Counted by [`Payload::deep_copies`].
    pub fn build(len: usize, fill: impl FnOnce(&mut [u8])) -> Payload {
        DEEP_COPIES.with(|c| c.set(c.get() + 1));
        // `repeat_n` has an exact length, so the `Arc` allocates its final
        // block directly; no `Vec` precedes it.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        fill(Arc::get_mut(&mut data).expect("a fresh buffer has one owner"));
        Payload {
            data,
            start: 0,
            end: len,
        }
    }

    /// Wraps an already-shared buffer without touching its bytes (the
    /// netd ingest path: the NIC buffer freezes once, then flows through
    /// the kernel by refcount). Not counted as a deep copy.
    pub fn from_arc(data: Arc<[u8]>) -> Payload {
        let end = data.len();
        Payload {
            data,
            start: 0,
            end,
        }
    }

    /// A zero-copy view of `range` within this payload: shares the
    /// backing buffer, adjusts the window. Not counted as a deep copy.
    ///
    /// # Panics
    ///
    /// Panics when the range exceeds the payload's length.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds for a {}-byte payload",
            self.len()
        );
        Payload {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Length in bytes of this payload's window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The bytes of this payload's window.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Copies the window out into an owned `Vec` (an explicit,
    /// deliberate copy — e.g. handing bytes to simulated user memory).
    /// Deliberately *not* counted: the counter tracks payload
    /// materializations, and this constructs no payload.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Identity of the backing buffer (for charge-once accounting:
    /// payloads sharing a buffer report the same id).
    pub fn backing_id(&self) -> usize {
        self.data.as_ptr() as usize
    }

    /// Resident size of the whole backing buffer, which may exceed
    /// [`Payload::len`] when this payload is a slice view.
    pub fn backing_len(&self) -> usize {
        self.data.len()
    }

    /// Payload materializations on the current thread (backing buffers
    /// written). Clones and slices do not count; a steady-state hot path
    /// should advance this only at its ingress/egress edges.
    pub fn deep_copies() -> u64 {
        DEEP_COPIES.with(Cell::get)
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::new()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl From<Vec<u8>> for Payload {
    /// Materializes from an owned `Vec`. Counted as a deep copy: the
    /// conversion is where a byte-building stage commits its buffer, and
    /// counting it is what catches a stage that rebuilds bytes it could
    /// have shared.
    fn from(v: Vec<u8>) -> Payload {
        DEEP_COPIES.with(|c| c.set(c.get() + 1));
        let end = v.len();
        Payload {
            data: Arc::from(v.into_boxed_slice()),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({:?})", self.as_slice())
    }
}

/// A structured message payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// No payload.
    Unit,
    /// A boolean flag.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// Raw bytes (network payloads, file contents), shared by refcount.
    Bytes(Payload),
    /// UTF-8 text (protocol verbs, usernames, SQL). A message tag borrows
    /// its `'static` literal; other text is owned.
    Str(Cow<'static, str>),
    /// A handle value (port names, compartments).
    Handle(Handle),
    /// An ordered sequence.
    List(Vec<Value>),
}

impl Value {
    /// Approximate wire size in bytes, used by the cost model.
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) => 1,
            Value::U64(_) | Value::Handle(_) => 8,
            Value::Bytes(b) => 8 + b.len(),
            Value::Str(s) => 8 + s.len(),
            Value::List(vs) => 8 + vs.iter().map(Value::size_bytes).sum::<usize>(),
        }
    }

    /// Extracts a `u64`, if this value is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a boolean, if this value is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Extracts a string slice, if this value is text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts the byte payload, if this value is bytes.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Extracts the shared payload, if this value is bytes. Cloning the
    /// returned payload shares the buffer — the zero-copy extraction
    /// protocol decoders should prefer over [`Value::as_bytes`]` + to_vec`.
    pub fn as_payload(&self) -> Option<&Payload> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Visits every payload in this value, including inside lists
    /// (charge-once memory accounting walks queued bodies with this).
    pub fn for_each_payload<F: FnMut(&Payload)>(&self, f: &mut F) {
        match self {
            Value::Bytes(b) => f(b),
            Value::List(vs) => {
                for v in vs {
                    v.for_each_payload(f);
                }
            }
            _ => {}
        }
    }

    /// Extracts a handle, if this value is one.
    pub fn as_handle(&self) -> Option<Handle> {
        match self {
            Value::Handle(h) => Some(*h),
            _ => None,
        }
    }

    /// Extracts a list slice, if this value is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(vs) => Some(vs),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Handle(h) => write!(f, "{h}"),
            Value::List(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(Cow::Owned(v.to_string()))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Cow::Owned(v))
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Value {
        Value::Bytes(Payload::from(v))
    }
}

impl From<Payload> for Value {
    fn from(v: Payload) -> Value {
        Value::Bytes(v)
    }
}

impl From<Handle> for Value {
    fn from(v: Handle) -> Value {
        Value::Handle(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Value {
        Value::List(v)
    }
}

/// A type that travels as one positional field of a message (see the
/// module docs for the format).
pub trait Field {
    /// Encodes this field.
    fn to_field(&self) -> Value;

    /// Decodes a field, refusing a value of the wrong kind or range.
    fn from_field(value: &Value) -> Option<Self>
    where
        Self: Sized;
}

impl Field for u64 {
    fn to_field(&self) -> Value {
        Value::U64(*self)
    }

    fn from_field(value: &Value) -> Option<u64> {
        value.as_u64()
    }
}

impl Field for u16 {
    fn to_field(&self) -> Value {
        Value::U64(u64::from(*self))
    }

    fn from_field(value: &Value) -> Option<u16> {
        u16::try_from(value.as_u64()?).ok()
    }
}

impl Field for bool {
    fn to_field(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_field(value: &Value) -> Option<bool> {
        value.as_bool()
    }
}

impl Field for String {
    fn to_field(&self) -> Value {
        Value::Str(Cow::Owned(self.clone()))
    }

    fn from_field(value: &Value) -> Option<String> {
        value.as_str().map(str::to_string)
    }
}

impl Field for Handle {
    fn to_field(&self) -> Value {
        Value::Handle(*self)
    }

    fn from_field(value: &Value) -> Option<Handle> {
        value.as_handle()
    }
}

impl Field for Payload {
    fn to_field(&self) -> Value {
        Value::Bytes(self.clone())
    }

    fn from_field(value: &Value) -> Option<Payload> {
        value.as_payload().cloned()
    }
}

impl<T: Field> Field for Option<T> {
    fn to_field(&self) -> Value {
        self.as_ref().map_or(Value::Unit, T::to_field)
    }

    fn from_field(value: &Value) -> Option<Option<T>> {
        match value {
            Value::Unit => Some(None),
            v => T::from_field(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn to_field(&self) -> Value {
        Value::List(self.iter().map(T::to_field).collect())
    }

    fn from_field(value: &Value) -> Option<Vec<T>> {
        value.as_list()?.iter().map(T::from_field).collect()
    }
}

impl Value {
    /// A message: `[Str(tag), field…]`. The tag is a literal, borrowed,
    /// never copied.
    pub fn message(tag: &'static str, fields: &[&dyn Field]) -> Value {
        let mut items = Vec::with_capacity(fields.len() + 1);
        items.push(Value::Str(Cow::Borrowed(tag)));
        items.extend(fields.iter().map(|f| f.to_field()));
        Value::List(items)
    }
}

/// Reads one message's fields in wire order (see the module docs).
pub struct Fields<'a> {
    rest: std::slice::Iter<'a, Value>,
}

impl<'a> Fields<'a> {
    /// Opens a message: its tag and a reader over its fields. `None`
    /// unless `value` is a list that starts with a string.
    pub fn open(value: &'a Value) -> Option<(&'a str, Fields<'a>)> {
        let (tag, rest) = value.as_list()?.split_first()?;
        Some((tag.as_str()?, Fields { rest: rest.iter() }))
    }

    /// Reads the next field as a `T`; `None` when there is none or it is
    /// of the wrong kind.
    pub fn field<T: Field>(&mut self) -> Option<T> {
        T::from_field(self.rest.next()?)
    }

    /// Closes the message: `msg` if every field was read, else `None`.
    pub fn end<M>(self, msg: M) -> Option<M> {
        self.rest.as_slice().is_empty().then_some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::U64(7).as_u64(), Some(7));
        assert_eq!(Value::Unit.as_u64(), None);
        assert_eq!(Value::Str("a".into()).as_str(), Some("a"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        let h = Handle::from_raw(3);
        assert_eq!(Value::Handle(h).as_handle(), Some(h));
        assert_eq!(
            Value::Bytes(vec![1, 2].into()).as_bytes(),
            Some(&[1u8, 2][..])
        );
        let l = Value::List(vec![Value::Unit]);
        assert_eq!(l.as_list().map(|v| v.len()), Some(1));
    }

    #[test]
    fn size_estimates() {
        assert_eq!(Value::Unit.size_bytes(), 1);
        assert_eq!(Value::U64(0).size_bytes(), 8);
        assert_eq!(Value::Bytes(vec![0; 100].into()).size_bytes(), 108);
        assert_eq!(
            Value::List(vec![Value::U64(1), Value::U64(2)]).size_bytes(),
            24
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(
            Value::List(vec![Value::U64(1), Value::Bool(false)]).to_string(),
            "[1, false]"
        );
        assert_eq!(Value::Bytes(vec![0; 3].into()).to_string(), "<3 bytes>");
    }

    #[test]
    fn payload_clone_and_slice_share_the_buffer() {
        let p = Payload::copy_from_slice(b"hello world");
        let before = Payload::deep_copies();
        let c = p.clone();
        let tail = p.slice(6..11);
        assert_eq!(&c[..], b"hello world");
        assert_eq!(&tail[..], b"world");
        assert_eq!(c.backing_id(), p.backing_id());
        assert_eq!(tail.backing_id(), p.backing_id());
        assert_eq!(tail.backing_len(), 11);
        assert_eq!(
            Payload::deep_copies(),
            before,
            "clone and slice must not materialize"
        );
    }

    #[test]
    fn payload_materializations_are_counted() {
        let before = Payload::deep_copies();
        let _a = Payload::copy_from_slice(b"x");
        let _b = Payload::from(vec![1u8, 2]);
        assert!(Payload::deep_copies() >= before + 2);
        // from_arc shares an existing buffer: not a materialization.
        let arc: std::sync::Arc<[u8]> = std::sync::Arc::from(&b"shared"[..]);
        let mid = Payload::deep_copies();
        let p = Payload::from_arc(arc);
        assert_eq!(&p[..], b"shared");
        assert_eq!(Payload::deep_copies(), mid);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn payload_slice_bounds_checked() {
        let p = Payload::copy_from_slice(b"abc");
        let _ = p.slice(1..5);
    }
}
