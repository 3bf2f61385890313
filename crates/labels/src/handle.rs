//! Handles: 61-bit compartment and port names (§5.1), and the hash map
//! keyed by them.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The number of significant bits in a handle value.
pub const HANDLE_BITS: u32 = 61;

/// The number of distinct handle values (`2^61`).
pub const HANDLE_SPACE: u64 = 1 << HANDLE_BITS;

/// A handle: the name of a compartment and/or a communication port.
///
/// Handles are 61-bit numbers (§5.1). Handle values are unique since boot
/// time, so unlike a file descriptor a given handle value refers to the same
/// handle in all contexts. Asbestos uses the same namespace for ports and
/// compartments, which is what lets labels emulate capabilities (§5.5).
///
/// Knowing a handle's value confers no privilege by itself; privilege is
/// recorded in process labels.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle(u64);

impl Handle {
    /// Creates a handle from a raw 61-bit value.
    ///
    /// Returns `None` if `raw` does not fit in 61 bits.
    #[inline]
    pub const fn new(raw: u64) -> Option<Handle> {
        if raw < HANDLE_SPACE {
            Some(Handle(raw))
        } else {
            None
        }
    }

    /// Creates a handle from a raw value, panicking if it exceeds 61 bits.
    ///
    /// # Panics
    ///
    /// Panics if `raw >= 2^61`. Intended for tests and constants; kernel code
    /// uses [`Handle::new`] or the allocator.
    #[inline]
    pub const fn from_raw(raw: u64) -> Handle {
        assert!(raw < HANDLE_SPACE, "handle value exceeds 61 bits");
        Handle(raw)
    }

    /// The raw 61-bit value of this handle.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{:x}", self.0)
    }
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{:x}", self.0)
    }
}

/// A hash table from handle values to kernel or service state (§5.6: "a
/// hash table maps handle values to vnodes").
///
/// The hasher is fixed and seedless, so a map built by the same inserts
/// and removals is laid out the same way on every run. Even so, no caller
/// lets the iteration order matter: a map is read by key, and anything
/// summed or counted over its values is order-free. State that needs an
/// order, or is a specification, stays in a `BTreeMap`
/// ([`crate::naive::NaiveLabel`]).
pub type HandleMap<V> = HashMap<Handle, V, BuildHasherDefault<HandleHasher>>;

/// The [`HandleMap`] hasher: one multiply by an odd constant.
///
/// A minted handle is a keyed-cipher output, so its bits are already
/// spread; the multiply carries them into the high bits the table's tag
/// bytes read, and handle values that are small or sequential (tests,
/// constants) still land in distinct buckets.
///
/// A process can name any handle value as a send's destination, so it
/// can choose mailbox keys that collide under this hasher. That costs
/// only host time, which a simulated handler can spend anyway (nothing
/// preempts one), so the tables take the fast hash over a keyed one.
#[derive(Clone, Copy, Default)]
pub struct HandleHasher(u64);

/// 2^64 divided by the golden ratio, rounded to odd (Fibonacci hashing).
const SPREAD: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for HandleHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(SPREAD);
    }

    /// Any other key shape, a byte at a time (a [`Handle`] hashes as one
    /// `u64` and never comes here).
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_bounds() {
        assert!(Handle::new(0).is_some());
        assert!(Handle::new(HANDLE_SPACE - 1).is_some());
        assert!(Handle::new(HANDLE_SPACE).is_none());
        assert!(Handle::new(u64::MAX).is_none());
    }

    #[test]
    fn raw_roundtrip() {
        let h = Handle::from_raw(0x1234_5678);
        assert_eq!(h.raw(), 0x1234_5678);
    }

    #[test]
    #[should_panic(expected = "exceeds 61 bits")]
    fn from_raw_panics_out_of_range() {
        let _ = Handle::from_raw(HANDLE_SPACE);
    }

    #[test]
    fn ordering_is_by_value() {
        assert!(Handle::from_raw(1) < Handle::from_raw(2));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Handle::from_raw(255).to_string(), "hff");
    }

    #[test]
    fn handle_hashes_are_fixed_and_distinct() {
        use std::hash::BuildHasher;
        let hash = |h: Handle| BuildHasherDefault::<HandleHasher>::default().hash_one(h);
        // Seedless: the same value hashes the same way on every run.
        assert_eq!(hash(Handle::from_raw(1)), SPREAD);
        // Sequential values reach distinct tag bits (the top seven).
        let tags: std::collections::BTreeSet<u64> =
            (0..128).map(|v| hash(Handle::from_raw(v)) >> 57).collect();
        assert!(tags.len() > 64, "{} distinct tags of 128", tags.len());
    }
}
