//! Chunks: the refcounted building blocks of the label representation (§5.6).
//!
//! "A label points to a sorted array of chunks, each of which is a sorted
//! array of up to 64 vnode pointers. Since these pointers are 8-byte aligned,
//! their lower 3 bits are again available for the corresponding levels. ...
//! chunks are reference counted and updated copy-on-write, and multiple
//! labels can share chunks. Each chunk is marked with the minimum and maximum
//! of its vnodes' levels."
//!
//! In this user-space reproduction an entry packs a 61-bit handle value into
//! the upper bits and the level into the low 3 bits, exactly the user-space
//! label format the paper describes in §5.6.

use std::cell::Cell;

use crate::handle::Handle;
use crate::level::{Level, LevelSet};

/// Maximum number of entries per chunk (§5.6: "up to 64 vnode pointers").
pub const CHUNK_CAP: usize = 64;

thread_local! {
    /// Per-thread count of chunks allocated (monotonic): built from
    /// entries, or copied by a copy-on-write mutation.
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
}

/// Packs a raw handle value and level into a 64-bit label entry.
#[inline]
pub fn pack(handle_raw: u64, level: Level) -> u64 {
    (handle_raw << 3) | level.to_bits()
}

/// The handle part of a packed entry.
#[inline]
pub fn entry_handle(packed: u64) -> u64 {
    packed >> 3
}

/// The level part of a packed entry.
///
/// Masks to the low 3 bits first so a full packed word — handle bits and
/// all — can never panic the decoder. [`pack`] only ever stores the five
/// valid encodings; the unused encodings 5–7 decode to the most-tainted
/// level `3` (with a debug assertion) rather than bringing the kernel down
/// on a corrupted entry.
#[inline]
pub fn entry_level(packed: u64) -> Level {
    match Level::from_bits(packed & 0x7) {
        Some(level) => level,
        None => {
            debug_assert!(false, "invalid level encoding {:#x}", packed & 0x7);
            Level::L3
        }
    }
}

/// A sorted run of up to [`CHUNK_CAP`] packed entries marked with the levels
/// they hold.
#[derive(PartialEq, Eq, Debug)]
pub struct Chunk {
    /// Packed entries, strictly ascending by handle.
    entries: Vec<u64>,
    /// The levels of the entries.
    levels: LevelSet,
}

impl Clone for Chunk {
    fn clone(&self) -> Chunk {
        count_alloc();
        Chunk {
            entries: self.entries.clone(),
            ..*self
        }
    }
}

impl Chunk {
    /// Total chunks allocated on the current thread. A test observability
    /// hook like `Label::clone_count`: an operation that promises to share
    /// chunks is checked by diffing this counter around it.
    pub fn alloc_count() -> u64 {
        ALLOC_COUNT.with(Cell::get)
    }

    /// Builds a chunk from packed entries (must be non-empty, sorted strictly
    /// ascending by handle, and at most [`CHUNK_CAP`] long).
    pub fn from_entries(entries: Vec<u64>) -> Chunk {
        count_alloc();
        debug_assert!(!entries.is_empty());
        debug_assert!(entries.len() <= CHUNK_CAP);
        debug_assert!(entries
            .windows(2)
            .all(|w| entry_handle(w[0]) < entry_handle(w[1])));
        let mut c = Chunk {
            entries,
            levels: LevelSet::EMPTY,
        };
        c.recompute_bounds();
        c
    }

    /// Recomputes the cached level marks after a mutation.
    pub fn recompute_bounds(&mut self) {
        self.levels = self.entries.iter().fold(LevelSet::EMPTY, |set, &e| {
            set.union(LevelSet::of(entry_level(e)))
        });
    }

    /// The levels the entries hold.
    #[inline]
    pub fn levels(&self) -> LevelSet {
        self.levels
    }

    /// The packed entries.
    #[inline]
    pub fn entries(&self) -> &[u64] {
        &self.entries
    }

    /// Mutable access to the packed entries; callers must re-establish the
    /// sorted invariant and call [`Chunk::recompute_bounds`].
    #[inline]
    pub fn entries_mut(&mut self) -> &mut Vec<u64> {
        &mut self.entries
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the chunk holds no entries (transient state during mutation).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest handle in the chunk.
    #[inline]
    pub fn first_handle(&self) -> u64 {
        entry_handle(self.entries[0])
    }

    /// Largest handle in the chunk.
    #[inline]
    pub fn last_handle(&self) -> u64 {
        entry_handle(*self.entries.last().expect("chunks are non-empty"))
    }

    /// Minimum level over the entries.
    #[inline]
    pub fn min_level(&self) -> Level {
        self.levels.min().expect("chunks are non-empty")
    }

    /// Maximum level over the entries.
    #[inline]
    pub fn max_level(&self) -> Level {
        self.levels.max().expect("chunks are non-empty")
    }

    /// Looks up the level for a raw handle value, if present.
    pub fn find(&self, handle_raw: u64) -> Option<Level> {
        self.entries
            .binary_search_by_key(&handle_raw, |&e| entry_handle(e))
            .ok()
            .map(|i| entry_level(self.entries[i]))
    }

    /// Iterates `(Handle, Level)` pairs in ascending handle order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, Level)> + '_ {
        self.entries.iter().map(|&e| {
            (
                Handle::new(entry_handle(e)).expect("packed entries hold 61-bit handles"),
                entry_level(e),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(pairs: &[(u64, Level)]) -> Chunk {
        Chunk::from_entries(pairs.iter().map(|&(h, l)| pack(h, l)).collect())
    }

    #[test]
    fn pack_roundtrip() {
        let p = pack(0x1fff_ffff_ffff_ffff, Level::Star);
        assert_eq!(entry_handle(p), 0x1fff_ffff_ffff_ffff);
        assert_eq!(entry_level(p), Level::Star);
    }

    #[test]
    fn entry_level_never_panics_on_full_packed_word() {
        // A maximum-handle entry fills all 61 upper bits; decoding the
        // level must mask before interpreting the word.
        for lv in Level::ALL {
            let p = pack(0x1fff_ffff_ffff_ffff, lv);
            assert_eq!(entry_level(p), lv);
        }
        // All-ones word: handle bits are garbage and the level encoding
        // (7) is one of the unused ones — decode degrades, not panics.
        let garbage = u64::MAX;
        if cfg!(debug_assertions) {
            assert!(std::panic::catch_unwind(|| entry_level(garbage)).is_err());
        } else {
            assert_eq!(entry_level(garbage), Level::L3);
        }
    }

    #[test]
    fn bounds_cached() {
        let c = chunk(&[(1, Level::L1), (2, Level::Star), (9, Level::L3)]);
        assert_eq!(c.min_level(), Level::Star);
        assert_eq!(c.max_level(), Level::L3);
        assert_eq!(c.first_handle(), 1);
        assert_eq!(c.last_handle(), 9);
    }

    #[test]
    fn find_present_and_absent() {
        let c = chunk(&[(5, Level::L0), (10, Level::L2)]);
        assert_eq!(c.find(5), Some(Level::L0));
        assert_eq!(c.find(10), Some(Level::L2));
        assert_eq!(c.find(7), None);
        assert_eq!(c.find(0), None);
        assert_eq!(c.find(11), None);
    }

    #[test]
    fn iter_order() {
        let c = chunk(&[(3, Level::L1), (4, Level::L2)]);
        let got: Vec<_> = c.iter().map(|(h, l)| (h.raw(), l)).collect();
        assert_eq!(got, vec![(3, Level::L1), (4, Level::L2)]);
    }
}
