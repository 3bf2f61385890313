//! The [`Label`] type: a function from handles to levels (§5.1, §5.6).
//!
//! A label crosses the federation wire as its chunks, and the receiver
//! rebuilds it on the chunks it decoded or already held
//! ([`Label::from_chunks`]). A decoded label therefore keeps the sender's
//! chunk layout, exactly as a local send's `E_S` does, and its accounted
//! [`Label::heap_bytes`] does not depend on which side of the wire it was
//! built.
//!
//! A label costs the host what its chunks cost: one allocation per chunk,
//! and a chunk array only when it has two chunks or more — a label of at
//! most one chunk holds it inline, so building a small label allocates
//! once and cloning it not at all. Builds keep their open run of entries
//! on the stack, and [`Label::from_pairs`] sorts up to [`CHUNK_CAP`] pairs
//! in a stack buffer.

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;

use crate::chunk::{entry_handle, entry_level, pack, Chunk, CHUNK_CAP};
use crate::handle::Handle;
use crate::level::{Level, LevelSet};
use crate::merge;

thread_local! {
    /// Per-thread count of [`Label::clone`] calls (monotonic).
    ///
    /// The kernel's delivery path promises *zero* label clones when the
    /// Figure 4 effects change nothing; tests pin that promise by diffing
    /// this counter around deliveries. Thread-local so concurrently running tests
    /// (each kernel is single-threaded) cannot perturb each other's
    /// measurements.
    static CLONE_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Accounted size of the label header, in bytes.
///
/// Together with [`CHUNK_HEADER_BYTES`] and [`CHUNK_MIN_CAP`] this reproduces
/// the paper's §5.6 claim that "the smallest label is about 300 bytes long,
/// including space for one chunk": 44 + 16 + 30·8 = 300.
pub const LABEL_HEADER_BYTES: usize = 44;

/// Accounted per-chunk header size, in bytes.
pub const CHUNK_HEADER_BYTES: usize = 16;

/// Accounted minimum chunk capacity, in entries.
pub const CHUNK_MIN_CAP: usize = 30;

/// An Asbestos label: a total function from handles to [`Level`]s.
///
/// A label stores a *default level* that applies to every handle not
/// explicitly mentioned, plus a sorted set of explicit `(handle, level)`
/// entries whose levels differ from the default. The paper writes labels in
/// set notation such as `{h₁ 0, h₂ 1, 2}` — two explicit entries and a
/// default of `2` (the [`std::fmt::Display`] impl uses the same notation).
///
/// # Representation (§5.6)
///
/// Entries are packed 64-bit words (handle in the upper 61 bits, level in the
/// low 3) stored in refcounted chunks of up to 64 entries, each one
/// allocation (see [`Chunk`]). Labels share chunks structurally: cloning a
/// label is cheap, and mutation rebuilds only the affected chunk, once, at
/// its new size (copy-on-write). A label of at most one chunk holds it
/// inline, with no chunk array to allocate. Every chunk and
/// every label caches the set of levels it holds, enabling the paper's fast
/// path — if `L₂`'s maximum level is no larger than `L₁`'s minimum, then
/// `L₁ ⊔ L₂ = L₁` by definition — and its per-chunk form: an operation
/// decides a chunk of a large label from its marks alone, and evaluates only
/// the handles the small labels name (see `merge.rs`).
///
/// # Invariants
///
/// * Entries are strictly ascending by handle across all chunks.
/// * No entry's level equals the default (such entries are redundant and are
///   normalized away).
/// * Chunks are non-empty and hold at most [`CHUNK_CAP`] entries.
pub struct Label {
    chunks: Chunks,
    default: Level,
    /// Total explicit entries across chunks.
    len: usize,
    /// Every level the label takes: the chunks' marks and the default.
    levels: LevelSet,
}

impl Clone for Label {
    fn clone(&self) -> Label {
        CLONE_COUNT.with(|c| c.set(c.get() + 1));
        Label {
            chunks: self.chunks.clone(),
            default: self.default,
            len: self.len,
            levels: self.levels,
        }
    }
}

impl Label {
    /// Creates a label mapping every handle to `default`.
    pub fn new(default: Level) -> Label {
        Label {
            chunks: Chunks::default(),
            default,
            len: 0,
            levels: LevelSet::of(default),
        }
    }

    /// The empty send label `{1}`: every handle at the default send level.
    pub fn default_send() -> Label {
        Label::new(Level::DEFAULT_SEND)
    }

    /// The empty receive label `{2}`: every handle at the default receive level.
    pub fn default_recv() -> Label {
        Label::new(Level::DEFAULT_RECV)
    }

    /// The bottom label `{⋆}`: adds no contamination; the default for the
    /// optional contamination label `C_S` and decontaminate labels (§5.2).
    pub fn bottom() -> Label {
        Label::new(Level::Star)
    }

    /// The top label `{3}`: imposes no restriction; the default for the
    /// verification label `V` and for `D_S` (§5.4).
    pub fn top() -> Label {
        Label::new(Level::L3)
    }

    /// Builds a label from `(handle, level)` pairs on top of `default`.
    ///
    /// Pairs may be given in any order; duplicate handles keep the last pair.
    /// Pairs whose level equals the default are dropped (they are redundant).
    /// The entries are packed, sorted and normalized in one buffer — on the
    /// stack for at most [`CHUNK_CAP`] pairs, so such a label costs only its
    /// one chunk. A label of at most [`CHUNK_CAP`] entries is one chunk, a
    /// larger one is cut into full chunks and a last one holding the rest.
    pub fn from_pairs(default: Level, pairs: &[(Handle, Level)]) -> Label {
        let (mut stack, mut heap) = ([0u64; CHUNK_CAP], Vec::new());
        let entries = if pairs.len() <= CHUNK_CAP {
            &mut stack[..pairs.len()]
        } else {
            heap.resize(pairs.len(), 0);
            &mut heap[..]
        };
        for (slot, &(h, lv)) in entries.iter_mut().zip(pairs) {
            *slot = pack(h.raw(), lv);
        }
        let n = normalize(entries, default);
        let mut chunks = Chunks::default();
        for run in entries[..n].chunks(CHUNK_CAP) {
            chunks.push(Chunk::from_entries(run), n.div_ceil(CHUNK_CAP));
        }
        Label::on_chunks(default, chunks)
    }

    /// Builds a label on these very chunks, in O(chunks): each must be
    /// non-empty and at most [`CHUNK_CAP`] long, start above the handle
    /// the one before it ends on, and hold no entry at `default` (its
    /// marks say so). Anything else is `None` — checked, never repaired.
    /// The label keeps the chunks' layout and shares every one of them.
    pub fn from_chunks(default: Level, chunks: Vec<Chunk>) -> Option<Label> {
        let mut prev = None;
        for c in &chunks {
            if c.is_empty()
                || c.len() > CHUNK_CAP
                || c.levels().contains(default)
                || prev >= Some(c.first_handle())
            {
                return None;
            }
            prev = Some(c.last_handle());
        }
        Some(Label::on_chunks(default, Chunks::from_vec(chunks)))
    }

    /// The label on `chunks`, which already meet every invariant.
    fn on_chunks(default: Level, chunks: Chunks) -> Label {
        let mut label = Label {
            chunks,
            default,
            len: 0,
            levels: LevelSet::EMPTY,
        };
        label.after_mutation();
        label
    }

    /// The default level, applying to all handles without explicit entries.
    #[inline]
    pub fn default_level(&self) -> Level {
        self.default
    }

    /// The level this label assigns to `handle`.
    pub fn get(&self, handle: Handle) -> Level {
        let raw = handle.raw();
        match self.chunk_index_for(raw) {
            Some(ci) => self.chunks()[ci].find(raw).unwrap_or(self.default),
            None => self.default,
        }
    }

    /// Sets the level for `handle`, normalizing default-level entries away.
    pub fn set(&mut self, handle: Handle, level: Level) {
        let raw = handle.raw();
        if level == self.default {
            self.remove(raw);
        } else {
            self.insert(raw, level);
        }
    }

    /// Number of explicit entries.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.len
    }

    /// Whether the label has no explicit entries.
    #[inline]
    pub fn is_uniform(&self) -> bool {
        self.len == 0
    }

    /// Minimum level over all handles (entries and default).
    #[inline]
    pub fn min_level(&self) -> Level {
        self.levels.min().expect("holds the default")
    }

    /// Maximum level over all handles (entries and default).
    #[inline]
    pub fn max_level(&self) -> Level {
        self.levels.max().expect("holds the default")
    }

    /// Every level the label takes, over entries and default.
    #[inline]
    pub fn levels(&self) -> LevelSet {
        self.levels
    }

    /// Whether every handle maps to `⋆` (needed for the Figure 4 privilege
    /// checks when a decontamination label has a privileged *default*).
    #[inline]
    pub fn is_all_star(&self) -> bool {
        self.levels == LevelSet::of(Level::Star)
    }

    /// Total [`Label::clone`] calls on the current thread. A test
    /// observability hook: the kernel's delivery path must not clone
    /// labels, and tests verify that by diffing this counter.
    pub fn clone_count() -> u64 {
        CLONE_COUNT.with(Cell::get)
    }

    /// Iterates explicit `(handle, level)` entries in ascending handle order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, Level)> + '_ {
        self.chunks().iter().flat_map(|c| {
            c.entries().iter().map(|&e| {
                (
                    Handle::new(entry_handle(e)).expect("entries hold 61-bit handles"),
                    entry_level(e),
                )
            })
        })
    }

    /// Accounted heap size of this label in bytes (see [`LABEL_HEADER_BYTES`]).
    ///
    /// Shared chunks are charged to every label that references them, which
    /// over-approximates exactly like refcounted kernel memory does when each
    /// subsystem is billed for what it keeps alive.
    pub fn heap_bytes(&self) -> usize {
        let chunk_bytes: usize = if self.chunks().is_empty() {
            // The paper's smallest label includes space for one chunk.
            CHUNK_HEADER_BYTES + CHUNK_MIN_CAP * 8
        } else {
            self.chunks()
                .iter()
                .map(|c| CHUNK_HEADER_BYTES + c.len().max(CHUNK_MIN_CAP) * 8)
                .sum()
        };
        LABEL_HEADER_BYTES + chunk_bytes
    }

    // ------------------------------------------------------------------
    // Lattice operations (§5.1).
    // ------------------------------------------------------------------

    /// The partial order `self ⊑ other`: true iff `self(h) ≤ other(h)` for
    /// all handles `h`.
    pub fn leq(&self, other: &Label) -> bool {
        // §5.6's fast path, straight from the cached bounds.
        self.max_level() <= other.min_level() || merge::all([self, other], |[a, b]| a <= b)
    }

    /// The least upper bound `self ⊔ other`:
    /// `(L₁ ⊔ L₂)(h) = max(L₁(h), L₂(h))`.
    pub fn lub(&self, other: &Label) -> Label {
        self.join(other).into_owned()
    }

    /// The greatest lower bound `self ⊓ other`:
    /// `(L₁ ⊓ L₂)(h) = min(L₁(h), L₂(h))`.
    pub fn glb(&self, other: &Label) -> Label {
        self.meet(other).into_owned()
    }

    /// `self ⊔ other`, handing back an operand itself when the join *is*
    /// that operand (`L₁ ⊔ L₂ = L₁` iff `L₂ ⊑ L₁`): either one when the
    /// cached bounds show it, the one with more chunks otherwise. Callers
    /// that hold the operand behind an `Arc` keep it instead of allocating;
    /// a new label shares every chunk of that operand the join left alone.
    pub fn join<'a>(&'a self, other: &'a Label) -> Cow<'a, Label> {
        // §5.6's fast path, straight from the cached bounds.
        if other.max_level() <= self.min_level() {
            Cow::Borrowed(self)
        } else if self.max_level() <= other.min_level() {
            Cow::Borrowed(other)
        } else {
            merge::build([self, other], self.larger_of(other), |[a, b]| a.max(b))
        }
    }

    /// `self ⊓ other`, handing back an operand itself when the meet is that
    /// operand (`L₁ ⊓ L₂ = L₁` iff `L₁ ⊑ L₂`); see [`Label::join`].
    pub fn meet<'a>(&'a self, other: &'a Label) -> Cow<'a, Label> {
        if self.max_level() <= other.min_level() {
            Cow::Borrowed(self)
        } else if other.max_level() <= self.min_level() {
            Cow::Borrowed(other)
        } else {
            merge::build([self, other], self.larger_of(other), |[a, b]| a.min(b))
        }
    }

    /// The stars-only label `L⋆`: `⋆` where this label is `⋆`, `3` elsewhere
    /// (§5.3). Used to preserve a receiver's declassification privileges when
    /// applying contamination.
    pub fn stars_only(&self) -> Label {
        merge::build([self], 0, |[l]| l.star_only()).into_owned()
    }

    /// Total entries the label operations on the current thread examined
    /// one at a time: each handle evaluated exactly, and each entry of a
    /// chunk whose marks did not decide it. With [`Chunk::alloc_count`]
    /// this pins the §5.6 asymptotics deterministically (tests diff the
    /// counters).
    pub fn entries_visited() -> u64 {
        merge::entries_visited()
    }

    // ------------------------------------------------------------------
    // Internal chunk plumbing.
    // ------------------------------------------------------------------

    /// Which of `[self, other]` has more chunks to share with a result:
    /// the base a join or meet is edited from.
    fn larger_of(&self, other: &Label) -> usize {
        usize::from(other.chunks().len() > self.chunks().len())
    }

    /// The chunk array, ascending by handle range.
    #[inline]
    pub fn chunks(&self) -> &[Chunk] {
        self.chunks.as_slice()
    }

    /// Index of the chunk whose handle range could contain `raw`, if any.
    fn chunk_index_for(&self, raw: u64) -> Option<usize> {
        // First chunk whose last handle is >= raw.
        let chunks = self.chunks();
        let idx = chunks.partition_point(|c| c.last_handle() < raw);
        (idx < chunks.len()).then_some(idx)
    }

    /// Gives `raw` the non-default `level`: the chunk it lands in is
    /// rebuilt once, with room for a new entry, and split in half when that
    /// overflows it.
    fn insert(&mut self, raw: u64, level: Level) {
        debug_assert_ne!(level, self.default);
        let packed = pack(raw, level);
        let ci = match self.chunk_index_for(raw) {
            Some(ci) => ci,
            None if self.chunks().is_empty() => {
                self.chunks.push(Chunk::from_entries(&[packed]), 1);
                self.after_mutation();
                return;
            }
            // Larger than everything: append into the last chunk.
            None => self.chunks().len() - 1,
        };
        let chunk = &self.chunks()[ci];
        let entries = chunk.entries();
        match entries.binary_search_by_key(&raw, |&e| entry_handle(e)) {
            Err(i) if entries.len() == CHUNK_CAP => {
                // A full chunk: its entries and the new one, cut in half.
                let mut run = [0u64; CHUNK_CAP + 1];
                run[..i].copy_from_slice(&entries[..i]);
                run[i] = packed;
                run[i + 1..].copy_from_slice(&entries[i..]);
                let (left, right) = run.split_at(CHUNK_CAP / 2);
                let (left, right) = (Chunk::from_entries(left), Chunk::from_entries(right));
                self.chunks.replace(ci, left);
                self.chunks.insert(ci + 1, right);
            }
            Ok(i) | Err(i) => self.chunks.replace(ci, chunk.with_entry(i, packed)),
        }
        self.after_mutation();
    }

    fn remove(&mut self, raw: u64) {
        let Some(ci) = self.chunk_index_for(raw) else {
            return;
        };
        // Only rebuild the chunk if the entry is actually present.
        let chunk = &self.chunks()[ci];
        let Ok(i) = chunk
            .entries()
            .binary_search_by_key(&raw, |&e| entry_handle(e))
        else {
            return;
        };
        match chunk.without_entry(i) {
            Some(rest) => self.chunks.replace(ci, rest),
            None => self.chunks.remove(ci),
        }
        self.after_mutation();
    }

    /// Re-establishes the cached length and level bounds from chunk
    /// caches. O(number of chunks), not entries.
    fn after_mutation(&mut self) {
        self.len = self.chunks().iter().map(|c| c.len()).sum();
        self.levels = self
            .chunks()
            .iter()
            .fold(LevelSet::of(self.default), |set, c| set.union(c.levels()));
    }

    /// Number of chunks in the representation; used by tests.
    #[doc(hidden)]
    pub fn chunk_count(&self) -> usize {
        self.chunks().len()
    }

    /// How many of this label's chunks are the very allocation
    /// ([`Chunk::ptr_eq`]) some chunk of `other` is; used by tests.
    #[doc(hidden)]
    pub fn chunks_shared_with(&self, other: &Label) -> usize {
        self.chunks()
            .iter()
            .filter(|c| other.chunks().iter().any(|o| Chunk::ptr_eq(c, o)))
            .count()
    }

    /// Validates all representation invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut prev: Option<u64> = None;
        let mut count = 0;
        let mut levels = LevelSet::of(self.default);
        for c in self.chunks() {
            assert!(!c.is_empty(), "empty chunk");
            assert!(c.len() <= CHUNK_CAP, "oversized chunk");
            let mut marks = LevelSet::EMPTY;
            for (h, lv) in c.iter() {
                assert_ne!(lv, self.default, "default-level entry not normalized");
                if let Some(p) = prev {
                    assert!(p < h.raw(), "entries out of order");
                }
                prev = Some(h.raw());
                count += 1;
                marks = marks.union(LevelSet::of(lv));
            }
            assert_eq!(marks, c.levels(), "chunk marks stale");
            levels = levels.union(marks);
        }
        assert_eq!(count, self.len, "length cache stale");
        assert_eq!(levels, self.levels, "level marks stale");
    }
}

/// Sorts packed entries by handle, keeps the last of each run of equal
/// handles and drops entries at `default`, in place; returns how many
/// entries are left at the front.
fn normalize(entries: &mut [u64], default: Level) -> usize {
    // Stable, so that equal handles stay in input order.
    entries.sort_by_key(|&e| entry_handle(e));
    let mut kept = 0;
    for i in 0..entries.len() {
        let e = entries[i];
        // Last duplicate wins: a later pair overwrites the one kept.
        if kept > 0 && entry_handle(entries[kept - 1]) == entry_handle(e) {
            kept -= 1;
        }
        entries[kept] = e;
        kept += 1;
    }
    // A duplicate run's last pair decides it, even when that pair is at
    // the default.
    let mut n = 0;
    for i in 0..kept {
        if entry_level(entries[i]) != default {
            entries[n] = entries[i];
            n += 1;
        }
    }
    n
}

/// A label's chunk array: one chunk inline, or a `Vec` (empty for a
/// uniform label, which allocates nothing).
#[derive(Clone)]
enum Chunks {
    One(Chunk),
    Many(Vec<Chunk>),
}

impl Default for Chunks {
    fn default() -> Chunks {
        Chunks::Many(Vec::new())
    }
}

impl Chunks {
    /// `chunks`, with a lone chunk taken out of its `Vec`.
    fn from_vec(mut chunks: Vec<Chunk>) -> Chunks {
        match chunks.len() {
            1 => Chunks::One(chunks.pop().expect("one chunk")),
            _ => Chunks::Many(chunks),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[Chunk] {
        match self {
            Chunks::One(chunk) => std::slice::from_ref(chunk),
            Chunks::Many(chunks) => chunks,
        }
    }

    /// The array as a `Vec`, made with room for `room` chunks if it held
    /// one inline.
    fn as_vec(&mut self, room: usize) -> &mut Vec<Chunk> {
        if let Chunks::One(first) = self {
            let mut chunks = Vec::with_capacity(room.max(2));
            chunks.push(first.clone());
            *self = Chunks::Many(chunks);
        }
        match self {
            Chunks::Many(chunks) => chunks,
            Chunks::One(_) => unreachable!("made a Vec above"),
        }
    }

    /// Appends a chunk; the first one is held inline, and the array
    /// allocated for the second has room for `room` chunks.
    fn push(&mut self, chunk: Chunk, room: usize) {
        match self {
            Chunks::Many(chunks) if chunks.is_empty() => *self = Chunks::One(chunk),
            _ => self.as_vec(room).push(chunk),
        }
    }

    fn pop(&mut self) -> Option<Chunk> {
        match std::mem::take(self) {
            Chunks::One(chunk) => Some(chunk),
            Chunks::Many(mut chunks) => {
                let last = chunks.pop();
                *self = Chunks::Many(chunks);
                last
            }
        }
    }

    fn replace(&mut self, i: usize, chunk: Chunk) {
        match self {
            Chunks::One(only) => {
                debug_assert_eq!(i, 0);
                *only = chunk;
            }
            Chunks::Many(chunks) => chunks[i] = chunk,
        }
    }

    fn insert(&mut self, i: usize, chunk: Chunk) {
        let room = self.as_slice().len() + 1;
        self.as_vec(room).insert(i, chunk);
    }

    fn remove(&mut self, i: usize) {
        let mut chunks = match std::mem::take(self) {
            Chunks::One(_) => return,
            Chunks::Many(chunks) => chunks,
        };
        chunks.remove(i);
        *self = Chunks::from_vec(chunks);
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Label) -> bool {
        // Chunk boundaries may differ between equal labels, so compare
        // logical contents.
        self.default == other.default && self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for Label {}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Label {
    /// Formats in the paper's set notation, e.g. `{h3f 3, 1}`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (h, lv) in self.iter() {
            write!(f, "{h} {lv}, ")?;
        }
        write!(f, "{}}}", self.default)
    }
}

/// Streams ascending entries — one at a time, or a whole shared chunk at a
/// time — into chunked label storage.
///
/// Single entries pack densely. A shared chunk is taken by reference
/// unless it and its neighbour would fit in one chunk, in which case the
/// two are fused: two adjacent chunks of a result never both stay small,
/// so sharing cannot fragment a label (or inflate [`Label::heap_bytes`])
/// however many operations it passes through.
///
/// A build allocates the chunks it creates, each at its exact size, and
/// the chunk array once, when a second chunk needs it, at the size it was
/// told up front. The open run lives in the builder itself, a
/// [`CHUNK_CAP`]-entry array reused for every chunk.
pub(crate) struct LabelBuilder {
    default: Level,
    chunks: Chunks,
    /// Room to make for the chunk array once it is a `Vec`.
    room: usize,
    /// The open run: `run[..open]`.
    run: [u64; CHUNK_CAP],
    open: usize,
}

impl LabelBuilder {
    /// A builder whose chunk array has room for `chunks` chunks.
    pub(crate) fn with_chunks(default: Level, chunks: usize) -> LabelBuilder {
        LabelBuilder {
            default,
            chunks: Chunks::default(),
            room: chunks,
            run: [0; CHUNK_CAP],
            open: 0,
        }
    }

    /// Appends an entry; handles must arrive in strictly ascending order.
    /// Entries at the default level are skipped.
    pub(crate) fn push(&mut self, handle_raw: u64, level: Level) {
        if level != self.default {
            self.extend(&[pack(handle_raw, level)]);
        }
    }

    /// Appends ascending packed entries, none of them at the default level,
    /// a chunk's worth at a time.
    pub(crate) fn extend(&mut self, mut entries: &[u64]) {
        debug_assert!(self.run[..self.open]
            .last()
            .zip(entries.first())
            .is_none_or(|(&last, &first)| entry_handle(last) < entry_handle(first)));
        while !entries.is_empty() {
            let room = CHUNK_CAP - self.open;
            let (now, later) = entries.split_at(room.min(entries.len()));
            self.run[self.open..self.open + now.len()].copy_from_slice(now);
            self.open += now.len();
            entries = later;
            if self.open == CHUNK_CAP {
                self.flush();
            }
        }
    }

    /// Appends a whole chunk, none of its entries at the default level,
    /// sharing it unless it fuses with what precedes it.
    pub(crate) fn push_chunk(&mut self, chunk: &Chunk) {
        self.absorb_tail(chunk.len());
        if self.open == 0 || self.open + chunk.len() > CHUNK_CAP {
            self.flush();
            self.chunks.push(chunk.clone(), self.room);
        } else {
            self.extend(chunk.entries());
        }
    }

    /// Reopens the last closed chunk when it, the open run and `incoming`
    /// more entries would fit in one chunk.
    fn absorb_tail(&mut self, incoming: usize) {
        let Some(last) = self.chunks.as_slice().last() else {
            return;
        };
        let n = last.len();
        if n + self.open + incoming <= CHUNK_CAP {
            let last = self.chunks.pop().expect("checked above");
            self.run.copy_within(..self.open, n);
            self.run[..n].copy_from_slice(last.entries());
            self.open += n;
        }
    }

    /// Closes the open run of entries into an exact-size chunk, first
    /// absorbing a preceding chunk small enough to share it.
    fn flush(&mut self) {
        if self.open == 0 {
            return;
        }
        self.absorb_tail(0);
        let chunk = Chunk::from_entries(&self.run[..self.open]);
        self.open = 0;
        self.chunks.push(chunk, self.room);
    }

    pub(crate) fn finish(mut self) -> Label {
        self.flush();
        Label::on_chunks(self.default, self.chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(raw: u64) -> Handle {
        Handle::from_raw(raw)
    }

    #[test]
    fn new_label_is_uniform() {
        let l = Label::new(Level::L1);
        assert!(l.is_uniform());
        assert_eq!(l.get(h(7)), Level::L1);
        assert_eq!(l.entry_count(), 0);
        l.check_invariants();
    }

    #[test]
    fn set_get_and_normalize() {
        let mut l = Label::default_send();
        l.set(h(5), Level::L3);
        assert_eq!(l.get(h(5)), Level::L3);
        assert_eq!(l.get(h(6)), Level::L1);
        assert_eq!(l.entry_count(), 1);
        // Setting back to the default removes the entry.
        l.set(h(5), Level::L1);
        assert!(l.is_uniform());
        l.check_invariants();
    }

    #[test]
    fn from_pairs_sorts_dedups_normalizes() {
        let l = Label::from_pairs(
            Level::L1,
            &[
                (h(9), Level::L3),
                (h(2), Level::Star),
                (h(9), Level::L0), // duplicate: last wins
                (h(4), Level::L1), // default: dropped
            ],
        );
        assert_eq!(l.entry_count(), 2);
        assert_eq!(l.get(h(9)), Level::L0);
        assert_eq!(l.get(h(2)), Level::Star);
        assert_eq!(l.get(h(4)), Level::L1);
        l.check_invariants();
    }

    #[test]
    fn from_pairs_packs_full_chunks_then_the_rest() {
        let lens = |n: u64| {
            let pairs: Vec<(Handle, Level)> = (0..n).map(|i| (h(3 * i), Level::L3)).collect();
            let l = Label::from_pairs(Level::L1, &pairs);
            l.check_invariants();
            l.chunks().iter().map(|c| c.len()).collect::<Vec<_>>()
        };
        assert_eq!(lens(0), Vec::<usize>::new());
        assert_eq!(lens(1), [1]);
        assert_eq!(lens(64), [64]);
        assert_eq!(lens(65), [64, 1]);
        assert_eq!(lens(130), [64, 64, 2]);
        // 67 pairs over 65 handles, 64 entries: h7 again at ⋆ (the last
        // pair wins) and h9 at the default (no entry).
        let mut pairs: Vec<(Handle, Level)> = (0..65).map(|i| (h(i), Level::L3)).collect();
        pairs.push((h(7), Level::Star));
        pairs.push((h(9), Level::L1));
        pairs.swap(0, 64);
        let l = Label::from_pairs(Level::L1, &pairs);
        l.check_invariants();
        assert_eq!(l.entry_count(), 64);
        assert_eq!(l.chunk_count(), 1);
        assert_eq!(l.get(h(7)), Level::Star);
        assert_eq!(l.get(h(9)), Level::L1);
    }

    #[test]
    fn paper_figure2_examples() {
        // U_S = {uT 3, 1}, UT_R = {uT 3, 2}; V_S = {vT 3, 1}.
        let ut = h(100);
        let vt = h(200);
        let us = Label::from_pairs(Level::L1, &[(ut, Level::L3)]);
        let vs = Label::from_pairs(Level::L1, &[(vt, Level::L3)]);
        let utr = Label::from_pairs(Level::L2, &[(ut, Level::L3)]);
        // U_S ⊑ UT_R (u's shell can talk to u's terminal).
        assert!(us.leq(&utr));
        // V_S ⋢ UT_R: {vT 3,1} ⋢ {uT 3,2} because vT: 3 > 2.
        assert!(!vs.leq(&utr));
    }

    #[test]
    fn leq_default_comparison() {
        let send = Label::default_send(); // {1}
        let recv = Label::default_recv(); // {2}
        assert!(send.leq(&recv));
        assert!(!recv.leq(&send));
        assert!(send.leq(&send));
    }

    #[test]
    fn lub_glb_basic() {
        let ut = h(1);
        let vt = h(2);
        let a = Label::from_pairs(Level::L1, &[(ut, Level::L3)]);
        let b = Label::from_pairs(Level::L1, &[(vt, Level::L3)]);
        let join = a.lub(&b);
        assert_eq!(join.get(ut), Level::L3);
        assert_eq!(join.get(vt), Level::L3);
        assert_eq!(join.default_level(), Level::L1);
        let meet = a.glb(&b);
        assert_eq!(meet.get(ut), Level::L1);
        assert_eq!(meet.get(vt), Level::L1);
        assert!(meet.is_uniform());
        join.check_invariants();
        meet.check_invariants();
    }

    #[test]
    fn lub_fast_path_shares_chunks() {
        let mut big = Label::default_send();
        for i in 0..200 {
            big.set(h(i), Level::L3);
        }
        let bottom = Label::bottom();
        let out = big.lub(&bottom);
        assert_eq!(out, big);
    }

    #[test]
    fn stars_only() {
        let a = Label::from_pairs(Level::L1, &[(h(1), Level::Star), (h(2), Level::L3)]);
        let s = a.stars_only();
        assert_eq!(s.get(h(1)), Level::Star);
        assert_eq!(s.get(h(2)), Level::L3);
        assert_eq!(s.get(h(3)), Level::L3);
        assert_eq!(s.default_level(), Level::L3);
        // All-star labels map to all-star.
        assert!(Label::bottom().stars_only().is_all_star());
    }

    #[test]
    fn chunk_splitting_and_many_entries() {
        let mut l = Label::default_send();
        for i in 0..1000u64 {
            l.set(h(i * 3), Level::L3);
        }
        assert_eq!(l.entry_count(), 1000);
        l.check_invariants();
        for i in 0..1000u64 {
            assert_eq!(l.get(h(i * 3)), Level::L3);
        }
        assert_eq!(l.get(h(1)), Level::L1);
        // Remove every other entry.
        for i in (0..1000u64).step_by(2) {
            l.set(h(i * 3), Level::L1);
        }
        assert_eq!(l.entry_count(), 500);
        l.check_invariants();
    }

    #[test]
    fn insertion_after_last_chunk() {
        let mut l = Label::default_send();
        for i in 0..CHUNK_CAP as u64 {
            l.set(h(i), Level::L3);
        }
        // This handle is beyond every existing chunk's range.
        l.set(h(10_000), Level::L0);
        assert_eq!(l.get(h(10_000)), Level::L0);
        l.check_invariants();
    }

    #[test]
    fn equality_ignores_chunk_boundaries() {
        // Build the same logical label via different operation orders.
        let mut a = Label::default_send();
        for i in 0..150u64 {
            a.set(h(i), Level::L3);
        }
        let pairs: Vec<(Handle, Level)> = (0..150u64).map(|i| (h(i), Level::L3)).collect();
        let b = Label::from_pairs(Level::L1, &pairs);
        assert_eq!(a, b);
    }

    #[test]
    fn clone_is_shallow_and_cow() {
        let mut a = Label::default_send();
        for i in 0..100u64 {
            a.set(h(i), Level::L3);
        }
        let b = a.clone();
        a.set(h(5), Level::L0);
        assert_eq!(a.get(h(5)), Level::L0);
        assert_eq!(b.get(h(5)), Level::L3, "clone must be unaffected");
    }

    #[test]
    fn heap_bytes_smallest_is_300() {
        // §5.6: "The smallest label is about 300 bytes long, including space
        // for one chunk."
        assert_eq!(Label::default_send().heap_bytes(), 300);
        let mut one = Label::default_send();
        one.set(h(1), Level::L3);
        assert_eq!(one.heap_bytes(), 300);
    }

    #[test]
    fn heap_bytes_grows_with_entries() {
        let mut l = Label::default_send();
        for i in 0..1000u64 {
            l.set(h(i), Level::L3);
        }
        let bytes = l.heap_bytes();
        // 1000 entries at 8 bytes each plus headers.
        assert!(bytes >= 8000, "expected >= 8000 bytes, got {bytes}");
        assert!(bytes < 12_000, "expected < 12000 bytes, got {bytes}");
    }

    #[test]
    fn display_notation() {
        let l = Label::from_pairs(Level::L2, &[(h(0x3f), Level::L3)]);
        assert_eq!(l.to_string(), "{h3f 3, 2}");
    }

    #[test]
    fn min_max_track_default() {
        let mut l = Label::default_recv(); // {2}
        assert_eq!(l.min_level(), Level::L2);
        assert_eq!(l.max_level(), Level::L2);
        l.set(h(1), Level::Star);
        assert_eq!(l.min_level(), Level::Star);
        assert_eq!(l.max_level(), Level::L2);
        l.set(h(2), Level::L3);
        assert_eq!(l.max_level(), Level::L3);
        l.set(h(1), Level::L2); // remove
        l.set(h(2), Level::L2); // remove
        assert_eq!(l.min_level(), Level::L2);
        assert_eq!(l.max_level(), Level::L2);
    }

    fn chunk_of(handles: std::ops::Range<u64>, level: Level) -> Chunk {
        let entries: Vec<u64> = handles.map(|h| pack(h, level)).collect();
        Chunk::from_entries(&entries)
    }

    #[test]
    fn from_chunks_shares_the_chunks_it_is_given() {
        let chunks = vec![chunk_of(0..64, Level::L3), chunk_of(100..101, Level::Star)];
        let allocated = Chunk::alloc_count();
        let l = Label::from_chunks(Level::L1, chunks.clone()).unwrap();
        assert_eq!(Chunk::alloc_count(), allocated);
        assert!(l
            .chunks()
            .iter()
            .zip(&chunks)
            .all(|(a, b)| Chunk::ptr_eq(a, b)));
        assert_eq!(l.entry_count(), 65);
        assert_eq!((l.min_level(), l.max_level()), (Level::Star, Level::L3));
        l.check_invariants();
    }

    #[test]
    fn from_chunks_refuses_an_empty_or_oversized_chunk() {
        let empty = Chunk::unchecked(&[]);
        let entries: Vec<u64> = (0..=CHUNK_CAP as u64).map(|h| pack(h, Level::L3)).collect();
        let oversized = Chunk::unchecked(&entries);
        for chunk in [empty, oversized] {
            assert!(Label::from_chunks(Level::L1, vec![chunk]).is_none());
        }
    }

    #[test]
    fn from_chunks_refuses_chunks_that_do_not_ascend() {
        let (low, high) = (chunk_of(0..10, Level::L3), chunk_of(9..20, Level::L3));
        let above = chunk_of(20..30, Level::L3);
        assert!(Label::from_chunks(Level::L1, vec![low.clone(), above.clone()]).is_some());
        // Out of order, overlapping at handle 9, and one chunk twice.
        for chunks in [
            vec![above, low.clone()],
            vec![low.clone(), high],
            vec![low.clone(), low],
        ] {
            assert!(Label::from_chunks(Level::L1, chunks).is_none());
        }
    }

    #[test]
    fn from_chunks_refuses_a_chunk_at_the_default() {
        let chunk = chunk_of(0..3, Level::L3);
        assert!(Label::from_chunks(Level::L1, vec![chunk.clone()]).is_some());
        assert!(Label::from_chunks(Level::L3, vec![chunk]).is_none());
    }
}
