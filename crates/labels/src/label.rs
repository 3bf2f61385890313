//! The [`Label`] type: a function from handles to levels (§5.1, §5.6).

use std::borrow::Cow;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

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
/// low 3) stored in refcounted chunks of up to 64 entries. Labels share
/// chunks structurally: cloning a label is cheap, and mutation copies only
/// the affected chunk (copy-on-write via [`Arc::make_mut`]). Every chunk and
/// every label caches its minimum and maximum level, enabling the paper's
/// fast path: if `L₂`'s maximum level is no larger than `L₁`'s minimum, then
/// `L₁ ⊔ L₂ = L₁` by definition.
///
/// # Invariants
///
/// * Entries are strictly ascending by handle across all chunks.
/// * No entry's level equals the default (such entries are redundant and are
///   normalized away).
/// * Chunks are non-empty and hold at most [`CHUNK_CAP`] entries.
pub struct Label {
    chunks: Vec<Arc<Chunk>>,
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
            chunks: Vec::new(),
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
    pub fn from_pairs(default: Level, pairs: &[(Handle, Level)]) -> Label {
        let mut sorted: Vec<(Handle, Level)> = pairs.to_vec();
        sorted.sort_by_key(|&(h, _)| h);
        let mut builder = LabelBuilder::new(default);
        let mut i = 0;
        while i < sorted.len() {
            let (h, mut lv) = sorted[i];
            // Last duplicate wins.
            while i + 1 < sorted.len() && sorted[i + 1].0 == h {
                i += 1;
                lv = sorted[i].1;
            }
            builder.push(h.raw(), lv);
            i += 1;
        }
        builder.finish()
    }

    /// Builds a label from its canonical packed run: entries as [`pack`]
    /// stores them (`handle << 3 | level`), handles strictly ascending,
    /// level bits valid, none at `default` — exactly what
    /// [`Label::packed_entries`] yields. Anything else is `None`: the run
    /// is checked, not repaired, so equal labels have one packed form.
    ///
    /// The entries go straight into dense chunks (only the last may hold
    /// fewer than [`CHUNK_CAP`]), one allocation each — the layout
    /// [`Label::from_pairs`] gives the same entries.
    pub fn from_packed_ascending<I>(default: Level, entries: I) -> Option<Label>
    where
        I: IntoIterator<Item = u64>,
    {
        let mut entries = entries.into_iter().peekable();
        let mut chunks = Vec::with_capacity(entries.size_hint().0.div_ceil(CHUNK_CAP));
        let mut prev = None;
        while entries.peek().is_some() {
            let mut run = Vec::with_capacity(entries.size_hint().0.clamp(1, CHUNK_CAP));
            for packed in entries.by_ref().take(CHUNK_CAP) {
                let handle = entry_handle(packed);
                if Level::from_bits(packed & 0x7)? == default || prev >= Some(handle) {
                    return None;
                }
                prev = Some(handle);
                run.push(packed);
            }
            chunks.push(Arc::new(Chunk::from_entries(run)));
        }
        let mut label = Label {
            chunks,
            default,
            len: 0,
            levels: LevelSet::EMPTY,
        };
        label.after_mutation();
        Some(label)
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
            Some(ci) => self.chunks[ci].find(raw).unwrap_or(self.default),
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
        self.chunks.iter().flat_map(|c| {
            c.entries().iter().map(|&e| {
                (
                    Handle::new(entry_handle(e)).expect("entries hold 61-bit handles"),
                    entry_level(e),
                )
            })
        })
    }

    /// Iterates the explicit entries in their packed §5.6 form
    /// (`handle << 3 | level`), chunk by chunk in ascending handle order:
    /// the label's canonical run, which [`Label::from_packed_ascending`]
    /// turns back into an equal label.
    pub fn packed_entries(&self) -> impl Iterator<Item = u64> + '_ {
        self.chunks.iter().flat_map(|c| c.entries().iter().copied())
    }

    /// Accounted heap size of this label in bytes (see [`LABEL_HEADER_BYTES`]).
    ///
    /// Shared chunks are charged to every label that references them, which
    /// over-approximates exactly like refcounted kernel memory does when each
    /// subsystem is billed for what it keeps alive.
    pub fn heap_bytes(&self) -> usize {
        let chunk_bytes: usize = if self.chunks.is_empty() {
            // The paper's smallest label includes space for one chunk.
            CHUNK_HEADER_BYTES + CHUNK_MIN_CAP * 8
        } else {
            self.chunks
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
        // Fast path from §5.6 via the cached bounds.
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

    /// `self ⊔ other`, handing back the operand itself when the join *is*
    /// that operand (`L₁ ⊔ L₂ = L₁` iff `L₂ ⊑ L₁`, of which §5.6's
    /// "`L₂`'s maximum level is no larger than `L₁`'s minimum" is the O(1)
    /// case). Callers that hold the operand behind an `Arc` keep it instead
    /// of allocating; a new label shares every chunk the join left alone.
    pub fn join<'a>(&'a self, other: &'a Label) -> Cow<'a, Label> {
        if other.leq(self) {
            Cow::Borrowed(self)
        } else if self.leq(other) {
            Cow::Borrowed(other)
        } else {
            Cow::Owned(merge::build(
                [self, other],
                self.larger_of(other),
                |[a, b]| a.max(b),
            ))
        }
    }

    /// `self ⊓ other`, handing back the operand itself when the meet is
    /// that operand (`L₁ ⊓ L₂ = L₁` iff `L₁ ⊑ L₂`); see [`Label::join`].
    pub fn meet<'a>(&'a self, other: &'a Label) -> Cow<'a, Label> {
        if self.leq(other) {
            Cow::Borrowed(self)
        } else if other.leq(self) {
            Cow::Borrowed(other)
        } else {
            Cow::Owned(merge::build(
                [self, other],
                self.larger_of(other),
                |[a, b]| a.min(b),
            ))
        }
    }

    /// The stars-only label `L⋆`: `⋆` where this label is `⋆`, `3` elsewhere
    /// (§5.3). Used to preserve a receiver's declassification privileges when
    /// applying contamination.
    pub fn stars_only(&self) -> Label {
        merge::build([self], 0, |[l]| l.star_only())
    }

    /// Total entries the label operations on the current thread examined
    /// one at a time — everything not skipped or shared a whole run at a
    /// time from cached chunk bounds. With [`Chunk::alloc_count`] this pins
    /// the §5.6 asymptotics deterministically (tests diff the counters).
    pub fn entries_visited() -> u64 {
        merge::entries_visited()
    }

    // ------------------------------------------------------------------
    // Internal chunk plumbing.
    // ------------------------------------------------------------------

    /// Which of `[self, other]` has more chunks to share with a result.
    fn larger_of(&self, other: &Label) -> usize {
        usize::from(other.chunks.len() > self.chunks.len())
    }

    /// The chunk array, ascending by handle range.
    #[inline]
    pub(crate) fn chunks(&self) -> &[Arc<Chunk>] {
        &self.chunks
    }

    /// Index of the chunk whose handle range could contain `raw`, if any.
    fn chunk_index_for(&self, raw: u64) -> Option<usize> {
        if self.chunks.is_empty() {
            return None;
        }
        // First chunk whose last handle is >= raw.
        let idx = self.chunks.partition_point(|c| c.last_handle() < raw);
        if idx == self.chunks.len() {
            None
        } else {
            Some(idx)
        }
    }

    fn insert(&mut self, raw: u64, level: Level) {
        debug_assert_ne!(level, self.default);
        let ci = match self.chunk_index_for(raw) {
            Some(ci) => ci,
            None if self.chunks.is_empty() => {
                self.chunks
                    .push(Arc::new(Chunk::from_entries(vec![pack(raw, level)])));
                self.after_mutation();
                return;
            }
            // Larger than everything: append into the last chunk.
            None => self.chunks.len() - 1,
        };
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        let entries = chunk.entries_mut();
        match entries.binary_search_by_key(&raw, |&e| entry_handle(e)) {
            Ok(i) => entries[i] = pack(raw, level),
            Err(i) => entries.insert(i, pack(raw, level)),
        }
        chunk.recompute_bounds();
        if chunk.len() > CHUNK_CAP {
            let right = chunk.entries_mut().split_off(CHUNK_CAP / 2);
            chunk.recompute_bounds();
            self.chunks
                .insert(ci + 1, Arc::new(Chunk::from_entries(right)));
        }
        self.after_mutation();
    }

    fn remove(&mut self, raw: u64) {
        let Some(ci) = self.chunk_index_for(raw) else {
            return;
        };
        // Only copy the chunk if the entry is actually present.
        if self.chunks[ci].find(raw).is_none() {
            return;
        }
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        let entries = chunk.entries_mut();
        if let Ok(i) = entries.binary_search_by_key(&raw, |&e| entry_handle(e)) {
            entries.remove(i);
        }
        if chunk.is_empty() {
            self.chunks.remove(ci);
        } else {
            chunk.recompute_bounds();
        }
        self.after_mutation();
    }

    /// Re-establishes the cached length and level bounds from chunk
    /// caches. O(number of chunks), not entries.
    fn after_mutation(&mut self) {
        self.len = self.chunks.iter().map(|c| c.len()).sum();
        self.levels = self
            .chunks
            .iter()
            .fold(LevelSet::of(self.default), |set, c| set.union(c.levels()));
    }

    /// Number of chunks in the representation; used by tests.
    #[doc(hidden)]
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this label's chunks are the very allocation
    /// ([`Arc::ptr_eq`]) some chunk of `other` is; used by tests.
    #[doc(hidden)]
    pub fn chunks_shared_with(&self, other: &Label) -> usize {
        self.chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count()
    }

    /// Validates all representation invariants; used by tests.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut prev: Option<u64> = None;
        let mut count = 0;
        let mut levels = LevelSet::of(self.default);
        for c in &self.chunks {
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
pub(crate) struct LabelBuilder {
    default: Level,
    chunks: Vec<Arc<Chunk>>,
    current: Vec<u64>,
}

impl LabelBuilder {
    pub(crate) fn new(default: Level) -> LabelBuilder {
        LabelBuilder {
            default,
            chunks: Vec::new(),
            current: Vec::new(),
        }
    }

    /// Appends an entry; handles must arrive in strictly ascending order.
    /// Entries at the default level are skipped.
    pub(crate) fn push(&mut self, handle_raw: u64, level: Level) {
        if level != self.default {
            self.push_packed(pack(handle_raw, level));
        }
    }

    /// Appends packed entries, none of them at the default level.
    pub(crate) fn extend(&mut self, entries: &[u64]) {
        for &e in entries {
            self.push_packed(e);
        }
    }

    /// Appends a whole chunk, none of its entries at the default level,
    /// sharing it unless it fuses with what precedes it.
    pub(crate) fn push_chunk(&mut self, chunk: &Arc<Chunk>) {
        self.absorb_tail(chunk.len());
        if self.current.is_empty() || self.current.len() + chunk.len() > CHUNK_CAP {
            self.flush();
            self.chunks.push(Arc::clone(chunk));
        } else {
            self.extend(chunk.entries());
        }
    }

    /// Reopens the last closed chunk when it, the open run and `incoming`
    /// more entries would fit in one chunk.
    fn absorb_tail(&mut self, incoming: usize) {
        if let Some(last) = self.chunks.last() {
            if last.len() + self.current.len() + incoming <= CHUNK_CAP {
                let last = self.chunks.pop().expect("matched Some");
                self.current.splice(0..0, last.entries().iter().copied());
            }
        }
    }

    fn push_packed(&mut self, packed: u64) {
        debug_assert!(self
            .current
            .last()
            .is_none_or(|&e| entry_handle(e) < entry_handle(packed)));
        self.current.push(packed);
        if self.current.len() == CHUNK_CAP {
            self.flush();
        }
    }

    /// Closes the open run of entries into a chunk, first absorbing a
    /// preceding chunk small enough to share it.
    fn flush(&mut self) {
        if self.current.is_empty() {
            return;
        }
        self.absorb_tail(0);
        let entries = std::mem::take(&mut self.current);
        self.chunks.push(Arc::new(Chunk::from_entries(entries)));
    }

    pub(crate) fn finish(mut self) -> Label {
        self.flush();
        let mut label = Label {
            chunks: self.chunks,
            default: self.default,
            len: 0,
            levels: LevelSet::EMPTY,
        };
        label.after_mutation();
        label
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
}
