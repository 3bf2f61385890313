//! The chunk-run merge: every label operation as one walk over the
//! operands' chunk arrays (§5.6).
//!
//! "Chunks are reference counted and updated copy-on-write, and multiple
//! labels can share chunks; each chunk is marked with the minimum and
//! maximum of its vnodes' levels." The walk below is what those marks are
//! for. A pointwise operation over `N` labels is decided a *range of
//! handles* at a time: inside a range each operand takes only the levels its
//! chunks there are marked with, or its default, so evaluating the
//! operation over that handful of level combinations ([`every_combo`])
//! settles every handle in the range at once. Two kinds of range are tried
//! before any entry is looked at:
//!
//! * a **region** — everything up to the end of one chunk of the *base*
//!   operand (the label a result is expected to resemble, or the one with
//!   the most chunks). The other operands may have any number of entries
//!   inside it;
//! * a **solo run** — inside a region the marks could not settle, a stretch
//!   of one operand's chunk that no other operand has an entry inside.
//!
//! [`all`] (predicates: `⊑` and the Figure 4 checks) skips a range its
//! marks prove. [`build`] (results: `⊔`, `⊓`, contamination) carries a range
//! the operation is the identity on into the result — by `Arc::clone` when
//! the range is a whole chunk — and drops one that collapses onto the
//! result's default. Only what the marks cannot decide is evaluated entry
//! by entry. Host cost is O(chunks + entries in undecided ranges); the
//! *charged* cost is not computed here at all (see [`crate::ops::op_work`]).

use std::cell::Cell;
use std::sync::Arc;

use crate::chunk::{entry_handle, entry_level, Chunk};
use crate::label::{Label, LabelBuilder};
use crate::level::{Level, LevelSet};

thread_local! {
    /// Entries this thread's merges examined one at a time (monotonic).
    static ENTRIES_VISITED: Cell<u64> = const { Cell::new(0) };
}

/// Total entries merges on the current thread examined individually —
/// everything not skipped or shared a range at a time. A test observability
/// hook like [`Label::clone_count`]: the asymptotics are pinned by diffing
/// it, not by timing.
pub(crate) fn entries_visited() -> u64 {
    ENTRIES_VISITED.with(Cell::get)
}

#[inline]
fn visit(n: usize) {
    ENTRIES_VISITED.with(|c| c.set(c.get() + n as u64));
}

/// Sentinel "next handle" of an exhausted operand, and the end of the last
/// region; real handles are 61-bit.
const END: u64 = u64::MAX;

/// Whether `holds` is true of every way of drawing one level from each set
/// (none of them empty).
fn every_combo<const N: usize>(
    sets: [LevelSet; N],
    mut holds: impl FnMut([Level; N]) -> bool,
) -> bool {
    let lowest = |set: LevelSet| set.min().expect("level sets hold a default");
    let mut rest = sets;
    let mut levels = sets.map(lowest);
    loop {
        if !holds(levels) {
            return false;
        }
        // Odometer: step the first position that has a level left, resetting
        // the ones before it.
        let mut i = 0;
        loop {
            if i == N {
                return true;
            }
            rest[i] = rest[i].without_min();
            if !rest[i].is_empty() {
                levels[i] = lowest(rest[i]);
                break;
            }
            rest[i] = sets[i];
            levels[i] = lowest(sets[i]);
            i += 1;
        }
    }
}

/// One operand's position: chunk index and offset within that chunk.
struct Cursor<'a> {
    chunks: &'a [Arc<Chunk>],
    ci: usize,
    off: usize,
}

impl<'a> Cursor<'a> {
    #[inline]
    fn next_handle(&self) -> u64 {
        match self.chunks.get(self.ci) {
            Some(c) => entry_handle(c.entries()[self.off]),
            None => END,
        }
    }

    /// Consumes `n` entries of the current chunk.
    #[inline]
    fn advance(&mut self, n: usize) {
        self.off += n;
        if self.off == self.chunks[self.ci].len() {
            self.ci += 1;
            self.off = 0;
        }
    }

    /// The marks of every chunk holding an unconsumed entry at or below
    /// `hi`: a superset of the levels of those entries.
    fn marks_through(&self, hi: u64) -> LevelSet {
        if self.next_handle() > hi {
            return LevelSet::EMPTY;
        }
        self.chunks[self.ci..]
            .iter()
            .take_while(|c| c.first_handle() <= hi)
            .fold(LevelSet::EMPTY, |set, c| set.union(c.levels()))
    }

    /// Consumes every entry at or below `hi`.
    fn skip_through(&mut self, hi: u64) {
        while let Some(c) = self.chunks.get(self.ci) {
            if c.last_handle() > hi {
                let rest = &c.entries()[self.off..];
                self.off += rest.partition_point(|&e| entry_handle(e) <= hi);
                return;
            }
            self.ci += 1;
            self.off = 0;
        }
    }
}

/// What one entry-level step of the merge covers.
enum Run<'a, const N: usize> {
    /// `entries` — the rest of operand `operand`'s `chunk`, or as much of it
    /// as precedes the next handle any other operand names — with every
    /// other operand at its default.
    Solo {
        operand: usize,
        chunk: &'a Arc<Chunk>,
        entries: &'a [u64],
    },
    /// One handle named by at least two operands, with every operand's
    /// level there (explicit or default).
    Point { handle: u64, levels: [Level; N] },
}

struct RunMerge<'a, const N: usize> {
    cursors: [Cursor<'a>; N],
    defaults: [Level; N],
}

impl<'a, const N: usize> RunMerge<'a, N> {
    fn new(labels: [&'a Label; N]) -> RunMerge<'a, N> {
        RunMerge {
            cursors: labels.map(|l| Cursor {
                chunks: l.chunks(),
                ci: 0,
                off: 0,
            }),
            defaults: labels.map(Label::default_level),
        }
    }

    /// The levels each operand can take at the unconsumed handles up to
    /// `hi`: its default, and the marks of its chunks there.
    fn levels_through(&self, hi: u64) -> [LevelSet; N] {
        let mut sets = self.defaults.map(LevelSet::of);
        for (set, cursor) in sets.iter_mut().zip(&self.cursors) {
            *set = set.union(cursor.marks_through(hi));
        }
        sets
    }

    /// The levels the operands take along a solo run of `operand`.
    fn levels_along(&self, operand: usize, chunk: &Chunk) -> [LevelSet; N] {
        let mut sets = self.defaults.map(LevelSet::of);
        sets[operand] = chunk.levels();
        sets
    }

    /// Consumes every operand's entries at or below `hi`.
    fn skip_through(&mut self, hi: u64) {
        for cursor in &mut self.cursors {
            cursor.skip_through(hi);
        }
    }

    /// The next run starting at or below `hi`, if any.
    fn next_through(&mut self, hi: u64) -> Option<Run<'a, N>> {
        // The operand with the smallest next handle leads; `limit` is the
        // smallest next handle among the others.
        let (mut lead, mut first, mut limit) = (0, END, END);
        for (i, c) in self.cursors.iter().enumerate() {
            let h = c.next_handle();
            if h < first {
                (lead, limit, first) = (i, first, h);
            } else if h < limit {
                limit = h;
            }
        }
        if first == END || first > hi {
            return None;
        }
        if first == limit {
            let mut levels = self.defaults;
            for (c, level) in self.cursors.iter_mut().zip(&mut levels) {
                if c.next_handle() == first {
                    *level = entry_level(c.chunks[c.ci].entries()[c.off]);
                    c.advance(1);
                }
            }
            return Some(Run::Point {
                handle: first,
                levels,
            });
        }
        let cursor = &mut self.cursors[lead];
        let chunk = &cursor.chunks[cursor.ci];
        let rest = &chunk.entries()[cursor.off..];
        let n = if chunk.last_handle() < limit {
            rest.len()
        } else {
            rest.partition_point(|&e| entry_handle(e) < limit)
        };
        cursor.advance(n);
        Some(Run::Solo {
            operand: lead,
            chunk,
            entries: &rest[..n],
        })
    }
}

/// The ends of the regions a walk based on `label` goes through: each of
/// its chunks' last handle, then the rest of the handle space.
fn region_ends(label: &Label) -> impl Iterator<Item = (u64, Option<&Arc<Chunk>>)> {
    let chunks = label.chunks().iter();
    chunks
        .map(|c| (c.last_handle(), Some(c)))
        .chain([(END, None)])
}

/// `levels` with position `operand` replaced.
#[inline]
fn with<const N: usize>(mut levels: [Level; N], operand: usize, level: Level) -> [Level; N] {
    levels[operand] = level;
    levels
}

/// Whether `ok` holds at every handle — the infinitely many at the
/// defaults included.
pub(crate) fn all<const N: usize>(labels: [&Label; N], ok: impl Fn([Level; N]) -> bool) -> bool {
    // The whole handle space as one range: §5.6's "L₂'s maximum level is
    // no larger than L₁'s minimum" fast path, for any predicate.
    if every_combo(labels.map(Label::levels), &ok) {
        return true;
    }
    let defaults = labels.map(Label::default_level);
    if !ok(defaults) {
        return false;
    }
    let base = (0..N)
        .max_by_key(|&i| labels[i].chunks().len())
        .expect("at least one operand");
    let mut merge = RunMerge::new(labels);
    for (hi, _) in region_ends(labels[base]) {
        if every_combo(merge.levels_through(hi), &ok) {
            merge.skip_through(hi);
            continue;
        }
        while let Some(run) = merge.next_through(hi) {
            match run {
                Run::Point { levels, .. } => {
                    visit(1);
                    if !ok(levels) {
                        return false;
                    }
                }
                Run::Solo {
                    operand,
                    chunk,
                    entries,
                } => {
                    if every_combo(merge.levels_along(operand, chunk), &ok) {
                        continue;
                    }
                    visit(entries.len());
                    let ok_at = |&e: &u64| ok(with(defaults, operand, entry_level(e)));
                    if !entries.iter().all(ok_at) {
                        return false;
                    }
                }
            }
        }
    }
    true
}

/// How `f` treats a range of handles, judged from level sets alone.
struct Verdict {
    /// `f` returns operand `keep`'s own level everywhere in the range.
    kept: bool,
    /// `f` returns the result's default everywhere in the range.
    gone: bool,
}

fn judge<const N: usize>(
    sets: [LevelSet; N],
    f: impl Fn([Level; N]) -> Level,
    keep: usize,
    default: Level,
) -> Verdict {
    let mut verdict = Verdict {
        kept: true,
        gone: true,
    };
    every_combo(sets, |levels| {
        let mapped = f(levels);
        verdict.kept &= mapped == levels[keep];
        verdict.gone &= mapped == default;
        verdict.kept || verdict.gone
    });
    verdict
}

/// The label mapping every handle `h` to `f(labels[0](h), …)`.
///
/// Chunks of `labels[base]` that `f` leaves alone are shared with it —
/// whatever entries the other operands have in their range — so a result
/// that differs from the base in one place costs the chunks around that
/// place, not the label.
pub(crate) fn build<const N: usize>(
    labels: [&Label; N],
    base: usize,
    f: impl Fn([Level; N]) -> Level,
) -> Label {
    let defaults = labels.map(Label::default_level);
    let default = f(defaults);
    let mut out = LabelBuilder::new(default);
    let mut merge = RunMerge::new(labels);
    for (hi, base_chunk) in region_ends(labels[base]) {
        // Kept: the base's entries are reproduced and — its default being
        // one of the levels judged — nothing is added at handles it does not
        // name, so the result's entries here are exactly this chunk.
        let verdict = judge(merge.levels_through(hi), &f, base, default);
        if verdict.gone {
            merge.skip_through(hi);
            continue;
        }
        if let (true, Some(chunk)) = (verdict.kept, base_chunk) {
            out.push_chunk(chunk);
            merge.skip_through(hi);
            continue;
        }
        while let Some(run) = merge.next_through(hi) {
            match run {
                Run::Point { handle, levels } => {
                    visit(1);
                    out.push(handle, f(levels));
                }
                Run::Solo {
                    operand,
                    chunk,
                    entries,
                } => {
                    let verdict = judge(merge.levels_along(operand, chunk), &f, operand, default);
                    if verdict.gone {
                        continue;
                    }
                    // A kept entry at the result's default would vanish.
                    let kept = verdict.kept && !chunk.levels().contains(default);
                    if kept && entries.len() == chunk.len() {
                        out.push_chunk(chunk);
                        continue;
                    }
                    visit(entries.len());
                    if kept {
                        out.extend(entries);
                    } else {
                        for &e in entries {
                            let levels = with(defaults, operand, entry_level(e));
                            out.push(entry_handle(e), f(levels));
                        }
                    }
                }
            }
        }
    }
    out.finish()
}
