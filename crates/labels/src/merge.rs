//! Label evaluation: every label operation as a few exact points over
//! chunk masks (§5.6).
//!
//! "Chunks are reference counted and updated copy-on-write, and multiple
//! labels can share chunks; each chunk is marked with the minimum and
//! maximum of its vnodes' levels." The evaluation below is built around
//! what those marks buy on the labels OKWS makes: of the operands of any
//! Figure 4 operation at most two are *large* (more than one chunk), and a
//! large one takes only one or two levels — hundreds of `⋆` privileges, or
//! hundreds of accepted taints at 3.
//!
//! * A **small** operand (at most one chunk) is a handful of **points**:
//!   each of its handles is evaluated exactly, with every operand's real
//!   level there.
//! * Each **large** operand gets one **mask** per call: the levels at which
//!   the operation is already decided, whatever the others hold at that
//!   handle — any level of its label for another large operand, its
//!   default for a small one (a small operand's entries are points). That
//!   is at most five [`every_combo`] calls per large operand. A chunk whose
//!   marks fit inside the mask costs one set test; an entry outside it is
//!   one more point.
//!
//! A large operand all of whose non-default levels are in its mask has no
//! points at all, so it is skipped whole: not even its chunks' marks are
//! read, and it is met only by the lookups of the other operands' points.
//!
//! Everywhere else every operand is at its default. So [`all`] (predicates:
//! `⊑` and the Figure 4 checks) checks the defaults and then the points,
//! and [`build`] (results: `⊔`, `⊓`, `L⋆`, contamination) starts from one
//! operand's chunk array — the *base* — and edits the points' exact levels
//! into it: every chunk no edit lands in is shared, and a result no point
//! changes *is* the base. Both walk the points in one ascending pass with a
//! forward cursor per operand. Host cost is O(chunks + points + entries of
//! the chunks outside a mask); the *charged* cost is not computed here at
//! all (see [`crate::ops::op_work`]).

use std::borrow::Cow;
use std::cell::Cell;

use crate::chunk::{entry_handle, entry_level, Chunk};
use crate::label::{Label, LabelBuilder};
use crate::level::{Level, LevelSet};

thread_local! {
    /// Entries this thread's evaluations examined one at a time (monotonic).
    static ENTRIES_VISITED: Cell<u64> = const { Cell::new(0) };
}

/// Total entries evaluations on the current thread examined individually:
/// every point, plus every entry of a chunk outside its operand's mask. A
/// test observability hook like [`Label::clone_count`]: the asymptotics
/// are pinned by diffing it, not by timing.
pub(crate) fn entries_visited() -> u64 {
    ENTRIES_VISITED.with(Cell::get)
}

#[inline]
fn visit(n: usize) {
    ENTRIES_VISITED.with(|c| c.set(c.get() + n as u64));
}

/// Sentinel "next handle" of an operand with no points left; real handles
/// are 61-bit.
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

/// One operand of an evaluation: where its next point is, and how far its
/// level lookups have got.
struct Operand<'a> {
    default: Level,
    /// The levels at which this operand's entries are decided unseen;
    /// empty for a small operand, all of whose entries are points.
    mask: LevelSet,
    /// The rest of the chunk being scanned, from the next point on.
    scan: &'a [u64],
    /// Handle of the next point ([`END`] if none).
    next: u64,
    /// The chunks after that one.
    unscanned: &'a [Chunk],
    /// The chunks from the one level lookups resume in.
    seek: &'a [Chunk],
    /// Entries of `seek[0]` already passed.
    passed: usize,
}

impl<'a> Operand<'a> {
    /// An operand not yet scanned for points, with an empty mask.
    fn new(label: &'a Label) -> Operand<'a> {
        Operand {
            default: label.default_level(),
            mask: LevelSet::EMPTY,
            scan: &[],
            next: END,
            unscanned: label.chunks(),
            seek: label.chunks(),
            passed: 0,
        }
    }

    /// Advances `scan` to the next entry outside the mask, passing over
    /// whole chunks whose marks fit inside it.
    #[inline]
    fn find_point(&mut self) {
        let mask = self.mask;
        loop {
            if let Some(i) = self
                .scan
                .iter()
                .position(|&e| !mask.contains(entry_level(e)))
            {
                self.scan = &self.scan[i..];
                self.next = entry_handle(self.scan[0]);
                return;
            }
            self.scan = &[];
            let Some((chunk, later)) = self.unscanned.split_first() else {
                self.next = END;
                return;
            };
            self.unscanned = later;
            if !chunk.levels().is_subset(mask) {
                visit(chunk.len());
                self.scan = chunk.entries();
            }
        }
    }

    /// The level of the point `scan` is at, moving past it.
    #[inline]
    fn step(&mut self) -> Level {
        let level = entry_level(self.scan[0]);
        self.scan = &self.scan[1..];
        match self.scan.first() {
            Some(&e) if self.mask.is_empty() => self.next = entry_handle(e),
            _ => self.find_point(),
        }
        level
    }

    /// Looks `handle` up from where the last lookup ended.
    fn level_at(&mut self, handle: u64) -> Level {
        while let Some(chunk) = self.seek.first() {
            if chunk.last_handle() >= handle {
                let entries = &chunk.entries()[self.passed..];
                let i = entries.partition_point(|&e| entry_handle(e) < handle);
                self.passed += i;
                return if entry_handle(entries[i]) == handle {
                    entry_level(entries[i])
                } else {
                    self.default
                };
            }
            self.seek = &self.seek[1..];
            self.passed = 0;
        }
        self.default
    }
}

/// The handles an evaluation must look at one by one, ascending, each with
/// every operand's level there. At every other handle `decided` holds of
/// the operands' levels, provided it holds of their defaults.
///
/// Callers first try the whole handle space at once — `decided` of every
/// combination of the labels' levels, §5.6's "L₂'s maximum level is no
/// larger than L₁'s minimum" fast path for any operation — which needs no
/// points at all.
struct Points<'a, const N: usize> {
    operands: [Operand<'a>; N],
    defaults: [Level; N],
}

impl<'a, const N: usize> Points<'a, N> {
    fn new(labels: [&'a Label; N], decided: impl Fn([Level; N]) -> bool) -> Points<'a, N> {
        let spans = labels.map(Label::levels);
        let large = labels.map(|l| l.chunks().len() > 1);
        // What an operand can hold at a handle none of the points name.
        let unseen: [LevelSet; N] = std::array::from_fn(|i| {
            if large[i] {
                spans[i]
            } else {
                LevelSet::of(labels[i].default_level())
            }
        });
        // Built first and scanned in place: scanning inside the `map` costs
        // more than all the scanning does.
        let mut points = Points {
            defaults: labels.map(Label::default_level),
            operands: labels.map(Operand::new),
        };
        for (i, operand) in points.operands.iter_mut().enumerate() {
            if large[i] {
                // No entry is at the default, so its level needs no test.
                let mut levels = spans[i];
                while let Some(level) = levels.min() {
                    let mut sets = unseen;
                    sets[i] = LevelSet::of(level);
                    if level != operand.default && every_combo(sets, &decided) {
                        operand.mask = operand.mask.union(sets[i]);
                    }
                    levels = levels.without_min();
                }
                // Every level it holds off its default is decided: none of
                // its entries is a point, so its chunks' marks go unread.
                if spans[i].is_subset(operand.mask.union(LevelSet::of(operand.default))) {
                    operand.unscanned = &[];
                }
            }
            operand.find_point();
        }
        points
    }
}

impl<const N: usize> Iterator for Points<'_, N> {
    type Item = (u64, [Level; N]);

    fn next(&mut self) -> Option<(u64, [Level; N])> {
        let handle = self.operands.iter().fold(END, |h, o| h.min(o.next));
        if handle == END {
            return None;
        }
        visit(1);
        let mut levels = self.defaults;
        for (level, operand) in levels.iter_mut().zip(&mut self.operands) {
            if operand.next == handle {
                *level = operand.step();
            } else if !operand.mask.is_empty() {
                // An entry here, if any, is inside the mask.
                *level = operand.level_at(handle);
            }
            // Otherwise every entry is a point, and none is here.
        }
        Some((handle, levels))
    }
}

/// Whether `ok` holds at every handle — the infinitely many at the
/// defaults included.
pub(crate) fn all<const N: usize>(labels: [&Label; N], ok: impl Fn([Level; N]) -> bool) -> bool {
    every_combo(labels.map(Label::levels), &ok)
        || ok(labels.map(Label::default_level))
            && Points::new(labels, &ok).all(|(_, levels)| ok(levels))
}

/// The label mapping every handle `h` to `f(labels[0](h), …)`.
///
/// It is built from a base: `labels[hint]`, unless that operand's default
/// is not the result's, then the first operand whose default is, else an
/// empty label at the result's default. The points' levels are edited into
/// the base's chunk array, sharing every chunk no edit lands in; when no
/// point changes the base, the result is the base itself.
pub(crate) fn build<'a, const N: usize>(
    labels: [&'a Label; N],
    hint: usize,
    f: impl Fn([Level; N]) -> Level,
) -> Cow<'a, Label> {
    let default = f(labels.map(Label::default_level));
    let base = if labels[hint].default_level() == default {
        Some(hint)
    } else {
        (0..N).find(|&i| labels[i].default_level() == default)
    };
    let kept = |levels: [Level; N]| base.map_or(default, |b| levels[b]);
    let decided = |levels: [Level; N]| f(levels) == kept(levels);
    let chunks = base.map_or(&[][..], |b| labels[b].chunks());
    let mut edits: Option<Editor> = None;
    if !every_combo(labels.map(Label::levels), decided) {
        for (handle, levels) in Points::new(labels, decided) {
            let level = f(levels);
            if level != kept(levels) {
                edits
                    .get_or_insert_with(|| Editor::new(chunks, default))
                    .set(handle, level);
            }
        }
    }
    match (edits, base) {
        (Some(edits), _) => Cow::Owned(edits.finish()),
        (None, Some(b)) => Cow::Borrowed(labels[b]),
        (None, None) => Cow::Owned(Label::new(default)),
    }
}

/// A base chunk array with ascending edits merged in.
///
/// The result allocates only the chunks the edits create, each at its
/// exact size, and its chunk array, sized for the base's chunks and one
/// more. The base's untouched chunks are shared, and the entries copied
/// from a chunk an edit lands in are copied as whole runs.
struct Editor<'a> {
    /// The base's chunks from the one copying resumes in.
    chunks: &'a [Chunk],
    /// Entries of `chunks[0]` already in `out`.
    copied: usize,
    out: LabelBuilder,
}

impl<'a> Editor<'a> {
    fn new(chunks: &'a [Chunk], default: Level) -> Editor<'a> {
        Editor {
            chunks,
            copied: 0,
            out: LabelBuilder::with_chunks(default, chunks.len() + 1),
        }
    }

    /// Copies the base's entries below `handle`, each untouched chunk by
    /// reference.
    fn copy_below(&mut self, handle: u64) {
        while let Some(chunk) = self.chunks.first() {
            let rest = &chunk.entries()[self.copied..];
            if chunk.last_handle() >= handle {
                let n = rest.partition_point(|&e| entry_handle(e) < handle);
                self.out.extend(&rest[..n]);
                self.copied += n;
                return;
            }
            if self.copied == 0 {
                self.out.push_chunk(chunk);
            } else {
                self.out.extend(rest);
            }
            self.chunks = &self.chunks[1..];
            self.copied = 0;
        }
    }

    /// Gives `handle` the result's `level`, replacing the base's entry.
    fn set(&mut self, handle: u64, level: Level) {
        self.copy_below(handle);
        if let Some(chunk) = self.chunks.first() {
            if entry_handle(chunk.entries()[self.copied]) == handle {
                self.copied += 1;
            }
        }
        self.out.push(handle, level);
    }

    fn finish(mut self) -> Label {
        self.copy_below(END);
        self.out.finish()
    }
}
