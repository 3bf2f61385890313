//! Label levels: the ordered set `[⋆, 0, 1, 2, 3]` from §5.1 of the paper.

use std::fmt;

/// A label level.
///
/// Levels order handle privileges within a label. In send labels, [`Level::Star`]
/// (written `⋆` in the paper) is the lowest, most privileged level and represents
/// declassification privilege for the handle; `3` is the highest, least
/// privileged level. The defaults lie in between: `1` for send labels and `2`
/// for receive labels (see [`Level::DEFAULT_SEND`] and [`Level::DEFAULT_RECV`]).
///
/// The derived [`Ord`] implementation yields exactly the paper's order:
///
/// ```
/// use asbestos_labels::Level;
/// assert!(Level::Star < Level::L0);
/// assert!(Level::L0 < Level::L1);
/// assert!(Level::L1 < Level::L2);
/// assert!(Level::L2 < Level::L3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Level {
    /// `⋆`: declassification privilege with respect to a handle (§5.3).
    Star,
    /// `0`: used for integrity and capabilities (§5.4, §5.5).
    L0,
    /// `1`: the default send level; usually corresponds to absence of taint.
    L1,
    /// `2`: the default receive level; "partial taint" in send labels.
    L2,
    /// `3`: full taint in send labels; the right to be tainted arbitrarily in
    /// receive labels.
    L3,
}

impl Level {
    /// The default level for send labels (`1`, §5.1).
    pub const DEFAULT_SEND: Level = Level::L1;

    /// The default level for receive labels (`2`, §5.1).
    pub const DEFAULT_RECV: Level = Level::L2;

    /// All levels in increasing order.
    pub const ALL: [Level; 5] = [Level::Star, Level::L0, Level::L1, Level::L2, Level::L3];

    /// Encodes the level into the low 3 bits of a packed label entry (§5.6).
    ///
    /// The encoding preserves order so packed entries with equal handles
    /// compare like their levels.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        match self {
            Level::Star => 0,
            Level::L0 => 1,
            Level::L1 => 2,
            Level::L2 => 3,
            Level::L3 => 4,
        }
    }

    /// Decodes a level from the low 3 bits of a packed label entry.
    ///
    /// Returns `None` for the unused encodings 5–7.
    #[inline]
    pub const fn from_bits(bits: u64) -> Option<Level> {
        match bits & 0x7 {
            0 => Some(Level::Star),
            1 => Some(Level::L0),
            2 => Some(Level::L1),
            3 => Some(Level::L2),
            4 => Some(Level::L3),
            _ => None,
        }
    }

    /// The larger of two levels (used by `⊔`).
    #[inline]
    pub fn max(self, other: Level) -> Level {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two levels (used by `⊓`).
    #[inline]
    pub fn min(self, other: Level) -> Level {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The `L⋆` mapping for a single level: `⋆` stays `⋆`, everything else
    /// becomes `3` (§5.3).
    #[inline]
    pub fn star_only(self) -> Level {
        if self == Level::Star {
            Level::Star
        } else {
            Level::L3
        }
    }
}

/// A set of levels: what a chunk or label is *marked* with (§5.6: "each
/// chunk is marked with the minimum and maximum of its vnodes' levels";
/// five levels fit a byte, so the mark here is the exact set and the
/// minimum and maximum are read off it).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LevelSet(u8);

impl LevelSet {
    /// The empty set.
    pub const EMPTY: LevelSet = LevelSet(0);

    /// The set holding just `level`.
    #[inline]
    pub const fn of(level: Level) -> LevelSet {
        LevelSet(1 << level.to_bits())
    }

    /// The set as a byte: bit `level.to_bits()` for each level it holds
    /// (how a chunk stores its marks).
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// The set [`LevelSet::bits`] made, ignoring bits no level encodes.
    #[inline]
    pub const fn from_bits(bits: u8) -> LevelSet {
        LevelSet(bits & 0x1f)
    }

    /// The union of two sets.
    #[inline]
    pub const fn union(self, other: LevelSet) -> LevelSet {
        LevelSet(self.0 | other.0)
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether every level of this set is in `other`.
    #[inline]
    pub const fn is_subset(self, other: LevelSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Whether `level` is in the set.
    #[inline]
    pub const fn contains(self, level: Level) -> bool {
        self.0 & LevelSet::of(level).0 != 0
    }

    /// The smallest level in the set, if any.
    #[inline]
    pub fn min(self) -> Option<Level> {
        Level::ALL.get(self.0.trailing_zeros() as usize).copied()
    }

    /// The largest level in the set, if any.
    #[inline]
    pub fn max(self) -> Option<Level> {
        Level::ALL
            .get(7usize.wrapping_sub(self.0.leading_zeros() as usize))
            .copied()
    }

    /// The set without its smallest level.
    #[inline]
    pub const fn without_min(self) -> LevelSet {
        LevelSet(self.0 & self.0.wrapping_sub(1))
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Level::Star => write!(f, "*"),
            Level::L0 => write!(f, "0"),
            Level::L1 => write!(f, "1"),
            Level::L2 => write!(f, "2"),
            Level::L3 => write!(f, "3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_matches_paper() {
        // §5.1: in send labels, ⋆ is the lowest or most privileged level, and
        // 3 is the highest or least privileged level.
        assert!(Level::Star < Level::L0);
        assert!(Level::L0 < Level::L1);
        assert!(Level::L1 < Level::L2);
        assert!(Level::L2 < Level::L3);
    }

    #[test]
    fn defaults_match_paper() {
        assert_eq!(Level::DEFAULT_SEND, Level::L1);
        assert_eq!(Level::DEFAULT_RECV, Level::L2);
    }

    #[test]
    fn bits_roundtrip() {
        for lv in Level::ALL {
            assert_eq!(Level::from_bits(lv.to_bits()), Some(lv));
        }
        assert_eq!(Level::from_bits(5), None);
        assert_eq!(Level::from_bits(6), None);
        assert_eq!(Level::from_bits(7), None);
    }

    #[test]
    fn bits_preserve_order() {
        for a in Level::ALL {
            for b in Level::ALL {
                assert_eq!(a.to_bits() < b.to_bits(), a < b);
            }
        }
    }

    #[test]
    fn min_max() {
        assert_eq!(Level::Star.max(Level::L3), Level::L3);
        assert_eq!(Level::Star.min(Level::L3), Level::Star);
        assert_eq!(Level::L1.max(Level::L1), Level::L1);
        assert_eq!(Level::L2.min(Level::L0), Level::L0);
    }

    #[test]
    fn star_only_mapping() {
        assert_eq!(Level::Star.star_only(), Level::Star);
        for lv in [Level::L0, Level::L1, Level::L2, Level::L3] {
            assert_eq!(lv.star_only(), Level::L3);
        }
    }

    #[test]
    fn level_sets() {
        assert_eq!(LevelSet::EMPTY.min(), None);
        assert_eq!(LevelSet::EMPTY.max(), None);
        assert!(LevelSet::EMPTY.is_empty());
        for lo in Level::ALL {
            for hi in Level::ALL {
                let set = LevelSet::of(lo).union(LevelSet::of(hi));
                assert!(set.contains(lo) && set.contains(hi));
                assert_eq!(
                    Level::ALL.iter().filter(|&&l| set.contains(l)).count(),
                    1 + usize::from(lo != hi)
                );
                assert_eq!(set.min(), Some(lo.min(hi)));
                assert_eq!(set.max(), Some(lo.max(hi)));
                let rest = set.without_min();
                assert_eq!(rest.is_empty(), lo == hi);
                assert_eq!(rest.max(), (lo != hi).then_some(lo.max(hi)));
            }
        }
    }

    #[test]
    fn display() {
        let shown: Vec<String> = Level::ALL.iter().map(|l| l.to_string()).collect();
        assert_eq!(shown, ["*", "0", "1", "2", "3"]);
    }
}
