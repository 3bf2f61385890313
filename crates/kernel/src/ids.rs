//! Process and event-process identifiers.
//!
//! Since the kernel was sharded, both id types pack the owning shard into
//! their high bits: an id is meaningful across the whole kernel, but the
//! state it names lives in exactly one [`crate::shard::KernelShard`]'s
//! tables. On a single-shard kernel (the paper-figure configuration) the
//! shard bits are zero and the raw values are identical to the
//! pre-sharding engine's.

use std::fmt;

/// Bits reserved for the shard number in packed ids.
const SHARD_BITS: u32 = 8;
/// Bits left for the per-shard table index: ids are 64-bit, so sharding
/// costs no meaningful index space (2^56 processes or event processes
/// per shard — a `Vec` would exhaust memory first).
const INDEX_BITS: u32 = 64 - SHARD_BITS;
/// Mask selecting the table index.
const INDEX_MASK: u64 = (1 << INDEX_BITS) - 1;

/// Maximum number of kernel shards (the shard must fit in `SHARD_BITS`).
pub const MAX_SHARDS: usize = 1 << SHARD_BITS;

#[inline]
fn pack(shard: u16, index: usize) -> u64 {
    assert!((shard as usize) < MAX_SHARDS, "shard out of range");
    assert!(index as u64 <= INDEX_MASK, "per-shard id space exhausted");
    ((shard as u64) << INDEX_BITS) | index as u64
}

/// Identifies a process within a [`crate::Kernel`].
///
/// Process ids are simulator-internal bookkeeping (a shard number plus an
/// index into that shard's tables); they are never visible to simulated
/// programs, which name each other only through ports (§4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub(crate) u64);

impl ProcessId {
    /// Packs a shard number and a table index into an id.
    pub(crate) fn new(shard: u16, index: usize) -> ProcessId {
        ProcessId(pack(shard, index))
    }

    /// The index of this process in its shard's tables.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }

    /// The shard this process lives on.
    #[inline]
    pub fn shard(self) -> usize {
        (self.0 >> INDEX_BITS) as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shard() == 0 {
            write!(f, "pid{}", self.index())
        } else {
            write!(f, "pid{}:{}", self.shard(), self.index())
        }
    }
}

/// Identifies an event process within a [`crate::Kernel`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EpId(pub(crate) u64);

impl EpId {
    /// Packs a shard number and a table index into an id.
    pub(crate) fn new(shard: u16, index: usize) -> EpId {
        EpId(pack(shard, index))
    }

    /// The index of this event process in its shard's tables.
    #[inline]
    pub fn index(self) -> usize {
        (self.0 & INDEX_MASK) as usize
    }

    /// The shard this event process lives on.
    #[inline]
    pub fn shard(self) -> usize {
        (self.0 >> INDEX_BITS) as usize
    }
}

impl fmt::Display for EpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.shard() == 0 {
            write!(f, "ep{}", self.index())
        } else {
            write!(f, "ep{}:{}", self.shard(), self.index())
        }
    }
}

/// An execution context: a process, possibly narrowed to one of its event
/// processes. Labels and receive rights resolve against the event process
/// when one is active (§6.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExecCtx {
    /// The process being executed.
    pub pid: ProcessId,
    /// The active event process, if the process has entered the event realm.
    pub ep: Option<EpId>,
}

impl fmt::Display for ExecCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.ep {
            Some(ep) => write!(f, "{}/{}", self.pid, ep),
            None => write!(f, "{}", self.pid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_zero_ids_match_pre_sharding_values() {
        // The paper-figure configuration (one shard) must produce the same
        // raw id values as the pre-sharding engine: a bare index.
        assert_eq!(ProcessId::new(0, 7).0, 7);
        assert_eq!(EpId::new(0, 123).0, 123);
    }

    #[test]
    fn pack_roundtrip() {
        let pid = ProcessId::new(3, 41);
        assert_eq!(pid.shard(), 3);
        assert_eq!(pid.index(), 41);
        let eid = EpId::new(255, 9);
        assert_eq!(eid.shard(), 255);
        assert_eq!(eid.index(), 9);
    }

    #[test]
    fn display_hides_shard_zero() {
        assert_eq!(ProcessId::new(0, 2).to_string(), "pid2");
        assert_eq!(ProcessId::new(1, 2).to_string(), "pid1:2");
        assert_eq!(EpId::new(0, 5).to_string(), "ep5");
        assert_eq!(EpId::new(2, 5).to_string(), "ep2:5");
    }
}
