//! Process and event-process identifiers.
//!
//! An id is an index into the kernel's process or event-process table.
//! A kernel has one process table and one event-process table, so an id
//! needs nothing else to name the state it refers to.

use std::fmt;

/// Identifies a process within a [`crate::Kernel`].
///
/// Process ids are simulator-internal bookkeeping (an index into the
/// kernel's process table); they are never visible to simulated programs,
/// which name each other only through ports (§4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ProcessId(pub(crate) u64);

impl ProcessId {
    /// The id of the process at `index` in the process table.
    pub(crate) fn new(index: usize) -> ProcessId {
        ProcessId(index as u64)
    }

    /// The index of this process in the kernel's process table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Identifies an event process within a [`crate::Kernel`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EpId(pub(crate) u64);

impl EpId {
    /// The id of the event process at `index` in the event-process table.
    pub(crate) fn new(index: usize) -> EpId {
        EpId(index as u64)
    }

    /// The index of this event process in the kernel's event-process
    /// table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
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
        // A raw id is its table index, the value the sharded kernel gave
        // ids on its shard 0.
        assert_eq!(ProcessId::new(7).0, 7);
        assert_eq!(EpId::new(123).0, 123);
        assert_eq!(ProcessId::new(41).index(), 41);
    }

    #[test]
    fn display_hides_shard_zero() {
        assert_eq!(ProcessId::new(2).to_string(), "pid2");
        assert_eq!(EpId::new(5).to_string(), "ep5");
        let ctx = ExecCtx {
            pid: ProcessId::new(2),
            ep: Some(EpId::new(5)),
        };
        assert_eq!(ctx.to_string(), "pid2/ep5");
    }
}
