//! The vnode table: kernel state for every active handle (§5.6).
//!
//! "In kernel space, each active handle corresponds to a 64-byte data
//! structure called a vnode. For port handles, this structure includes the
//! port label and a reference to the process with receive rights. A hash
//! table maps handle values to vnodes."
//!
//! A kernel has one table, whatever its shard count, and one allocator:
//! one cipher, of which each shard mints from its own lane. Where a handle
//! lives is the lane that minted it ([`HandleAllocator::lane_of`]), a
//! function of its value alone, so no vnode records it.

use std::collections::BTreeMap;

use asbestos_labels::{Handle, HandleAllocator, Label, Level};

use crate::ids::{EpId, ProcessId};

/// Accounted size of a vnode (§5.6).
pub const VNODE_BYTES: usize = 64;

/// Who holds receive rights for a port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortOwner {
    /// An ordinary process, or the base process of an event-process service.
    Process(ProcessId),
    /// A specific event process.
    Ep(EpId),
}

/// Kernel state for a port handle.
#[derive(Clone, Debug)]
pub struct PortState {
    /// The port receive label `p_R` (§5.5).
    pub label: Label,
    /// Who holds receive rights. Dissociating a port turns its vnode
    /// into a compartment.
    pub owner: PortOwner,
}

/// A vnode: what an active handle currently names.
#[derive(Clone, Debug)]
pub enum VnodeKind {
    /// A pure compartment: participates in labels only.
    Compartment,
    /// A communication port (which is also usable as a compartment — the
    /// shared namespace is what §5.5 builds capabilities from).
    Port(PortState),
}

/// The handle → vnode map plus the kernel's allocator: one cipher, one
/// lane per shard.
pub struct HandleTable {
    vnodes: BTreeMap<Handle, VnodeKind>,
    /// Shard `i` mints from lane `first + i` of the allocator's run.
    alloc: HandleAllocator,
}

impl HandleTable {
    /// Creates a one-shard table whose allocator is keyed from `seed`.
    pub fn new(seed: u64) -> HandleTable {
        HandleTable::with_partition(seed, 0, 1, 1)
    }

    /// Creates the table of `shards` shards, shard `i` owning lane
    /// `first + i` of a `lanes`-way partitioned allocator: all lanes share
    /// the seed-keyed cipher (one handle namespace) but draw disjoint
    /// counters, so no two shards — nor, across a federation, two
    /// kernels — ever mint colliding handles.
    pub fn with_partition(seed: u64, first: u64, shards: usize, lanes: u64) -> HandleTable {
        HandleTable {
            vnodes: BTreeMap::new(),
            alloc: HandleAllocator::with_partition(seed, first, shards, lanes),
        }
    }

    /// The allocator, whose lanes say where every handle value lives
    /// ([`HandleAllocator::lane_of`]).
    pub fn allocator(&self) -> &HandleAllocator {
        &self.alloc
    }

    /// Allocates a fresh compartment handle on `shard` (the `new_handle`
    /// syscall's kernel half; the caller is responsible for setting
    /// `P_S(h) = ⋆`).
    pub fn new_handle(&mut self, shard: u16) -> Handle {
        let h = self.alloc.alloc(shard as usize);
        self.vnodes.insert(h, VnodeKind::Compartment);
        h
    }

    /// Allocates a fresh port handle on `shard` with the Figure 4
    /// `new_port` semantics: the port label is the caller's `label` with
    /// `p_R(p) ← 0` applied.
    pub fn new_port(&mut self, mut label: Label, owner: PortOwner, shard: u16) -> Handle {
        let h = self.alloc.alloc(shard as usize);
        label.set(h, Level::L0);
        self.vnodes
            .insert(h, VnodeKind::Port(PortState { label, owner }));
        h
    }

    /// Looks up a vnode.
    pub fn get(&self, h: Handle) -> Option<&VnodeKind> {
        self.vnodes.get(&h)
    }

    /// Port state for `h`, if `h` names a port.
    pub fn port(&self, h: Handle) -> Option<&PortState> {
        match self.vnodes.get(&h) {
            Some(VnodeKind::Port(p)) => Some(p),
            _ => None,
        }
    }

    /// Mutable port state for `h`, if `h` names a port.
    pub fn port_mut(&mut self, h: Handle) -> Option<&mut PortState> {
        match self.vnodes.get_mut(&h) {
            Some(VnodeKind::Port(p)) => Some(p),
            _ => None,
        }
    }

    /// Turns a port back into a plain compartment (receive rights dropped;
    /// the handle value stays valid in labels).
    pub fn dissociate(&mut self, h: Handle) {
        if let Some(v) = self.vnodes.get_mut(&h) {
            *v = VnodeKind::Compartment;
        }
    }

    /// Accounted kernel bytes: vnode structures plus port label storage.
    pub fn kernel_bytes(&self) -> usize {
        let mut bytes = self.vnodes.len() * VNODE_BYTES;
        for v in self.vnodes.values() {
            if let VnodeKind::Port(p) = v {
                bytes += p.label.heap_bytes();
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_port_sets_own_entry_to_zero() {
        let mut t = HandleTable::new(1);
        let owner = PortOwner::Process(ProcessId(0));
        let p = t.new_port(Label::top(), owner, 0);
        let state = t.port(p).unwrap();
        assert_eq!(state.label.get(p), Level::L0);
        assert_eq!(state.label.default_level(), Level::L3);
        assert_eq!(state.owner, owner);
    }

    #[test]
    fn compartments_are_not_ports() {
        let mut t = HandleTable::new(1);
        let h = t.new_handle(0);
        assert!(t.get(h).is_some());
        assert!(t.port(h).is_none());
    }

    #[test]
    fn dissociate_keeps_handle() {
        let mut t = HandleTable::new(1);
        let p = t.new_port(Label::top(), PortOwner::Process(ProcessId(0)), 0);
        t.dissociate(p);
        assert!(t.port(p).is_none());
        assert!(t.get(p).is_some(), "handle still valid as a compartment");
    }

    #[test]
    fn handles_are_unique_and_unpredictable() {
        let mut t = HandleTable::new(7);
        let a = t.new_handle(0);
        let b = t.new_handle(0);
        assert_ne!(a, b);
        assert_ne!(b.raw(), a.raw() + 1, "handles must not be sequential");
    }

    #[test]
    fn kernel_bytes_counts_vnodes_and_port_labels() {
        let mut t = HandleTable::new(1);
        t.new_handle(0);
        assert_eq!(t.kernel_bytes(), VNODE_BYTES);
        t.new_port(Label::top(), PortOwner::Process(ProcessId(0)), 0);
        // Port adds a vnode plus its label storage (≥ 300 bytes).
        assert!(t.kernel_bytes() >= 2 * VNODE_BYTES + 300);
    }
}
