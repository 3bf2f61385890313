//! The port table: kernel state for every live port (§5.6).
//!
//! "In kernel space, each active handle corresponds to a 64-byte data
//! structure called a vnode. For port handles, this structure includes the
//! port label and a reference to the process with receive rights. A hash
//! table maps handle values to vnodes."
//!
//! Only a port's vnode holds anything, so only ports are stored. A
//! compartment is a value with no kernel state: minting one draws a
//! counter and stores nothing, and dissociating a port removes its entry,
//! leaving the handle valid in labels. Accounting still charges a vnode
//! for every handle ever minted ([`HandleTable::kernel_bytes`]).
//!
//! A kernel has one table and one allocator, which mints from the
//! kernel's own lane of the cipher. Which kernel a handle lives on is the
//! lane that minted it ([`HandleAllocator::lane_of`]), a function of its
//! value alone, so no entry records it.

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
    /// Who holds receive rights. Dissociating a port removes its state.
    pub owner: PortOwner,
}

/// The handle → port state map of live ports plus the kernel's
/// allocator.
pub struct HandleTable {
    ports: BTreeMap<Handle, PortState>,
    alloc: HandleAllocator,
}

impl HandleTable {
    /// Creates a table whose allocator owns the whole counter, keyed
    /// from `seed`.
    pub fn new(seed: u64) -> HandleTable {
        HandleTable::with_partition(seed, 0, 1)
    }

    /// Creates a table minting from lane `lane` of a `lanes`-way
    /// partitioned allocator: all lanes share the seed-keyed cipher (one
    /// handle namespace) but draw disjoint counters, so no two kernels of
    /// a federation ever mint colliding handles.
    pub fn with_partition(seed: u64, lane: u64, lanes: u64) -> HandleTable {
        HandleTable {
            ports: BTreeMap::new(),
            alloc: HandleAllocator::with_partition(seed, lane, lanes),
        }
    }

    /// The allocator, whose lanes say where every handle value lives
    /// ([`HandleAllocator::lane_of`]).
    pub fn allocator(&self) -> &HandleAllocator {
        &self.alloc
    }

    /// Mints a fresh compartment handle (the `new_handle` syscall's
    /// kernel half; the caller is responsible for setting `P_S(h) = ⋆`).
    /// A compartment has no kernel state: nothing is stored.
    pub fn new_handle(&mut self) -> Handle {
        self.alloc.alloc()
    }

    /// Allocates a fresh port handle with the Figure 4 `new_port`
    /// semantics: the port label is the caller's `label` with
    /// `p_R(p) ← 0` applied.
    pub fn new_port(&mut self, mut label: Label, owner: PortOwner) -> Handle {
        let h = self.alloc.alloc();
        label.set(h, Level::L0);
        self.ports.insert(h, PortState { label, owner });
        h
    }

    /// Port state for `h`, if `h` names a live port.
    pub fn port(&self, h: Handle) -> Option<&PortState> {
        self.ports.get(&h)
    }

    /// Mutable port state for `h`, if `h` names a live port.
    pub fn port_mut(&mut self, h: Handle) -> Option<&mut PortState> {
        self.ports.get_mut(&h)
    }

    /// Drops receive rights on `h` and removes its state; the handle value
    /// stays valid in labels as a compartment.
    pub fn dissociate(&mut self, h: Handle) {
        self.ports.remove(&h);
    }

    /// The number of live ports. God-mode observability for tests; no
    /// syscall reaches it.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether no port is live.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// Accounted kernel bytes: a vnode for every handle minted, plus the
    /// live ports' label storage.
    pub fn kernel_bytes(&self) -> usize {
        let labels: usize = self.ports.values().map(|p| p.label.heap_bytes()).sum();
        self.alloc.allocated() as usize * VNODE_BYTES + labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_port_sets_own_entry_to_zero() {
        let mut t = HandleTable::new(1);
        let owner = PortOwner::Process(ProcessId(0));
        let p = t.new_port(Label::top(), owner);
        let state = t.port(p).unwrap();
        assert_eq!(state.label.get(p), Level::L0);
        assert_eq!(state.label.default_level(), Level::L3);
        assert_eq!(state.owner, owner);
    }

    #[test]
    fn compartments_are_not_ports() {
        let mut t = HandleTable::new(1);
        let h = t.new_handle();
        assert!(t.port(h).is_none());
        assert!(t.is_empty(), "a compartment stores nothing");
    }

    #[test]
    fn dissociate_keeps_handle() {
        let mut t = HandleTable::new(1);
        let p = t.new_port(Label::top(), PortOwner::Process(ProcessId(0)));
        assert_eq!(t.len(), 1);
        t.dissociate(p);
        assert!(t.port(p).is_none());
        assert!(t.is_empty(), "dissociate removes the port's state");
        // The value stays minted: the allocator never issues it again.
        assert_eq!(t.allocator().allocated(), 1);
        assert_ne!(t.new_handle(), p);
    }

    #[test]
    fn handles_are_unique_and_unpredictable() {
        let mut t = HandleTable::new(7);
        let a = t.new_handle();
        let b = t.new_handle();
        assert_ne!(a, b);
        assert_ne!(b.raw(), a.raw() + 1, "handles must not be sequential");
    }

    #[test]
    fn kernel_bytes_counts_vnodes_and_port_labels() {
        let mut t = HandleTable::new(1);
        t.new_handle();
        assert_eq!(t.kernel_bytes(), VNODE_BYTES);
        let p = t.new_port(Label::top(), PortOwner::Process(ProcessId(0)));
        // Port adds a vnode plus its label storage (≥ 300 bytes).
        assert!(t.kernel_bytes() >= 2 * VNODE_BYTES + 300);
        // A dissociated port's vnode is still charged; its label is not.
        t.dissociate(p);
        assert_eq!(t.kernel_bytes(), 2 * VNODE_BYTES);
    }
}
