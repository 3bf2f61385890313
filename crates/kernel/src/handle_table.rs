//! The vnode table: kernel state for every active handle (§5.6).
//!
//! "In kernel space, each active handle corresponds to a 64-byte data
//! structure called a vnode. For port handles, this structure includes the
//! port label and a reference to the process with receive rights. A hash
//! table maps handle values to vnodes."

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
    /// Receive rights; `None` once dissociated (messages are then dropped).
    pub owner: Option<PortOwner>,
}

/// What a handle currently names.
#[derive(Clone, Debug)]
pub enum VnodeKind {
    /// A pure compartment: participates in labels only.
    Compartment,
    /// A communication port (which is also usable as a compartment — the
    /// shared namespace is what §5.5 builds capabilities from).
    Port(PortState),
}

/// A vnode: kernel bookkeeping for one active handle.
#[derive(Clone, Debug)]
pub struct Vnode {
    /// Current role of the handle.
    pub kind: VnodeKind,
}

/// The handle → vnode map plus the encrypted-counter allocator.
pub struct HandleTable {
    vnodes: BTreeMap<Handle, Vnode>,
    allocator: HandleAllocator,
}

impl HandleTable {
    /// Creates a table whose allocator is keyed from `seed`.
    pub fn new(seed: u64) -> HandleTable {
        HandleTable::with_partition(seed, 0, 1)
    }

    /// Creates a table owning one lane of a partitioned allocator: all
    /// lanes share the seed-keyed cipher (one handle namespace) but draw
    /// disjoint counters, so kernel shards never mint colliding handles.
    pub fn with_partition(seed: u64, lane: u64, lanes: u64) -> HandleTable {
        HandleTable {
            vnodes: BTreeMap::new(),
            allocator: HandleAllocator::with_partition(seed, lane, lanes),
        }
    }

    /// Allocates a fresh compartment handle (the `new_handle` syscall's
    /// kernel half; the caller is responsible for setting `P_S(h) = ⋆`).
    pub fn new_handle(&mut self) -> Handle {
        let h = self.allocator.alloc();
        self.vnodes.insert(
            h,
            Vnode {
                kind: VnodeKind::Compartment,
            },
        );
        h
    }

    /// Allocates a fresh port handle with the Figure 4 `new_port` semantics:
    /// the port label is the caller's `label` with `p_R(p) ← 0` applied.
    pub fn new_port(&mut self, mut label: Label, owner: PortOwner) -> Handle {
        let h = self.allocator.alloc();
        label.set(h, Level::L0);
        self.vnodes.insert(
            h,
            Vnode {
                kind: VnodeKind::Port(PortState {
                    label,
                    owner: Some(owner),
                }),
            },
        );
        h
    }

    /// Looks up a vnode.
    pub fn get(&self, h: Handle) -> Option<&Vnode> {
        self.vnodes.get(&h)
    }

    /// Port state for `h`, if `h` names a port.
    pub fn port(&self, h: Handle) -> Option<&PortState> {
        match self.vnodes.get(&h) {
            Some(Vnode {
                kind: VnodeKind::Port(p),
            }) => Some(p),
            _ => None,
        }
    }

    /// Mutable port state for `h`, if `h` names a port.
    pub fn port_mut(&mut self, h: Handle) -> Option<&mut PortState> {
        match self.vnodes.get_mut(&h) {
            Some(Vnode {
                kind: VnodeKind::Port(p),
            }) => Some(p),
            _ => None,
        }
    }

    /// Turns a port back into a plain compartment (receive rights dropped;
    /// the handle value stays valid in labels).
    pub fn dissociate(&mut self, h: Handle) {
        if let Some(v) = self.vnodes.get_mut(&h) {
            v.kind = VnodeKind::Compartment;
        }
    }

    /// Number of active handles.
    pub fn len(&self) -> usize {
        self.vnodes.len()
    }

    /// Whether any handles exist.
    pub fn is_empty(&self) -> bool {
        self.vnodes.is_empty()
    }

    /// Total handles ever allocated (god-mode, for accounting).
    pub fn allocated(&self) -> u64 {
        self.allocator.allocated()
    }

    /// Accounted kernel bytes: vnode structures plus port label storage.
    pub fn kernel_bytes(&self) -> usize {
        let mut bytes = self.vnodes.len() * VNODE_BYTES;
        for v in self.vnodes.values() {
            if let VnodeKind::Port(p) = &v.kind {
                bytes += p.label.heap_bytes();
            }
        }
        bytes
    }

    /// Iterates all ports owned by the given owner (used on exit paths).
    pub fn ports_owned_by(&self, owner: PortOwner) -> Vec<Handle> {
        self.vnodes
            .iter()
            .filter_map(|(&h, v)| match &v.kind {
                VnodeKind::Port(p) if p.owner == Some(owner) => Some(h),
                _ => None,
            })
            .collect()
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
        assert_eq!(state.owner, Some(owner));
    }

    #[test]
    fn compartments_are_not_ports() {
        let mut t = HandleTable::new(1);
        let h = t.new_handle();
        assert!(t.get(h).is_some());
        assert!(t.port(h).is_none());
    }

    #[test]
    fn dissociate_keeps_handle() {
        let mut t = HandleTable::new(1);
        let p = t.new_port(Label::top(), PortOwner::Process(ProcessId(0)));
        t.dissociate(p);
        assert!(t.port(p).is_none());
        assert!(t.get(p).is_some(), "handle still valid as a compartment");
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
        t.new_port(Label::top(), PortOwner::Process(ProcessId(0)));
        // Port adds a vnode plus its label storage (≥ 300 bytes).
        assert!(t.kernel_bytes() >= 2 * VNODE_BYTES + 300);
    }

    #[test]
    fn ports_owned_by_filters() {
        let mut t = HandleTable::new(1);
        let o1 = PortOwner::Process(ProcessId(0));
        let o2 = PortOwner::Ep(EpId(9));
        let p1 = t.new_port(Label::top(), o1);
        let p2 = t.new_port(Label::top(), o2);
        let p3 = t.new_port(Label::top(), o1);
        let mut mine = t.ports_owned_by(o1);
        mine.sort();
        let mut expect = vec![p1, p3];
        expect.sort();
        assert_eq!(mine, expect);
        assert_eq!(t.ports_owned_by(o2), vec![p2]);
    }
}
