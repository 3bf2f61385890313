//! Event processes: lightweight isolated contexts within a process (§6).

use std::sync::Arc;

use asbestos_labels::{Handle, Label};

use crate::ids::ProcessId;
use crate::memory::PageMap;

/// Accounted size of the event-process kernel structure (§6: "a send label,
/// a receive label, receive rights for ports, and a set of private memory
/// pages, plus some bookkeeping information, altogether occupying 44 bytes
/// of Asbestos kernel memory").
pub const EP_STRUCT_BYTES: usize = 44;

/// Kernel state for one event process.
///
/// An event process abstracts "a subset of process state belonging to a
/// single user" (§6.1): its own labels, its own receive rights, and a
/// copy-on-write delta over the base process's memory. Everything else —
/// code, base memory, scheduling — is shared with the base process, which
/// is why thousands of event processes cost little more than one process.
pub struct EventProcess {
    /// The owning base process.
    pub process: ProcessId,
    /// This event process's send label (starts sharing the base's storage;
    /// `Arc`-copy-on-write thereafter).
    pub send_label: Arc<Label>,
    /// This event process's receive label (starts sharing the base's).
    pub recv_label: Arc<Label>,
    /// Ports this event process holds receive rights for.
    pub ports: Vec<Handle>,
    /// Private modified pages (copy-on-write delta over the base).
    pub delta: PageMap,
    /// Whether the event process is alive (false after `ep_exit`).
    pub alive: bool,
}

impl EventProcess {
    /// Creates a fresh event process with labels copied from the base.
    ///
    /// §6.1: "The event process starts with send and receive labels copied
    /// from the base process's labels, no receive rights, and no private
    /// memory pages."
    pub fn new(process: ProcessId, send_label: Arc<Label>, recv_label: Arc<Label>) -> EventProcess {
        EventProcess {
            process,
            send_label,
            recv_label,
            ports: Vec::new(),
            delta: PageMap::default(),
            alive: true,
        }
    }

    /// Accounted kernel bytes: the 44-byte structure plus label storage.
    ///
    /// Labels are counted separately from the fixed structure because the
    /// paper does the same (Figure 6 attributes label memory to the kernel
    /// overhead that makes sessions cost ~1.5 pages rather than 1).
    pub fn kernel_bytes(&self) -> usize {
        EP_STRUCT_BYTES + self.send_label.heap_bytes() + self.recv_label.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ep_matches_paper() {
        let ep = EventProcess::new(
            ProcessId(3),
            Arc::new(Label::default_send()),
            Arc::new(Label::default_recv()),
        );
        assert!(ep.ports.is_empty(), "no receive rights");
        assert!(ep.delta.is_empty(), "no private pages");
        assert!(ep.alive);
    }

    #[test]
    fn kernel_bytes_is_struct_plus_labels() {
        let ep = EventProcess::new(
            ProcessId(0),
            Arc::new(Label::default_send()),
            Arc::new(Label::default_recv()),
        );
        // Compute the expected label bytes from the labels themselves:
        // this test pins the *sum structure* (struct + both labels), not
        // the labels' internal representation, which is free to change.
        let label_bytes = ep.send_label.heap_bytes() + ep.recv_label.heap_bytes();
        assert!(label_bytes > 0, "default labels occupy heap");
        assert_eq!(ep.kernel_bytes(), EP_STRUCT_BYTES + label_bytes);
    }
}
