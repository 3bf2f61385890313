//! Processes and the service traits user code implements.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use asbestos_labels::Label;

use crate::cycles::Category;
use crate::ids::EpId;
use crate::memory::PageTable;
use crate::message::Message;
use crate::sys::Sys;
use crate::value::Value;

/// Accounted size of the minimal process structure (§6.1: "Asbestos's
/// minimal process structure takes 320 bytes").
pub const PROCESS_STRUCT_BYTES: usize = 320;

/// Behavior of an ordinary (non-event) process.
///
/// Asbestos services are event loops: the kernel invokes
/// [`Service::on_message`] once per delivered message. Sends issued from the
/// handler are queued and delivered in later scheduler steps, so multi-step
/// protocols keep their pending state in `self` (continuation style — the
/// same structure an efficient event-driven server has on any OS, §6).
///
/// `Send` is a supertrait so that a whole [`crate::Kernel`] is `Send`
/// and can be built on one thread and driven on another; captured state
/// moves with it (use `Arc<Mutex<…>>`, not `Rc<RefCell<…>>`, for
/// god-mode observation channels).
pub trait Service: Send + 'static {
    /// Invoked once when the process starts, before any message delivery.
    /// Typical services create their ports here and publish them via the
    /// environment (§4's bootstrapping convention).
    fn on_start(&mut self, _sys: &mut Sys<'_>) {}

    /// Invoked for every message delivered to a port this process owns.
    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message);

    /// Invoked once by [`crate::Kernel::teardown`] when the deployment is
    /// being shut down cleanly. Services with durable state (ok-dbproxy's
    /// write-ahead log) flush here; a crash — dropping the kernel without
    /// teardown — skips this, which is exactly the torn state the
    /// recovery path must tolerate. Sends issued here are never
    /// delivered: the kernel stops scheduling after teardown.
    fn on_teardown(&mut self, _sys: &mut Sys<'_>) {}

    /// Optional downcast hook for god-mode test inspection.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// Behavior of an event-process-based service (§6).
///
/// The kernel calls [`EpService::on_base_start`] exactly once, while the
/// base process is still running; this is where the service allocates its
/// public ports and initializes base memory. After that the base process
/// "never runs again" (§6.1) and every delivery happens inside an event
/// process: `on_event` takes `&self` precisely because per-user state must
/// live in simulated memory — where the kernel can enforce copy-on-write
/// isolation — not in Rust fields shared across users.
///
/// `Send` is a supertrait for the same reason as [`Service`].
pub trait EpService: Send + 'static {
    /// One-time base-process setup (create ports, write initial memory).
    fn on_base_start(&mut self, _sys: &mut Sys<'_>) {}

    /// Handles one message in the context of an event process. Returning
    /// from this method is the implicit `ep_yield` of the paper's event
    /// loop; call [`Sys::ep_exit`] instead to discard the event process.
    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message);

    /// Optional downcast hook for god-mode test inspection.
    fn as_any(&self) -> Option<&dyn Any> {
        None
    }
}

/// A process body: either an ordinary service or an event-process service.
pub enum Body {
    /// Ordinary process.
    Plain(Box<dyn Service>),
    /// Event-process realm (§6).
    Event(Box<dyn EpService>),
}

/// Kernel state for one process.
pub struct Process {
    /// Debug name (e.g. `"netd"`, `"ok-demux"`).
    pub name: String,
    /// The process send label `P_S` — its current contamination.
    ///
    /// `Arc`-shared: a Figure 4 effect that changes nothing re-installs
    /// this same `Arc`, and forked event processes share the base's
    /// labels until either side mutates (copy-on-write via
    /// `Arc::make_mut`).
    pub send_label: Arc<Label>,
    /// The process receive label `P_R` — the contamination it accepts.
    pub recv_label: Arc<Label>,
    /// Cycle-accounting category for work done by this process.
    pub category: Category,
    /// Base address space (shared copy-on-write with event processes).
    pub page_table: PageTable,
    /// Environment for port bootstrapping (§4).
    pub env: BTreeMap<String, Value>,
    /// Live event processes belonging to this process.
    pub eps: Vec<EpId>,
    /// Whether the process is alive.
    pub alive: bool,
    /// Whether this process runs in the event-process realm.
    pub ep_mode: bool,
    /// The service body; `None` transiently while a handler is executing.
    pub(crate) body: Option<Body>,
}

impl Process {
    /// Creates a process with default labels (`P_S = {1}`, `P_R = {2}`).
    pub fn new(name: &str, category: Category, body: Body) -> Process {
        let ep_mode = matches!(body, Body::Event(_));
        Process {
            name: name.to_string(),
            send_label: Arc::new(Label::default_send()),
            recv_label: Arc::new(Label::default_recv()),
            category,
            page_table: PageTable::new(),
            env: BTreeMap::new(),
            eps: Vec::new(),
            alive: true,
            ep_mode,
            body: Some(body),
        }
    }

    /// Accounted kernel bytes for this process (structure plus labels).
    pub fn kernel_bytes(&self) -> usize {
        PROCESS_STRUCT_BYTES + self.send_label.heap_bytes() + self.recv_label.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbestos_labels::Level;

    struct Nop;
    impl Service for Nop {
        fn on_message(&mut self, _sys: &mut Sys<'_>, _msg: &Message) {}
    }

    #[test]
    fn new_process_defaults() {
        let p = Process::new("test", Category::Other, Body::Plain(Box::new(Nop)));
        assert_eq!(p.send_label.default_level(), Level::L1);
        assert_eq!(p.recv_label.default_level(), Level::L2);
        assert!(p.alive);
        assert!(!p.ep_mode);
        assert!(p.eps.is_empty());
    }

    #[test]
    fn kernel_bytes_includes_labels() {
        let p = Process::new("test", Category::Other, Body::Plain(Box::new(Nop)));
        // Process structure plus exactly the labels' own accounting —
        // computed, not hardcoded, so label-representation changes don't
        // break this test.
        let label_bytes = p.send_label.heap_bytes() + p.recv_label.heap_bytes();
        assert!(label_bytes > 0, "default labels occupy heap");
        assert_eq!(p.kernel_bytes(), PROCESS_STRUCT_BYTES + label_bytes);
    }
}
