//! # asbestos-kernel
//!
//! A deterministic user-space simulator of the Asbestos kernel from *Labels
//! and Event Processes in the Asbestos Operating System* (SOSP 2005):
//! message-passing IPC over ports (§4), the full Figure 4 label semantics at
//! every delivery (§5), and event processes with copy-on-write memory (§6).
//!
//! The simulator substitutes for the paper's bare-metal x86 kernel (see
//! DESIGN.md): processes are Rust [`Service`]/[`EpService`] values driven by
//! a deterministic delivery loop, time is a virtual cycle clock charged by a
//! calibrated [`cycles::CostModel`], and memory is simulated 4 KiB pages so
//! the paper's memory measurements (Figure 6) can be reproduced exactly.
//!
//! ## Shape of a service
//!
//! ```
//! use asbestos_kernel::{Kernel, Message, Service, Sys, Value};
//! use asbestos_kernel::cycles::Category;
//! use asbestos_labels::Label;
//!
//! struct Echo;
//! impl Service for Echo {
//!     fn on_start(&mut self, sys: &mut Sys<'_>) {
//!         // Create a public port and publish it for bootstrap (§4).
//!         let port = sys.new_port(Label::top());
//!         sys.set_port_label(port, Label::top()).unwrap();
//!         sys.publish_env("echo.port", Value::Handle(port));
//!     }
//!     fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
//!         if let Some(reply_to) = msg.body.as_handle() {
//!             sys.send(reply_to, Value::Str("pong".into())).unwrap();
//!         }
//!     }
//! }
//!
//! let mut kernel = Kernel::new(42);
//! kernel.spawn("echo", Category::Other, Box::new(Echo));
//! let port = kernel.global_env("echo.port").unwrap().as_handle().unwrap();
//! kernel.inject(port, Value::Unit);
//! kernel.run();
//! assert_eq!(kernel.stats().delivered, 1);
//! ```
//!
//! ## Architecture
//!
//! A [`Kernel`] is one delivery engine ([`shard::Engine`]) owning
//! every process, event process, frame, mailbox, the clock and the stats,
//! plus a router owning the port table, the global environment and, on a
//! federated kernel, the egress queue. [`Kernel::run`] drains the engine
//! on the calling thread: the paper's one delivery loop. A kernel spreads
//! across machines only by federation (`crates/cluster`): kernel `k` of
//! `N` mints handles from cipher lane `k`, so a port's value names its
//! home kernel, and a send is either local or leaves through egress. The
//! schedule is a function of the kernel's inputs, pinned bit-for-bit by
//! `tests/shard_determinism.rs`.
//!
//! [`delivery`] is everything that happens to a queued message:
//!
//! **Per-port mailboxes, round-robin scheduled.** Queued messages live in
//! one FIFO per destination port. A deterministic round-robin rotation —
//! ports enter when their first message arrives, each `step()` drains one
//! message from the front port and rotates it to the back — replaces the
//! old single global queue. Per-port order still equals send order, so
//! protocol code is unaffected, while no queue state is shared between
//! ports.
//!
//! **Figure 4 on every delivery.** Every delivery evaluates the paper's
//! rule `E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R` plus its relabeling effects. §5.6
//! is what makes that affordable: the label operations run in O(chunks
//! touched), and an effect that changes nothing hands back the `Arc` the
//! receiver already holds — which is why process and event-process labels
//! are stored as `Arc<Label>`. There is no memo in front of the check; the
//! virtual clock charges the linear label work every time, which is the
//! source of Figure 9's linear degradation.
//!
//! **Queue bounds.** The kernel bounds its pending messages
//! ([`Kernel::set_queue_limit`]) and each port its mailbox
//! ([`Kernel::set_port_queue_limit`]). A message past either bound drops
//! as silently as a label failure (§8's resource exhaustion, counted only
//! in [`Stats`]): [`Sys::send`] returns `Ok(())` for it, and its only
//! error, [`SysError::PrivilegeViolation`], depends on the caller's own
//! labels and arguments (pinned by `tests/covert_channels.rs`).

#![forbid(unsafe_code)]

pub mod cycles;
pub mod delivery;
pub mod error;
pub mod event_process;
pub mod handle_table;
pub mod ids;
pub mod kernel;
pub mod memory;
pub mod message;
pub mod process;
mod router;
pub mod shard;
pub mod stats;
pub mod sys;
pub mod util;
pub mod value;

pub use cycles::{Category, CostModel, CYCLES_PER_SEC};
pub use delivery::DeliveryOutcome;
pub use error::{SysError, SysResult};
pub use event_process::{EventProcess, EP_STRUCT_BYTES};
pub use handle_table::{PortOwner, VNODE_BYTES};
pub use ids::{EpId, ExecCtx, ProcessId};
pub use kernel::{Kernel, KmemReport, DEFAULT_QUEUE_LIMIT};
pub use memory::PAGE_SIZE;
pub use message::{Message, RemoteSend, SendArgs};
pub use process::{EpService, Process, Service, PROCESS_STRUCT_BYTES};
pub use shard::{Engine, DEFAULT_PORT_QUEUE_LIMIT};
pub use stats::{DropReason, Stats};
pub use sys::Sys;
pub use value::{Field, Fields, Payload, Value};

// Re-export the label vocabulary so downstream crates need only one import.
pub use asbestos_labels::{Handle, HandleMap, Label, Level};
