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
//! The kernel is a set of [`shard::KernelShard`]s — each a complete,
//! isolated delivery engine owning its own processes, event processes,
//! ports, frames, mailboxes, clock, and stats — behind a
//! [`Kernel`] coordinator that owns placement, the run loop (one
//! deterministic sweep over the shards on the calling thread, repeated
//! to quiescence), and the merged whole-kernel views. The only
//! cross-shard state is the router's two read-mostly maps (port
//! directory, global environment) and the inbound channels; label
//! evaluation always runs on the destination port's shard, so Figure 4
//! semantics are untouched by the partitioning, and `shards = 1` (the
//! paper-figure configuration) is pinned bit-for-bit against the
//! pre-sharding engine by `tests/shard_determinism.rs`.
//!
//! Within one shard, [`delivery`] is everything that happens to a queued
//! message:
//!
//! **Per-port mailboxes, round-robin scheduled.** Queued messages live in
//! one FIFO per destination port. A deterministic round-robin rotation —
//! ports enter when their first message arrives, each `step()` drains one
//! message from the front port and rotates it to the back — replaces the
//! old single global queue. Per-port order still equals send order, so
//! protocol code is unaffected, while no queue state is shared between
//! ports: the structural prerequisite for sharding the delivery engine
//! across cores.
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
//! **Overload control.** Armed by [`Kernel::set_backpressure`] (off by
//! default), the [`backpressure`] module turns silent queue-bound drops
//! into graceful degradation: per-(sender, port) credit windows that
//! refill on the sender's *own* handler activations (AIMD: halve on
//! overrun, grow by one per clean activation), a bounded per-shard retry
//! queue that parks over-budget or capacity-blocked messages instead of
//! dropping them, and [`SysError::WouldBlock`] for senders that exhaust
//! both window and deferral quota. The verdict a sender observes is a
//! pure function of its own send history — never of shared queue
//! occupancy — which is what keeps the backpressure signal from becoming
//! a covert channel (pinned by `tests/covert_channels.rs`).

#![forbid(unsafe_code)]

pub mod backpressure;
pub mod cycles;
pub mod delivery;
pub mod error;
pub mod event_process;
pub mod handle_table;
pub mod ids;
pub mod kernel;
pub mod knobs;
pub mod memory;
pub mod message;
pub mod process;
mod router;
pub mod shard;
pub mod stats;
pub mod sys;
pub mod util;
pub mod value;

pub use backpressure::{PortPressure, SendVerdict};
pub use cycles::{Category, CostModel, CYCLES_PER_SEC};
pub use delivery::DeliveryOutcome;
pub use error::{SysError, SysResult};
pub use event_process::{EventProcess, EP_STRUCT_BYTES};
pub use handle_table::{PortOwner, VNODE_BYTES};
pub use ids::{EpId, ExecCtx, ProcessId, MAX_SHARDS};
pub use kernel::{Kernel, KmemReport, DEFAULT_QUEUE_LIMIT};
pub use memory::PAGE_SIZE;
pub use message::{Message, RemoteSend, SendArgs};
pub use process::{EpService, Process, Service, PROCESS_STRUCT_BYTES};
pub use shard::{KernelShard, DEFAULT_PORT_QUEUE_LIMIT};
pub use stats::{DropReason, Stats};
pub use sys::Sys;
pub use value::{Payload, Value};

// Re-export the label vocabulary so downstream crates need only one import.
pub use asbestos_labels::{Handle, Label, Level};
