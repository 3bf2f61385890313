//! The per-kernel gateway: a kernel's ambassador to the federation.
//!
//! Each kernel in a cluster gets one [`Gateway`], which owns that
//! kernel's switch connection and translates between kernel state and
//! wire traffic:
//!
//! * **Outbound** ([`Gateway::pump_out`]): diffs the kernel's global
//!   environment against a mirror and replicates new/changed bindings
//!   as `EnvSet`; drains the kernel's remote-send egress into `Forward`
//!   frames. Before anything that *carries* a local port handle leaves
//!   (an env value or a message body — reply ports ride in bodies), the
//!   gateway `Register`s that port, so the directory route is always on
//!   the wire ahead of the first frame that needs it.
//! * **Inbound** ([`Gateway::pump_in`]): applies directory pushes
//!   (`ResolveR`) to the kernel's remote-port table, applies replicated
//!   `EnvSet`s, and injects `Forward`s via [`Kernel::inject_remote`] —
//!   which enqueues on the destination port's shard, where the ordinary
//!   delivery path re-runs the Figure 4 check against *this* kernel's
//!   state. Verdicts never cross the wire; only labels do.
//!
//! The env mirror is also the echo brake: a binding applied from the
//! wire is mirrored first, so the next outbound diff sees no change and
//! nothing loops back to the switch.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::sync::Arc;

use asbestos_kernel::{Handle, Kernel, RemoteSend, Value};

use crate::conn::{ConnStats, FrameConn};
use crate::wire::WireMsg;

/// One kernel's connection to the federation.
pub struct Gateway {
    kernel_id: u16,
    conn: FrameConn,
    /// Last-synced view of the global environment (ours + replicated).
    env_mirror: BTreeMap<String, Value>,
    /// Local ports already `Register`ed with the switch.
    announced: HashSet<Handle>,
    /// `Forward`s sent on behalf of this kernel.
    pub forwarded_out: u64,
    /// `Forward`s injected into this kernel.
    pub forwarded_in: u64,
}

impl Gateway {
    /// Wraps a switch connection for kernel `kernel_id` of `kernels`,
    /// sending the `Hello` preamble.
    pub fn new(kernel_id: u16, kernels: u16, mut conn: FrameConn) -> Gateway {
        conn.send(&WireMsg::Hello {
            kernel: kernel_id,
            kernels,
        });
        Gateway {
            kernel_id,
            conn,
            env_mirror: BTreeMap::new(),
            announced: HashSet::new(),
            forwarded_out: 0,
            forwarded_in: 0,
        }
    }

    /// This gateway's kernel id.
    pub fn kernel_id(&self) -> u16 {
        self.kernel_id
    }

    /// Wire traffic counters for this kernel's connection.
    pub fn wire_stats(&self) -> ConnStats {
        self.conn.stats()
    }

    /// Serializes new kernel state onto the wire: env diffs, then the
    /// remote-send egress. Returns the number of frames queued.
    pub fn pump_out(&mut self, kernel: &mut Kernel) -> u64 {
        let mut queued = 0u64;
        for (key, value) in kernel.global_env_snapshot() {
            if self.env_mirror.get(&key) == Some(&value) {
                continue;
            }
            queued += self.announce_ports_in(kernel, &value);
            self.conn.send(&WireMsg::EnvSet {
                key: key.clone(),
                value: value.clone(),
            });
            self.env_mirror.insert(key, value);
            queued += 1;
        }
        for rs in kernel.take_remote_egress() {
            // Reply ports travel in message bodies; route them first.
            queued += self.announce_ports_in(kernel, &rs.body);
            self.conn.send(&WireMsg::Forward {
                port: rs.port,
                es: (*rs.es).clone(),
                ds: rs.ds,
                dr: rs.dr,
                v: rs.v,
                body: rs.body,
            });
            self.forwarded_out += 1;
            queued += 1;
        }
        queued
    }

    /// Applies everything the switch pushed at us. Returns the number of
    /// frames handled.
    pub fn pump_in(&mut self, kernel: &mut Kernel) -> io::Result<u64> {
        let msgs = self.conn.pump()?;
        let mut handled = 0u64;
        for msg in msgs {
            handled += 1;
            match msg {
                WireMsg::ResolveR {
                    port,
                    kernel: Some(owner),
                } => {
                    if owner != self.kernel_id && !kernel.is_local_port(port) {
                        kernel.register_remote_port(port, owner);
                    }
                }
                WireMsg::ResolveR { port, kernel: None } => {
                    kernel.unregister_remote_port(port);
                }
                WireMsg::EnvSet { key, value } => {
                    // Mirror first: the next outbound diff must see this
                    // binding as already-synced, or it would echo forever.
                    self.env_mirror.insert(key.clone(), value.clone());
                    kernel.set_global_env(&key, value);
                }
                WireMsg::Forward {
                    port,
                    es,
                    ds,
                    dr,
                    v,
                    body,
                } => {
                    self.forwarded_in += 1;
                    kernel.inject_remote(RemoteSend {
                        port,
                        body,
                        es: Arc::new(es),
                        ds,
                        dr,
                        v,
                    });
                }
                WireMsg::Hello { .. } | WireMsg::Register { .. } | WireMsg::Unregister { .. } => {}
            }
        }
        Ok(handled)
    }

    /// Pushes buffered frames into the socket; returns bytes moved.
    pub fn flush(&mut self) -> io::Result<usize> {
        self.conn.flush()
    }

    /// Whether this gateway still has unflushed output.
    pub fn has_pending_output(&self) -> bool {
        self.conn.has_pending_output()
    }

    /// `Register`s every not-yet-announced local port handle reachable in
    /// `value` (recursing through lists). Handles inside opaque byte
    /// payloads are invisible — by the paper's §4 bootstrap conventions,
    /// ports propagate as `Value::Handle`s, not as raw bytes.
    fn announce_ports_in(&mut self, kernel: &Kernel, value: &Value) -> u64 {
        let mut queued = 0u64;
        match value {
            Value::Handle(h) if kernel.is_local_port(*h) && self.announced.insert(*h) => {
                self.conn.send(&WireMsg::Register { port: *h });
                queued += 1;
            }
            Value::List(items) => {
                for item in items {
                    queued += self.announce_ports_in(kernel, item);
                }
            }
            _ => {}
        }
        queued
    }
}
