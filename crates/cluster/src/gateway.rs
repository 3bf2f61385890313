//! The per-kernel gateway: a kernel's ambassador to the federation.
//!
//! Each kernel in a cluster gets one [`Gateway`], which owns that
//! kernel's switch connection and translates between kernel state and
//! wire traffic:
//!
//! * **Outbound** ([`Gateway::pump_out`]): diffs the kernel's global
//!   environment against a mirror and replicates new/changed bindings
//!   as `EnvSet`; drains the kernel's remote-send egress — every send to
//!   a handle this kernel did not mint — into `Forward` frames. Nothing
//!   announces a port: the switch computes each `Forward`'s destination
//!   from its port's value.
//! * **Inbound** ([`Gateway::pump_in`]): applies replicated `EnvSet`s,
//!   and injects `Forward`s via [`Kernel::inject_remote`] — which
//!   enqueues on the destination port's shard, where the ordinary
//!   delivery path re-runs the Figure 4 check against *this* kernel's
//!   state. Verdicts never cross the wire; only labels do.
//!
//! The env mirror is also the echo brake: a binding applied from the
//! wire is mirrored first, so the next outbound diff sees no change and
//! nothing loops back to the switch.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;

use asbestos_kernel::{Kernel, RemoteSend, Value};

use crate::conn::{ConnStats, FrameConn};
use crate::wire::WireMsg;

/// One kernel's connection to the federation.
pub struct Gateway {
    conn: FrameConn,
    /// Last-synced view of the global environment (ours + replicated).
    env_mirror: BTreeMap<String, Value>,
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
            conn,
            env_mirror: BTreeMap::new(),
            forwarded_out: 0,
            forwarded_in: 0,
        }
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
            self.conn.send(&WireMsg::EnvSet {
                key: key.clone(),
                value: value.clone(),
            });
            self.env_mirror.insert(key, value);
            queued += 1;
        }
        for rs in kernel.take_remote_egress() {
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
                WireMsg::Hello { .. } => {}
            }
        }
        Ok(handled)
    }

    /// Pushes buffered frames into the socket; returns bytes moved.
    pub fn flush(&mut self) -> io::Result<usize> {
        self.conn.flush()
    }
}
