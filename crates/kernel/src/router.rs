//! The kernel's routing state.
//!
//! The [`Router`] owns what a handler may reach beyond its own process:
//!
//! * the **port table** — the kernel's one handle → live port map
//!   (§5.6) — and the kernel's handle allocator. Where a message goes is
//!   the kernel whose cipher lane minted its port, which [`Router::route`]
//!   computes from the port's value alone: no table entry is read, and a
//!   handle's home never changes;
//! * the **global environment** — the §4 bootstrapping namespace, which
//!   was always whole-kernel state — and, on a federated kernel, the log
//!   of the writes made here, which the gateway drains to replicate them;
//! * the **egress** queue of a federated kernel (see `crates/cluster`),
//!   empty on every other kernel.
//!
//! The kernel lends the `&mut Router` to the one handler running, so the
//! borrow checker, not a lock, proves there is one writer, and every read
//! and write happens at a point fixed by the kernel's event history.

use std::collections::BTreeMap;

use asbestos_labels::Handle;

use crate::handle_table::HandleTable;
use crate::message::RemoteSend;
use crate::value::Value;

/// The kernel's routing state. See the module docs.
pub(crate) struct Router {
    /// Every handle this kernel minted, and its allocator.
    pub handles: HandleTable,
    /// The §4 global environment (init/launcher bootstrap namespace).
    env: BTreeMap<String, Value>,
    /// Environment writes made on this kernel, in write order, until the
    /// gateway drains them ([`crate::Kernel::take_env_log`]). Federated
    /// kernels only: a plain kernel has no gateway to drain it.
    env_log: Vec<(String, Value)>,
    /// Outbound cross-kernel messages, each with its home kernel, parked
    /// until the gateway drains them ([`crate::Kernel::take_remote_egress`]).
    egress: Vec<(usize, RemoteSend)>,
}

/// Where a message goes: the kernel whose cipher lane minted its port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// To this kernel's own delivery engine.
    Local,
    /// Out through egress, to this kernel.
    Egress(usize),
}

impl Router {
    pub fn new(handles: HandleTable) -> Router {
        Router {
            handles,
            env: BTreeMap::new(),
            env_log: Vec::new(),
            egress: Vec::new(),
        }
    }

    /// Where a message to `port` goes, from its value alone. Kernel `k`
    /// of `N` mints from lane `k` of `N`, so `lane_of(port)` is the
    /// kernel that minted it:
    ///
    /// * it stays here iff that is this kernel — to its owner while it
    ///   is a live port; a dead port, a compartment or a value no one
    ///   minted drops `NoSuchPort` here;
    /// * otherwise it leaves through egress for that kernel.
    ///
    /// A kernel with one lane routes everything locally and decrypts
    /// nothing.
    pub fn route(&self, port: Handle) -> Route {
        let alloc = self.handles.allocator();
        let lane = alloc.lane_of(port);
        if lane == alloc.lane() {
            Route::Local
        } else {
            Route::Egress(lane as usize)
        }
    }

    /// Parks one outbound message for the gateway to send to kernel
    /// `home`.
    pub fn push_egress(&mut self, home: usize, rs: RemoteSend) {
        self.egress.push((home, rs));
    }

    /// Drains every parked outbound cross-kernel message with its home
    /// kernel, in send order.
    pub fn take_egress(&mut self) -> Vec<(usize, RemoteSend)> {
        std::mem::take(&mut self.egress)
    }

    /// Reads a global environment entry.
    pub fn env_get(&self, key: &str) -> Option<Value> {
        self.env.get(key).cloned()
    }

    /// Writes a global environment entry on behalf of this kernel; a
    /// federated kernel — one whose handle space has lanes other kernels
    /// own — also logs the write for the gateway.
    pub fn env_set(&mut self, key: &str, value: Value) {
        if self.handles.allocator().lanes() > 1 {
            self.env_log.push((key.to_string(), value.clone()));
        }
        self.env_apply(key, value);
    }

    /// Writes a global environment entry without logging it: a write
    /// another kernel made, applied here, must not be sent back.
    pub fn env_apply(&mut self, key: &str, value: Value) {
        self.env.insert(key.to_string(), value);
    }

    /// Drains the logged environment writes, in write order.
    pub fn take_env_log(&mut self) -> Vec<(String, Value)> {
        std::mem::take(&mut self.env_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 1;

    /// Kernel `slot` of a federation of `kernels` kernels, as
    /// `Kernel::with_cluster_slot` lays out the lanes.
    fn table(slot: usize, kernels: usize) -> HandleTable {
        HandleTable::with_partition(SEED, slot as u64, kernels as u64)
    }

    /// A router of a plain kernel, or of the first of two federated ones.
    fn router(federated: bool) -> Router {
        Router::new(table(0, 1 + usize::from(federated)))
    }

    /// Routing reads no vnode. A router whose table minted nothing keeps
    /// each handle an identically partitioned table minted for its own
    /// kernel, and sends every other one out to the kernel that minted it.
    #[test]
    fn every_minted_handle_routes_to_its_minting_lane() {
        for kernels in [1, 2, 3, 4] {
            for slot in 0..kernels {
                let r = Router::new(table(slot, kernels));
                for k in 0..kernels {
                    let mut minter = table(k, kernels);
                    for _ in 0..6 {
                        let h = minter.new_handle();
                        let want = if k == slot {
                            Route::Local
                        } else {
                            Route::Egress(k)
                        };
                        assert_eq!(r.route(h), want, "{h:?}: {kernels} kernels, {k} → {slot}");
                    }
                }
                assert_eq!(
                    r.handles.allocator().allocated(),
                    0,
                    "the router's table minted nothing"
                );
            }
        }
    }

    #[test]
    fn env_roundtrip() {
        let mut r = router(false);
        assert_eq!(r.env_get("x"), None);
        r.env_set("x", Value::U64(9));
        assert_eq!(r.env_get("x"), Some(Value::U64(9)));
        assert!(r.take_env_log().is_empty(), "a plain kernel logs nothing");
    }

    /// A federated kernel logs its own writes, in order, and never one it
    /// applied from the wire.
    #[test]
    fn only_local_writes_enter_the_env_log() {
        let mut r = router(true);
        r.env_set("x", Value::U64(1));
        r.env_apply("y", Value::U64(2));
        r.env_set("x", Value::U64(3));
        assert_eq!(
            r.take_env_log(),
            [("x".into(), Value::U64(1)), ("x".into(), Value::U64(3))]
        );
        assert!(r.take_env_log().is_empty());
        assert_eq!(r.env_get("y"), Some(Value::U64(2)));
    }
}
