//! Cross-shard routing state.
//!
//! A sharded kernel partitions process, event-process and queue state
//! across [`KernelShard`](crate::shard::KernelShard)s; the [`Router`]
//! owns everything that belongs to no single shard:
//!
//! * the **port table** — the kernel's one handle → live port map
//!   (§5.6) — and the kernel's handle allocator. Where a message goes is
//!   the kernel and shard whose cipher lane minted its port, which
//!   [`Router::route`] computes from the port's value alone: no table
//!   entry is read, and a handle's home never changes;
//! * the **global environment** — the §4 bootstrapping namespace, which
//!   was always whole-kernel state — and, on a federated kernel, the log
//!   of the writes made here, which the gateway drains to replicate them;
//! * the **egress** queue of a federated kernel (see `crates/cluster`),
//!   empty on every other kernel;
//! * one **inbox** per shard. A cross-shard send is pushed onto the
//!   *destination's* inbox the moment it resolves, mid-drain, and the
//!   destination drains its own inbox at deterministic points of its
//!   delivery loop (sub-round routing; see `kernel.rs` for the run loop).
//!
//! One thread owns all of it. The run loop drains one shard at a time on
//! the calling thread and lends that shard the `&mut Router`, so the
//! borrow checker, not a lock, proves there is one writer, and every read
//! and write happens at a point fixed by the kernel's event history.
//! Single-shard kernels never touch an inbox.

use std::collections::BTreeMap;

use asbestos_labels::Handle;

use crate::handle_table::HandleTable;
use crate::message::{QueuedMessage, RemoteSend};
use crate::value::Value;

/// Where a shard stood in its schedule when it pulled its inbox — only
/// the observability counters care (see [`crate::Stats`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PullPoint {
    /// Pulled by the coordinator outside a drain: at the start of
    /// `run()` or before a `step()`.
    Barrier,
    /// Pulled by the shard itself while draining (sub-round routing).
    Subround,
}

/// The kernel's cross-shard state. See the module docs for the
/// determinism contract.
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
    /// Each shard's inbound cross-shard messages, in arrival order.
    /// Per-sender-per-port FIFO survives: pushes into one inbox happen in
    /// send order, and the receiving shard enqueues a drained batch in
    /// arrival order into its per-port FIFO mailboxes.
    inboxes: Box<[Vec<QueuedMessage>]>,
}

/// Where a message goes: the kernel and shard whose cipher lane minted
/// its port.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// To this shard of this kernel.
    Shard(u16),
    /// Out through egress, to this kernel.
    Egress(usize),
}

impl Router {
    pub fn new(handles: HandleTable, num_shards: usize) -> Router {
        Router {
            handles,
            env: BTreeMap::new(),
            env_log: Vec::new(),
            egress: Vec::new(),
            inboxes: (0..num_shards).map(|_| Vec::new()).collect(),
        }
    }

    /// Where a message to `port` goes, from its value alone. Shard `i`
    /// of kernel `k` mints from lane `k·S + i` of the federation's `N·S`,
    /// so with `lane` the one that minted `port`:
    ///
    /// * it stays on this kernel iff `lane / S` is this kernel, and goes
    ///   to shard `lane % S` — its owner's while it is a live port; a dead
    ///   port, a compartment or a value no one minted drops `NoSuchPort`
    ///   there;
    /// * otherwise it leaves through egress for kernel `lane / S`.
    ///
    /// A kernel with one lane routes everything to shard 0 and decrypts
    /// nothing.
    pub fn route(&self, port: Handle) -> Route {
        let alloc = self.handles.allocator();
        let shards = self.inboxes.len() as u64;
        let lane = alloc.lane_of(port);
        if lane / shards == alloc.first() / shards {
            Route::Shard((lane % shards) as u16)
        } else {
            Route::Egress((lane / shards) as usize)
        }
    }

    /// The shard a message arriving from outside the kernel (an
    /// injection, or a `Forward` off the wire) is evaluated on: shard
    /// `lane % S`, as [`Router::route`] computes it, except that an
    /// arrival never leaves again. One for another kernel drops
    /// `NoSuchPort` here, so a `Forward` is never sent back out.
    pub fn arrival_shard(&self, port: Handle) -> usize {
        (self.handles.allocator().lane_of(port) % self.inboxes.len() as u64) as usize
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
    /// federated kernel — one whose handle space has lanes no shard here
    /// owns — also logs the write for the gateway.
    pub fn env_set(&mut self, key: &str, value: Value) {
        if self.handles.allocator().lanes() > self.inboxes.len() as u64 {
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

    // -----------------------------------------------------------------
    // Sub-round cross-shard inboxes.
    // -----------------------------------------------------------------

    /// Cross-shard messages pushed but not yet pulled, kernel-wide.
    pub fn pending(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum()
    }

    /// Pending inbound messages for one shard.
    pub fn inbox_len(&self, shard: usize) -> usize {
        self.inboxes[shard].len()
    }

    /// Pushes one message onto `dest`'s inbox. Returns `false` (and
    /// enqueues nothing) when the inbox already holds `limit` messages —
    /// the §8 backstop bounding in-flight cross-shard memory. The
    /// destination's own queue bounds are enforced by
    /// [`crate::shard::KernelShard::enqueue_checked`] when the batch is
    /// drained.
    pub fn push(&mut self, dest: usize, qm: QueuedMessage, limit: usize) -> bool {
        let inbox = &mut self.inboxes[dest];
        if inbox.len() >= limit {
            return false;
        }
        inbox.push(qm);
        true
    }

    /// Swap-drains every message queued for `shard`, in arrival order,
    /// into `buf` (which must arrive empty). An empty inbox swaps nothing.
    ///
    /// Allocation reuse: the inbox keeps `buf`'s old backing storage and
    /// the caller gets the inbox's, so the two buffers ping-pong between
    /// sender and receiver. Once both have grown to the workload's
    /// high-water batch size, steady state allocates nothing — the
    /// property `inbox_take_reuses_allocations` pins.
    pub fn take_into(&mut self, shard: usize, buf: &mut Vec<QueuedMessage>) -> usize {
        debug_assert!(buf.is_empty(), "drain buffer must arrive empty");
        let inbox = &mut self.inboxes[shard];
        if inbox.is_empty() {
            return 0;
        }
        std::mem::swap(inbox, buf);
        buf.len()
    }

    /// The messages waiting in one shard's inbox (god-mode accounting:
    /// `queued_from`, `KmemReport`).
    pub fn inbox(&self, shard: usize) -> &[QueuedMessage] {
        &self.inboxes[shard]
    }

    /// Structural bookkeeping bytes (inbox headers and spare capacity;
    /// the queued messages themselves are billed as queue bytes).
    pub fn bookkeeping_bytes(&self) -> usize {
        self.inboxes
            .iter()
            .map(|inbox| {
                std::mem::size_of::<Vec<QueuedMessage>>()
                    + inbox.capacity() * std::mem::size_of::<QueuedMessage>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use asbestos_labels::Label;

    const SEED: u64 = 1;

    /// Slot `slot` of a federation of `kernels` kernels of `shards`
    /// shards, as `Kernel::with_cluster_slot` lays out the lanes.
    fn table(shards: usize, slot: usize, kernels: usize) -> HandleTable {
        let lanes = (kernels * shards) as u64;
        HandleTable::with_partition(SEED, (slot * shards) as u64, shards, lanes)
    }

    /// A router over `shards` shards; a federated one's kernel is the
    /// first of two.
    fn router(shards: usize, federated: bool) -> Router {
        Router::new(table(shards, 0, 1 + usize::from(federated)), shards)
    }

    /// Routing reads no vnode. A router whose table minted nothing sends
    /// each handle an identically partitioned table minted to the shard
    /// that minted it, or, exactly when another kernel minted it, out to
    /// that kernel; an arrival goes to the minting lane's shard, wherever
    /// that lane is.
    #[test]
    fn every_minted_handle_routes_to_its_minting_lane() {
        for (shards, kernels) in [1, 3, 4].into_iter().flat_map(|s| [(s, 1), (s, 2), (s, 3)]) {
            for slot in 0..kernels {
                let r = Router::new(table(shards, slot, kernels), shards);
                for k in 0..kernels {
                    let mut minter = table(shards, k, kernels);
                    for shard in (0..shards as u16).flat_map(|s| [s; 6]) {
                        let h = minter.new_handle(shard);
                        let want = if k == slot {
                            Route::Shard(shard)
                        } else {
                            Route::Egress(k)
                        };
                        let at = format!("{h:?}: {shards}×{kernels}, {k} → {slot}");
                        assert_eq!(r.route(h), want, "{at}");
                        assert_eq!(r.arrival_shard(h), shard as usize, "{at}");
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

    fn test_qm(tag: u64) -> QueuedMessage {
        use crate::value::Value;
        use std::sync::Arc;
        QueuedMessage {
            port: Handle::from_raw(9),
            body: Value::U64(tag),
            es: Arc::new(Label::bottom()),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            from: None,
        }
    }

    #[test]
    fn inbox_push_take_pending_and_limit() {
        let mut r = router(2, false);
        assert_eq!(r.pending(), 0);
        assert!(r.push(1, test_qm(1), 8));
        assert!(r.push(1, test_qm(2), 8));
        assert_eq!((r.pending(), r.inbox_len(1), r.inbox_len(0)), (2, 2, 0));
        assert!(!r.push(1, test_qm(3), 2), "inbox at its limit rejects");
        let mut batch = Vec::new();
        assert_eq!(r.take_into(1, &mut batch), 2);
        let tags: Vec<u64> = batch.iter().map(|m| m.body.as_u64().unwrap()).collect();
        assert_eq!(tags, vec![1, 2], "arrival order preserved");
        assert_eq!(r.pending(), 0);
        batch.clear();
        assert_eq!(r.take_into(1, &mut batch), 0, "fast path on empty inbox");
        assert!(r.bookkeeping_bytes() > 0);
    }

    #[test]
    fn inbox_take_reuses_allocations() {
        // Warm up: grow both swap partners to the batch high-water mark.
        let mut r = router(1, false);
        let mut buf = Vec::new();
        for _ in 0..3 {
            for tag in 0..16 {
                assert!(r.push(0, test_qm(tag), usize::MAX));
            }
            r.take_into(0, &mut buf);
            buf.clear();
        }
        // Steady state: the no-realloc pin. Capacities may only ping-pong
        // between the inbox and the drain buffer — a fresh allocation on
        // any drain is the regression this test exists to catch.
        let mut caps = [buf.capacity(), r.inboxes[0].capacity()];
        caps.sort_unstable();
        for _ in 0..8 {
            for tag in 0..16 {
                assert!(r.push(0, test_qm(tag), usize::MAX));
            }
            assert_eq!(r.take_into(0, &mut buf), 16);
            buf.clear();
            let mut now = [buf.capacity(), r.inboxes[0].capacity()];
            now.sort_unstable();
            assert_eq!(
                now, caps,
                "steady-state drains must reuse the warmed buffers"
            );
            caps = now;
        }
    }

    #[test]
    fn env_roundtrip() {
        let mut r = router(2, false);
        assert_eq!(r.env_get("x"), None);
        r.env_set("x", Value::U64(9));
        assert_eq!(r.env_get("x"), Some(Value::U64(9)));
        assert!(r.take_env_log().is_empty(), "a plain kernel logs nothing");
    }

    /// A federated kernel logs its own writes, in order, and never one it
    /// applied from the wire.
    #[test]
    fn only_local_writes_enter_the_env_log() {
        let mut r = router(1, true);
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
