//! Cross-shard routing state.
//!
//! A sharded kernel partitions process, event-process and queue state
//! across [`KernelShard`](crate::shard::KernelShard)s; the [`Router`]
//! owns everything that belongs to no single shard:
//!
//! * the **vnode table** — the kernel's one handle → vnode map (§5.6).
//!   Each vnode records the shard that minted its handle, so
//!   [`Router::route`] reads where a message goes off the handle and
//!   this table: nothing else keeps a copy of it, and a handle's shard
//!   never changes;
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
    /// Every handle this kernel minted, with the shard that minted it.
    pub handles: HandleTable,
    /// The §4 global environment (init/launcher bootstrap namespace).
    env: BTreeMap<String, Value>,
    /// Environment writes made on this kernel, in write order, until the
    /// gateway drains them ([`crate::Kernel::take_env_log`]). Federated
    /// kernels only: a plain kernel has no gateway to drain it.
    env_log: Vec<(String, Value)>,
    /// Outbound cross-kernel messages, parked until the gateway drains
    /// them ([`crate::Kernel::take_remote_egress`]).
    egress: Vec<RemoteSend>,
    /// Each shard's inbound cross-shard messages, in arrival order.
    /// Per-sender-per-port FIFO survives: pushes into one inbox happen in
    /// send order, and the receiving shard enqueues a drained batch in
    /// arrival order into its per-port FIFO mailboxes.
    inboxes: Vec<Vec<QueuedMessage>>,
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

    /// The shard a message to `port` is evaluated on, or `None` when it
    /// leaves through egress — computed from the handle alone:
    ///
    /// * a handle with a vnode goes to the shard that minted it — its
    ///   owner's shard while it is a live port, and a dead port or a
    ///   compartment drops `NoSuchPort` there;
    /// * on a federated kernel, a handle with no vnode was minted by
    ///   another kernel (or by none), so it leaves and the switch finds
    ///   its home;
    /// * on a plain kernel, it goes to a deterministic hash of its value,
    ///   which finds no vnode and drops `NoSuchPort`, exactly as a
    ///   single-shard kernel would.
    pub fn route(&self, port: Handle) -> Option<u16> {
        match self.handles.get(port) {
            Some(v) => Some(v.shard),
            None if self.handles.shares_handle_space() => None,
            None => Some(self.hash_shard(port)),
        }
    }

    /// The shard a message arriving from outside the kernel (an
    /// injection, or a `Forward` off the wire) is evaluated on:
    /// [`Router::route`], except that an arrival never leaves again. A
    /// handle with no vnode here drops `NoSuchPort` on its hash shard, so
    /// a `Forward` is never sent back out.
    pub fn arrival_shard(&self, port: Handle) -> usize {
        self.route(port).unwrap_or_else(|| self.hash_shard(port)) as usize
    }

    /// A deterministic hash of a handle's value onto the shards.
    fn hash_shard(&self, port: Handle) -> u16 {
        (port.raw() % self.inboxes.len() as u64) as u16
    }

    /// Parks one outbound cross-kernel message for the gateway.
    pub fn push_egress(&mut self, rs: RemoteSend) {
        self.egress.push(rs);
    }

    /// Drains every parked outbound cross-kernel message, in send order.
    pub fn take_egress(&mut self) -> Vec<RemoteSend> {
        std::mem::take(&mut self.egress)
    }

    /// Reads a global environment entry.
    pub fn env_get(&self, key: &str) -> Option<Value> {
        self.env.get(key).cloned()
    }

    /// Writes a global environment entry on behalf of this kernel; a
    /// federated kernel also logs the write for the gateway.
    pub fn env_set(&mut self, key: &str, value: Value) {
        if self.handles.shares_handle_space() {
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

    use crate::handle_table::PortOwner;
    use crate::ids::ProcessId;
    use asbestos_labels::Label;

    /// A router over `shards` shards, each minting from its own lane; a
    /// federated one's kernel is the first of two.
    fn router(shards: usize, federated: bool) -> Router {
        let lanes = if federated { 2 * shards } else { shards };
        let handles = HandleTable::with_partition(1, 0, shards, lanes as u64);
        Router::new(handles, shards)
    }

    /// An unknown handle: one no shard of these routers has minted.
    const UNKNOWN: Handle = Handle::from_raw(0x123);

    #[test]
    fn directory_and_fallback() {
        let mut r = router(4, false);
        // Unknown: deterministic hash fallback.
        assert_eq!(r.route(UNKNOWN), Some((0x123 % 4) as u16));
        // Minted: the shard that minted it, port or compartment, live or
        // dead (where a dead port drops `NoSuchPort`).
        let owner = PortOwner::Process(ProcessId::new(3, 0));
        let p = r.handles.new_port(Label::top(), owner, 3);
        let c = r.handles.new_handle(1);
        assert_eq!((r.route(p), r.route(c)), (Some(3), Some(1)));
        r.handles.dissociate(p);
        assert_eq!(r.route(p), Some(3));
    }

    #[test]
    fn only_a_federated_kernel_sends_unknown_handles_out() {
        for shards in [1, 4] {
            let mut fed = router(shards, true);
            let c = fed.handles.new_handle(shards as u16 - 1);
            assert_eq!(fed.route(c), Some(shards as u16 - 1));
            assert_eq!(fed.route(UNKNOWN), None);
            // An arrival never leaves again: it drops on its hash shard.
            assert_eq!(fed.arrival_shard(UNKNOWN), 0x123 % shards);
            let plain = router(shards, false);
            assert_eq!(plain.route(UNKNOWN), Some((0x123 % shards) as u16));
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
