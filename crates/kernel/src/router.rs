//! Cross-shard routing state.
//!
//! A sharded kernel partitions all process, port, and queue state across
//! [`KernelShard`](crate::shard::KernelShard)s; the [`Router`] owns
//! everything that belongs to no single shard:
//!
//! * the **port directory** — which shard owns each port handle: written
//!   once at `new_port`, erased at dissociation or owner exit, never
//!   rewritten (a port lives on the shard that created it), and read on
//!   every send that does not resolve locally;
//! * the **global environment** — the §4 bootstrapping namespace, which
//!   was always whole-kernel state;
//! * the **remote directory** and the **egress** queue of a federated
//!   kernel (see `crates/cluster`), both empty on every other kernel;
//! * one **inbox** per shard. A cross-shard send is pushed onto the
//!   *destination's* inbox the moment it resolves, mid-drain, and the
//!   destination drains its own inbox at deterministic points of its
//!   delivery loop (sub-round routing; see `kernel.rs` for the run loop).
//!
//! One thread owns all of it. The run loop drains one shard at a time on
//! the calling thread and lends that shard the `&mut Router`, so the
//! borrow checker, not a lock, proves there is one writer, and every read
//! and write happens at a point fixed by the kernel's event history. A
//! directory entry never changes while its port is live, so a message in
//! flight cannot dangle toward a shard that no longer owns its port.
//! Single-shard kernels skip the directory and never touch an inbox.

use std::collections::{BTreeMap, HashMap};

use asbestos_labels::Handle;

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
    /// Port handle → owning shard. Only populated on a multi-shard
    /// kernel; a single-shard kernel resolves everything locally.
    ports: HashMap<Handle, u16>,
    /// The §4 global environment (init/launcher bootstrap namespace).
    env: BTreeMap<String, Value>,
    /// Port handle → remote *kernel* id (federation). Written only by
    /// the gateway between runs.
    remote_ports: HashMap<Handle, u16>,
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
    pub fn new(num_shards: usize) -> Router {
        Router {
            ports: HashMap::new(),
            env: BTreeMap::new(),
            remote_ports: HashMap::new(),
            egress: Vec::new(),
            inboxes: (0..num_shards).map(|_| Vec::new()).collect(),
        }
    }

    fn num_shards(&self) -> usize {
        self.inboxes.len()
    }

    /// Records that `port` is owned by `shard`, for the port's whole
    /// life: placement happens once. Single-shard kernels skip the
    /// directory entirely (everything is local).
    pub fn register_port(&mut self, port: Handle, shard: u16) {
        if self.num_shards() > 1 {
            let prev = self.ports.insert(port, shard);
            debug_assert!(
                prev.is_none_or(|p| p == shard),
                "port {port:?} is placed once: already on shard {prev:?}, re-registered to {shard}"
            );
        }
    }

    /// Forgets a port that lost its receive rights (dissociation, owner
    /// exit). Keeps the directory bounded by *live* ports; a stale send
    /// falls back to the hash shard and drops `NoSuchPort`, the same
    /// outcome the owning shard's dissociated vnode produces.
    pub fn unregister_port(&mut self, port: Handle) {
        self.ports.remove(&port);
    }

    /// The shard a message to `port` must be evaluated on.
    ///
    /// Unknown handles (plain compartments, bogus values) fall back to a
    /// deterministic hash of the handle value; the chosen shard finds no
    /// vnode and records the `NoSuchPort` drop, exactly as a single-shard
    /// kernel would.
    pub fn shard_of(&self, port: Handle) -> u16 {
        if let Some(&shard) = self.ports.get(&port) {
            return shard;
        }
        (port.raw() % self.num_shards() as u64) as u16
    }

    /// Records that `port` lives on another kernel (federation). The
    /// gateway only registers ports that are *not* local, so the local
    /// vnode check in `send_from` stays authoritative.
    pub fn register_remote_port(&mut self, port: Handle, kernel: u16) {
        self.remote_ports.insert(port, kernel);
    }

    /// Forgets a remote port (the owning kernel unregistered it). Later
    /// sends fall through to the hash shard and drop `NoSuchPort`, the
    /// same outcome a dissociated local port produces.
    pub fn unregister_remote_port(&mut self, port: Handle) {
        self.remote_ports.remove(&port);
    }

    /// Whether `port` is a registered remote port.
    pub fn is_remote(&self, port: Handle) -> bool {
        self.remote_ports.contains_key(&port)
    }

    /// Parks one outbound cross-kernel message for the gateway.
    pub fn push_egress(&mut self, rs: RemoteSend) {
        self.egress.push(rs);
    }

    /// Drains every parked outbound cross-kernel message, in send order.
    pub fn take_egress(&mut self) -> Vec<RemoteSend> {
        std::mem::take(&mut self.egress)
    }

    /// Snapshot of the whole global environment, in key order (the
    /// gateway diffs this against its mirror to sync env across kernels).
    pub fn env_snapshot(&self) -> Vec<(String, Value)> {
        self.env
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Reads a global environment entry.
    pub fn env_get(&self, key: &str) -> Option<Value> {
        self.env.get(key).cloned()
    }

    /// Writes a global environment entry.
    pub fn env_set(&mut self, key: &str, value: Value) {
        self.env.insert(key.to_string(), value);
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

    #[test]
    fn directory_and_fallback() {
        let mut r = Router::new(4);
        let p = Handle::from_raw(0x123);
        // Unknown: deterministic hash fallback.
        assert_eq!(r.shard_of(p), (0x123 % 4) as u16);
        r.register_port(p, 3);
        assert_eq!(r.shard_of(p), 3);
    }

    #[test]
    fn single_shard_skips_directory() {
        let mut r = Router::new(1);
        let p = Handle::from_raw(0x999);
        r.register_port(p, 0);
        assert_eq!(r.shard_of(p), 0);
        assert!(r.ports.is_empty());
    }

    #[test]
    fn unregister_forgets_ports() {
        let mut r = Router::new(4);
        let p = Handle::from_raw(0x40);
        r.register_port(p, 2);
        assert_eq!(r.shard_of(p), 2);
        r.unregister_port(p);
        // Back to the hash fallback, and the map holds nothing.
        assert_eq!(r.shard_of(p), 0);
        assert!(r.ports.is_empty());
    }

    fn test_qm(tag: u64) -> QueuedMessage {
        use crate::value::Value;
        use asbestos_labels::Label;
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
        let mut r = Router::new(2);
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
        let mut r = Router::new(1);
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
        let mut r = Router::new(2);
        assert_eq!(r.env_get("x"), None);
        r.env_set("x", Value::U64(9));
        assert_eq!(r.env_get("x"), Some(Value::U64(9)));
    }
}
