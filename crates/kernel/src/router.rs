//! Cross-shard routing state.
//!
//! A sharded kernel partitions all process, port, and queue state across
//! [`crate::shard::KernelShard`]s; the [`Router`] is the only state shared
//! between them. It holds exactly two read-mostly maps:
//!
//! * the **port directory** — which shard owns each port handle: written
//!   once at `new_port`, erased at dissociation or owner exit, never
//!   rewritten (a port lives on the shard that created it), and read on
//!   every send that does not resolve locally;
//! * the **global environment** — the §4 bootstrapping namespace, which
//!   was always whole-kernel state.
//!
//! Everything else a delivery touches (labels, mailboxes, frames) is
//! shard-private: a shard only consults the directory for ports it does
//! not own, and messages crossing shards travel through the per-shard
//! inbound channels of the [`InboxSet`] below — pushed by the *sending*
//! shard the moment the send resolves, drained by the *receiving* shard
//! at deterministic points in its own schedule (sub-round routing; see
//! `kernel.rs` for the run loop).
//!
//! Determinism: the run loop drains one shard at a time on the calling
//! thread, so every read and write of these maps — the environment
//! included — happens at a point fixed by the kernel's event history.
//! A directory entry never changes while its port is live, so a message
//! in flight cannot dangle toward a shard that no longer owns its port.
//! The locks and atomics below exist so that every shard can hold the
//! same `&Router` / `Arc<InboxSet>` and the kernel stays `Send`; they are
//! never contended. Single-shard kernels skip the directory and the
//! channels altogether.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

use asbestos_labels::Handle;

use crate::message::{QueuedMessage, RemoteSend};
use crate::value::Value;

/// Shared cross-shard state: the port directory and the global
/// environment. See the module docs for the determinism contract.
pub(crate) struct Router {
    num_shards: u16,
    /// Port handle → owning shard. Only populated when `num_shards > 1`;
    /// a single-shard kernel resolves everything locally.
    ports: RwLock<HashMap<Handle, u16>>,
    /// The §4 global environment (init/launcher bootstrap namespace).
    env: RwLock<BTreeMap<String, Value>>,
    /// Port handle → remote *kernel* id (federation; see
    /// `crates/cluster`). Written only by the gateway between runs;
    /// empty on every non-federated kernel.
    remote_ports: RwLock<HashMap<Handle, u16>>,
    /// Fast-path guard for the remote directory: sends only take the
    /// `remote_ports` read lock once a gateway has registered something,
    /// so non-federated kernels pay one relaxed atomic load — and the
    /// pre-federation goldens are untouched.
    has_remote: AtomicBool,
    /// Outbound cross-kernel messages, parked until the gateway drains
    /// them ([`crate::Kernel::take_remote_egress`]).
    egress: Mutex<Vec<RemoteSend>>,
}

impl Router {
    pub fn new(num_shards: usize) -> Router {
        Router {
            num_shards: num_shards as u16,
            ports: RwLock::new(HashMap::new()),
            env: RwLock::new(BTreeMap::new()),
            remote_ports: RwLock::new(HashMap::new()),
            has_remote: AtomicBool::new(false),
            egress: Mutex::new(Vec::new()),
        }
    }

    /// Records that `port` is owned by `shard`, for the port's whole
    /// life: placement happens once. Single-shard kernels skip the
    /// directory entirely (everything is local).
    pub fn register_port(&self, port: Handle, shard: u16) {
        if self.num_shards > 1 {
            let prev = self
                .ports
                .write()
                .expect("port directory lock")
                .insert(port, shard);
            debug_assert!(
                prev.is_none_or(|p| p == shard),
                "port {port:?} is placed once: already on shard {prev:?}, re-registered to {shard}"
            );
        }
    }

    /// Forgets a port that lost its receive rights (dissociation, owner
    /// exit). Keeps the directory bounded by *live* ports; a racing or
    /// stale send falls back to the hash shard and drops `NoSuchPort`,
    /// the same outcome the owning shard's dissociated vnode produces.
    pub fn unregister_port(&self, port: Handle) {
        if self.num_shards > 1 {
            self.ports
                .write()
                .expect("port directory lock")
                .remove(&port);
        }
    }

    /// The shard a message to `port` must be evaluated on.
    ///
    /// Unknown handles (plain compartments, bogus values) fall back to a
    /// deterministic hash of the handle value; the chosen shard finds no
    /// vnode and records the `NoSuchPort` drop, exactly as a single-shard
    /// kernel would.
    pub fn shard_of(&self, port: Handle) -> u16 {
        if self.num_shards == 1 {
            return 0;
        }
        if let Some(&shard) = self.ports.read().expect("port directory lock").get(&port) {
            return shard;
        }
        (port.raw() % self.num_shards as u64) as u16
    }

    /// Records that `port` lives on another kernel (federation). The
    /// gateway only registers ports that are *not* local, so the local
    /// vnode check in `send_from` stays authoritative.
    pub fn register_remote_port(&self, port: Handle, kernel: u16) {
        self.remote_ports
            .write()
            .expect("remote directory lock")
            .insert(port, kernel);
        self.has_remote.store(true, Ordering::Release);
    }

    /// Forgets a remote port (the owning kernel unregistered it). Later
    /// sends fall through to the hash shard and drop `NoSuchPort`, the
    /// same outcome a dissociated local port produces.
    pub fn unregister_remote_port(&self, port: Handle) {
        self.remote_ports
            .write()
            .expect("remote directory lock")
            .remove(&port);
    }

    /// The kernel owning `port`, when it is a registered remote port.
    /// One relaxed atomic load on every non-federated kernel.
    pub fn remote_kernel_of(&self, port: Handle) -> Option<u16> {
        if !self.has_remote.load(Ordering::Acquire) {
            return None;
        }
        self.remote_ports
            .read()
            .expect("remote directory lock")
            .get(&port)
            .copied()
    }

    /// Parks one outbound cross-kernel message for the gateway.
    pub fn push_egress(&self, rs: RemoteSend) {
        self.egress.lock().expect("egress lock").push(rs);
    }

    /// Drains every parked outbound cross-kernel message, in send order.
    pub fn take_egress(&self) -> Vec<RemoteSend> {
        std::mem::take(&mut *self.egress.lock().expect("egress lock"))
    }

    /// Snapshot of the whole global environment, in key order (the
    /// gateway diffs this against its mirror to sync env across kernels).
    pub fn env_snapshot(&self) -> Vec<(String, Value)> {
        self.env
            .read()
            .expect("env lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Reads a global environment entry.
    pub fn env_get(&self, key: &str) -> Option<Value> {
        self.env.read().expect("env lock").get(key).cloned()
    }

    /// Writes a global environment entry.
    pub fn env_set(&self, key: &str, value: Value) {
        self.env
            .write()
            .expect("env lock")
            .insert(key.to_string(), value);
    }
}

// ---------------------------------------------------------------------
// Sub-round cross-shard channels.
// ---------------------------------------------------------------------

/// Where a shard stood in its schedule when it pulled inbound messages —
/// only the observability counters care (see [`crate::Stats`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum PullPoint {
    /// Pulled by the coordinator outside a drain: at the start of
    /// `run()` or before a `step()`.
    Barrier,
    /// Pulled by the shard itself while draining (sub-round routing).
    Subround,
}

/// One shard's inbound cross-shard channel.
struct Inbox {
    /// Mirror of `queue.len()`, readable without the lock: the empty
    /// check on a receiving shard's hot path must cost one atomic load.
    len: AtomicUsize,
    queue: Mutex<Vec<QueuedMessage>>,
}

/// The cross-shard channels: one inbound queue per shard, shared by
/// every shard (and the coordinator) through one `Arc`.
///
/// A sending shard pushes a cross-shard message here the moment its send
/// resolves — mid-drain — and the receiving shard drains its own queue at
/// deterministic points of its delivery loop. Per-sender-per-port FIFO
/// survives: pushes into one queue happen in send order, and the
/// receiving shard enqueues a drained batch in arrival order into its
/// per-port FIFO mailboxes.
pub(crate) struct InboxSet {
    inboxes: Box<[Inbox]>,
}

impl InboxSet {
    pub fn new(num_shards: usize) -> InboxSet {
        InboxSet {
            inboxes: (0..num_shards)
                .map(|_| Inbox {
                    len: AtomicUsize::new(0),
                    queue: Mutex::new(Vec::new()),
                })
                .collect(),
        }
    }

    /// Cross-shard messages pushed but not yet pulled, kernel-wide.
    pub fn pending(&self) -> usize {
        self.inboxes
            .iter()
            .map(|inbox| inbox.len.load(Ordering::Acquire))
            .sum()
    }

    /// Pending inbound messages for one shard.
    pub fn len(&self, shard: usize) -> usize {
        self.inboxes[shard].len.load(Ordering::Acquire)
    }

    /// Pushes one message onto `dest`'s inbound queue. Returns `false`
    /// (and enqueues nothing) when the queue already holds `limit`
    /// messages — the §8 backstop bounding in-flight cross-shard memory.
    /// The destination's own queue bounds are enforced by
    /// [`crate::shard::KernelShard::enqueue_checked`] when the batch is
    /// drained.
    pub fn push(&self, dest: usize, qm: QueuedMessage, limit: usize) -> bool {
        let inbox = &self.inboxes[dest];
        if inbox.len.load(Ordering::Acquire) >= limit {
            return false;
        }
        let mut queue = inbox.queue.lock().expect("inbox lock");
        queue.push(qm);
        inbox.len.store(queue.len(), Ordering::Release);
        true
    }

    /// Swap-drains every message queued for `shard`, in arrival order,
    /// into `buf` (which must arrive empty). The whole batch moves with
    /// one lock acquisition and one atomic store, however many messages
    /// it holds; the no-mail fast path is one atomic load, no lock.
    ///
    /// Allocation reuse: the queue keeps `buf`'s old backing storage and
    /// the caller gets the queue's, so the two buffers ping-pong between
    /// sender and receiver. Once both have grown to the workload's
    /// high-water batch size, steady state allocates nothing — the
    /// property `inbox_take_reuses_allocations` pins.
    pub fn take_into(&self, shard: usize, buf: &mut Vec<QueuedMessage>) -> usize {
        debug_assert!(buf.is_empty(), "drain buffer must arrive empty");
        let inbox = &self.inboxes[shard];
        if inbox.len.load(Ordering::Acquire) == 0 {
            return 0;
        }
        let mut queue = inbox.queue.lock().expect("inbox lock");
        std::mem::swap(&mut *queue, buf);
        inbox.len.store(0, Ordering::Release);
        buf.len()
    }

    /// Spare capacity currently parked in `shard`'s queue (the swap
    /// partner of the receiving shard's drain buffer; observability for
    /// the no-realloc pin).
    #[cfg(test)]
    pub fn queue_capacity(&self, shard: usize) -> usize {
        self.inboxes[shard]
            .queue
            .lock()
            .expect("inbox lock")
            .capacity()
    }

    /// Visits every queued message without draining (god-mode accounting:
    /// `queue_len`, `queued_from`, `KmemReport`).
    pub fn for_each_queued<F: FnMut(&QueuedMessage)>(&self, shard: usize, mut f: F) {
        for qm in self.inboxes[shard].queue.lock().expect("inbox lock").iter() {
            f(qm);
        }
    }

    /// Structural bookkeeping bytes (queue headers and spare capacity;
    /// the queued messages themselves are billed as queue bytes).
    pub fn bookkeeping_bytes(&self) -> usize {
        self.inboxes
            .iter()
            .map(|inbox| {
                std::mem::size_of::<Inbox>()
                    + inbox.queue.lock().expect("inbox lock").capacity()
                        * std::mem::size_of::<QueuedMessage>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_and_fallback() {
        let r = Router::new(4);
        let p = Handle::from_raw(0x123);
        // Unknown: deterministic hash fallback.
        assert_eq!(r.shard_of(p), (0x123 % 4) as u16);
        r.register_port(p, 3);
        assert_eq!(r.shard_of(p), 3);
    }

    #[test]
    fn single_shard_skips_directory() {
        let r = Router::new(1);
        let p = Handle::from_raw(0x999);
        r.register_port(p, 0);
        assert_eq!(r.shard_of(p), 0);
        assert!(r.ports.read().unwrap().is_empty());
    }

    #[test]
    fn unregister_forgets_ports() {
        let r = Router::new(4);
        let p = Handle::from_raw(0x40);
        r.register_port(p, 2);
        assert_eq!(r.shard_of(p), 2);
        r.unregister_port(p);
        // Back to the hash fallback, and the map holds nothing.
        assert_eq!(r.shard_of(p), 0);
        assert!(r.ports.read().unwrap().is_empty());
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
        let set = InboxSet::new(2);
        assert_eq!(set.pending(), 0);
        assert!(set.push(1, test_qm(1), 8));
        assert!(set.push(1, test_qm(2), 8));
        assert_eq!((set.pending(), set.len(1), set.len(0)), (2, 2, 0));
        assert!(!set.push(1, test_qm(3), 2), "inbox at its limit rejects");
        let mut batch = Vec::new();
        assert_eq!(set.take_into(1, &mut batch), 2);
        let tags: Vec<u64> = batch.iter().map(|m| m.body.as_u64().unwrap()).collect();
        assert_eq!(tags, vec![1, 2], "arrival order preserved");
        assert_eq!(set.pending(), 0);
        batch.clear();
        assert_eq!(set.take_into(1, &mut batch), 0, "fast path on empty inbox");
        assert!(set.bookkeeping_bytes() > 0);
    }

    #[test]
    fn inbox_take_reuses_allocations() {
        // Warm up: grow both swap partners to the batch high-water mark.
        let set = InboxSet::new(1);
        let mut buf = Vec::new();
        for _ in 0..3 {
            for tag in 0..16 {
                assert!(set.push(0, test_qm(tag), usize::MAX));
            }
            set.take_into(0, &mut buf);
            buf.clear();
        }
        // Steady state: the no-realloc pin. Capacities may only ping-pong
        // between the inbox queue and the drain buffer — a fresh
        // allocation on any drain is the regression this test exists to
        // catch.
        let mut caps = [buf.capacity(), set.queue_capacity(0)];
        caps.sort_unstable();
        for _ in 0..8 {
            for tag in 0..16 {
                assert!(set.push(0, test_qm(tag), usize::MAX));
            }
            assert_eq!(set.take_into(0, &mut buf), 16);
            buf.clear();
            let mut now = [buf.capacity(), set.queue_capacity(0)];
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
        let r = Router::new(2);
        assert_eq!(r.env_get("x"), None);
        r.env_set("x", Value::U64(9));
        assert_eq!(r.env_get("x"), Some(Value::U64(9)));
    }
}
