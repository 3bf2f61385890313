//! The delivery engine: per-port mailboxes, the Figure 4 evaluation, and
//! the fingerprint-keyed delivery-decision cache.
//!
//! Split out of `kernel.rs` so all delivery policy lives in one place:
//!
//! * [`Mailboxes`] — the queued-message store, one FIFO per destination
//!   port, drained by a deterministic round-robin scheduler. Per-port
//!   queues are the structural prerequisite for sharding the delivery
//!   engine: two ports' traffic shares no queue state.
//! * [`DeliveryCache`] — memoizes full Figure 4 evaluations keyed on
//!   [`ops::DeliveryKey`] (the structural fingerprints of all seven labels
//!   a delivery reads). A hit replays both the decision *and* the effect
//!   labels in O(1), without cloning a single label — effect labels are
//!   stored and installed as `Arc<Label>`.
//! * [`DeliveryOutcome`] — what one scheduler step did; the per-step
//!   `Stats` bookkeeping happens in exactly one place
//!   ([`KernelShard::step_outcome`]) instead of at every drop site.
//!
//! Since the kernel was sharded, the engine below runs *per shard*: each
//! [`KernelShard`] drains its own mailboxes against its own processes,
//! ports, cache, and clock, so N shards run N of these loops on parallel
//! pool workers without sharing mutable delivery state. Cross-shard
//! sends are pushed straight into the destination shard's inbound
//! channel and pulled at deterministic points of its drain loop —
//! sub-round routing (see `router.rs` and `kernel.rs`).
//!
//! The cache is semantically invisible: fingerprints identify label
//! *contents*, so label mutation anywhere simply produces different keys —
//! there is nothing to invalidate, and a covert-channel regression test
//! pins that cached and uncached runs drop exactly the same messages.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use asbestos_labels::{ops, ops::DeliveryKey, Handle, Label};

use crate::cycles::Category;
use crate::handle_table::PortOwner;
use crate::ids::ExecCtx;
use crate::message::{Message, QueuedMessage};
use crate::router::{PullPoint, Router};
use crate::shard::KernelShard;
use crate::stats::DropReason;

/// Default bound on cached delivery decisions.
pub const DEFAULT_DELIVERY_CACHE_CAP: usize = 1 << 16;

/// Parses a per-shard cache bound from an `ASBESTOS_CACHE_CAP`-style
/// value; anything unset or unparsable falls back to the compiled-in
/// default. `0` is legal and disables caching entirely.
pub(crate) fn cache_cap_from(value: Option<&str>) -> usize {
    crate::knobs::parse_count(value).unwrap_or(DEFAULT_DELIVERY_CACHE_CAP)
}

/// The per-shard delivery-cache bound newly-built kernels start with:
/// `ASBESTOS_CACHE_CAP` when set (operator knob for per-shard cache
/// sizing experiments), else [`DEFAULT_DELIVERY_CACHE_CAP`]. Note the
/// golden-trace suites pin cache counters under the default, so CI sets
/// this only for jobs that do not compare against golden stats.
pub(crate) fn default_cache_cap() -> usize {
    cache_cap_from(crate::knobs::raw(crate::knobs::CACHE_CAP_ENV).as_deref())
}

/// What one call to [`crate::Kernel::step_outcome`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// No message was pending; the system is idle.
    Idle,
    /// A message was popped and silently dropped.
    Dropped(DropReason),
    /// A message was delivered and its handler ran.
    Delivered,
}

// ---------------------------------------------------------------------
// Per-port mailboxes.
// ---------------------------------------------------------------------

/// Queued, undelivered messages: one FIFO per destination port, drained
/// round-robin in port-activation order.
///
/// Scheduling is deterministic: ports enter the rotation when their first
/// message arrives, each scheduler step takes one message from the front
/// port, and a port with messages left re-enters at the back of the
/// rotation. Messages to one port always deliver in send order.
#[derive(Default)]
pub(crate) struct Mailboxes {
    boxes: BTreeMap<Handle, VecDeque<QueuedMessage>>,
    /// Ports with pending messages, in rotation order.
    rotation: VecDeque<Handle>,
    /// Total pending messages across all ports.
    len: usize,
    /// When set, `push` maintains the per-port arrival counters the
    /// tuner's hot-port detection reads. Off by default so the golden
    /// single-shard traces never see the bookkeeping.
    track_load: bool,
    /// Deepest the store has ever been (messages pending at once).
    /// Tracked unconditionally — one compare per push.
    depth_hwm: usize,
    /// Messages pushed per destination port since the last
    /// [`Mailboxes::take_port_arrivals`]. Only fed when `track_load`.
    port_arrivals: BTreeMap<Handle, u64>,
}

impl Mailboxes {
    /// Appends a message to its destination port's mailbox.
    pub fn push(&mut self, qm: QueuedMessage) {
        if self.track_load {
            *self.port_arrivals.entry(qm.port).or_insert(0) += 1;
        }
        let mailbox = self.boxes.entry(qm.port).or_default();
        if mailbox.is_empty() {
            self.rotation.push_back(qm.port);
        }
        mailbox.push_back(qm);
        self.len += 1;
        if self.len > self.depth_hwm {
            self.depth_hwm = self.len;
        }
    }

    /// Takes the next message in round-robin order.
    pub fn pop_next(&mut self) -> Option<QueuedMessage> {
        let port = self.rotation.pop_front()?;
        let mailbox = self
            .boxes
            .get_mut(&port)
            .expect("rotation only holds ports with mailboxes");
        let qm = mailbox
            .pop_front()
            .expect("rotation only holds non-empty mailboxes");
        if mailbox.is_empty() {
            self.boxes.remove(&port);
        } else {
            self.rotation.push_back(port);
        }
        self.len -= 1;
        Some(qm)
    }

    /// Total pending messages.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Pending messages for one destination port (the per-port
    /// backpressure bound checks this).
    pub fn port_len(&self, port: Handle) -> usize {
        self.boxes.get(&port).map_or(0, VecDeque::len)
    }

    /// Iterates all pending messages (accounting and god-mode stats; no
    /// delivery-order meaning).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedMessage> {
        self.boxes.values().flatten()
    }

    /// Removes a port's entire pending queue (and its rotation slot) in
    /// one piece. Work stealing moves whole per-port queues — never
    /// individual messages — so the per-sender-per-port FIFO order is
    /// preserved verbatim by construction.
    pub fn take_port_queue(&mut self, port: Handle) -> VecDeque<QueuedMessage> {
        let Some(queue) = self.boxes.remove(&port) else {
            return VecDeque::new();
        };
        self.rotation.retain(|&p| p != port);
        self.len -= queue.len();
        queue
    }

    /// Adopts a whole queue for `port`, appending after anything already
    /// pending there (in-flight messages routed before a migration land
    /// first; the stolen backlog keeps its internal order).
    pub fn push_queue(&mut self, port: Handle, queue: VecDeque<QueuedMessage>) {
        if queue.is_empty() {
            return;
        }
        if self.track_load {
            *self.port_arrivals.entry(port).or_insert(0) += queue.len() as u64;
        }
        let mailbox = self.boxes.entry(port).or_default();
        if mailbox.is_empty() {
            self.rotation.push_back(port);
        }
        self.len += queue.len();
        mailbox.extend(queue);
        if self.len > self.depth_hwm {
            self.depth_hwm = self.len;
        }
    }

    /// Enables or disables per-port arrival counting (tuner signal).
    pub fn set_track_load(&mut self, on: bool) {
        self.track_load = on;
        if !on {
            self.port_arrivals.clear();
        }
    }

    /// Deepest this mailbox set has ever been.
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm
    }

    /// Drains the per-port arrival counters accumulated since the last
    /// call (the tuner reads one observation window at a time).
    pub fn take_port_arrivals(&mut self) -> BTreeMap<Handle, u64> {
        std::mem::take(&mut self.port_arrivals)
    }
}

// ---------------------------------------------------------------------
// The delivery-decision cache.
// ---------------------------------------------------------------------

/// A memoized Figure 4 evaluation.
#[derive(Clone)]
enum CachedOutcome {
    /// The delivery checks failed with this reason.
    Drop(DropReason),
    /// The checks passed; these are the Figure 4 effect labels.
    Deliver {
        /// `Q_S ← (Q_S ⊓ D_S) ⊔ (E_S ⊓ Q_S⋆)`.
        new_qs: Arc<Label>,
        /// `Q_R ← Q_R ⊔ D_R`.
        new_qr: Arc<Label>,
    },
}

/// Bounded memoization of delivery decisions and effects, keyed on the
/// structural fingerprints of the seven labels one delivery reads.
///
/// Eviction is FIFO over insertion order — deterministic and O(1), which
/// matters more here than LRU's hit rate: the workload this cache exists
/// for (OKWS-style repeated traffic) has a small working set of hot
/// tuples, and determinism is a simulator invariant.
pub(crate) struct DeliveryCache {
    map: HashMap<DeliveryKey, CachedOutcome>,
    /// Insertion order, for FIFO eviction.
    order: VecDeque<DeliveryKey>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DeliveryCache {
    pub fn new(capacity: usize) -> DeliveryCache {
        DeliveryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Changes the bound; shrinking evicts oldest entries immediately.
    /// Capacity 0 disables the cache entirely.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        while self.map.len() > self.capacity {
            self.evict_oldest();
        }
    }

    fn lookup(&mut self, key: &DeliveryKey) -> Option<CachedOutcome> {
        if self.capacity == 0 {
            return None;
        }
        match self.map.get(key) {
            Some(outcome) => {
                self.hits += 1;
                Some(outcome.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: DeliveryKey, outcome: CachedOutcome) {
        if self.capacity == 0 {
            return;
        }
        if let Entry::Vacant(slot) = self.map.entry(key) {
            slot.insert(outcome);
            self.order.push_back(key);
            if self.map.len() > self.capacity {
                self.evict_oldest();
            }
        }
    }

    fn evict_oldest(&mut self) {
        if let Some(oldest) = self.order.pop_front() {
            self.map.remove(&oldest);
            self.evictions += 1;
        }
    }

    /// Accounted bytes: map entries plus the retained effect labels.
    /// Shared `Arc<Label>`s are charged in full to the cache, matching how
    /// every other refcounted kernel structure is billed (see
    /// [`Label::heap_bytes`]).
    pub fn bytes(&self) -> usize {
        // Key (7×8) + order entry (7×8) + map slot overhead.
        const ENTRY_BYTES: usize = 56 + 56 + 16;
        self.map
            .values()
            .map(|outcome| match outcome {
                CachedOutcome::Drop(_) => ENTRY_BYTES,
                CachedOutcome::Deliver { new_qs, new_qr } => {
                    ENTRY_BYTES + new_qs.heap_bytes() + new_qr.heap_bytes()
                }
            })
            .sum()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Current bound, in cached decisions (0 = caching disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

// ---------------------------------------------------------------------
// The delivery engine.
// ---------------------------------------------------------------------

/// The `Arc` to install for a label operation's result: the one already
/// `held` when the operation handed that very label back (nothing changed,
/// nothing is allocated), a fresh one otherwise.
pub(crate) fn keep_or_wrap(held: &Arc<Label>, result: Cow<'_, Label>) -> Arc<Label> {
    match result {
        Cow::Borrowed(label) if std::ptr::eq(label, &**held) => Arc::clone(held),
        other => Arc::new(other.into_owned()),
    }
}

impl KernelShard {
    /// Attempts one message delivery and reports what happened.
    ///
    /// All per-step `Stats` bookkeeping lives here: drop reasons, the
    /// delivered counter, and the cache counters are recorded in one
    /// place, so the delivery logic below returns outcomes instead of
    /// mutating counters at every exit point.
    pub(crate) fn step_outcome(&mut self, router: &Router) -> DeliveryOutcome {
        let Some(qm) = self.mailboxes.pop_next() else {
            return DeliveryOutcome::Idle;
        };
        self.clock.charge(Category::KernelIpc, self.cost.recv_base);
        let outcome = self.deliver(router, qm);
        match outcome {
            DeliveryOutcome::Dropped(reason) => self.stats.record_drop(reason),
            DeliveryOutcome::Delivered => self.stats.delivered += 1,
            DeliveryOutcome::Idle => unreachable!("a message was popped"),
        }
        let (hits, misses, evictions) = self.delivery_cache.counters();
        self.stats.cache_hits = hits;
        self.stats.cache_misses = misses;
        self.stats.cache_evictions = evictions;
        outcome
    }

    /// Drains this shard until locally quiescent or until `budget` steps
    /// have run; returns `(steps, hit_budget)`. Local sends issued by
    /// handlers keep the drain going (exactly the monolithic engine's
    /// behavior); cross-shard sends are pushed straight into their
    /// destination's inbound channel, and whenever this shard's own
    /// mailboxes empty it pulls *its* inbound channel and keeps going —
    /// sub-round routing, which spares a cross-shard chain one full round
    /// of latency per hop. `entry_pull` classifies messages found on the
    /// first pull (they waited out a barrier when the pooled scheduler
    /// calls this; see [`crate::router::PullPoint`]).
    ///
    /// The time the loop runs is accumulated into `busy_nanos`: shards
    /// model parallel cores, and the busiest shard's real busy time is
    /// the wall-clock bound an adequately-cored host would observe.
    pub(crate) fn drain_round(
        &mut self,
        router: &Router,
        budget: u64,
        entry_pull: PullPoint,
    ) -> (u64, bool) {
        let start = std::time::Instant::now();
        let mut steps = 0;
        let mut pull = entry_pull;
        let hit_budget = loop {
            self.pull_inbound(pull);
            pull = PullPoint::Subround;
            // Re-admit parked retries while capacity lasts (a no-op
            // unless backpressure is armed and something is parked).
            self.flush_retries(router);
            if self.mailboxes.len() == 0 {
                break false;
            }
            while self.mailboxes.len() > 0 {
                if steps >= budget {
                    break;
                }
                self.step_outcome(router);
                steps += 1;
            }
            if steps >= budget && self.mailboxes.len() > 0 {
                break true;
            }
        };
        self.busy_nanos += start.elapsed().as_nanos() as u64;
        (steps, hit_budget)
    }

    /// Evaluates Figure 4 for one popped message and, if it passes,
    /// invokes the receiver.
    fn deliver(&mut self, router: &Router, qm: QueuedMessage) -> DeliveryOutcome {
        // Resolve the destination port.
        let Some(port_state) = self.handles.port(qm.port) else {
            return DeliveryOutcome::Dropped(DropReason::NoSuchPort);
        };
        let Some(owner) = port_state.owner else {
            return DeliveryOutcome::Dropped(DropReason::NoOwner);
        };

        // Resolve the receiving context; the labels checked are the event
        // process's when one owns the port, otherwise the base process's
        // (which are also what a freshly forked event process would start
        // with, so checking base labels is exact for the to-be-created EP).
        let (pid, existing_ep) = match owner {
            PortOwner::Process(pid) => {
                if !self.processes[pid.index()].alive {
                    return DeliveryOutcome::Dropped(DropReason::NoOwner);
                }
                (pid, None)
            }
            PortOwner::Ep(eid) => {
                let ep = &self.eps[eid.index()];
                if !ep.alive {
                    return DeliveryOutcome::Dropped(DropReason::NoOwner);
                }
                (ep.process, Some(eid))
            }
        };

        // Borrow (never clone) every label the evaluation reads.
        let (qs, qr): (&Arc<Label>, &Arc<Label>) = match existing_ep {
            Some(eid) => (
                &self.eps[eid.index()].send_label,
                &self.eps[eid.index()].recv_label,
            ),
            None => (
                &self.processes[pid.index()].send_label,
                &self.processes[pid.index()].recv_label,
            ),
        };
        let pr = &port_state.label;

        // The memoization key covers all seven labels: the checks read
        // (E_S, D_R, V, p_R, Q_R) and the effects additionally read
        // (D_S, Q_S). Building it is O(1) — fingerprints are cached in
        // the label headers.
        let key = DeliveryKey::new(&qm.es, &qm.ds, &qm.dr, &qm.v, pr, qs, qr);

        let cached = self.delivery_cache.lookup(&key);
        let outcome = match cached {
            Some(outcome) => {
                // O(1) replay: one lookup instead of a linear label walk.
                self.clock.charge(Category::KernelIpc, self.cost.cache_hit);
                outcome
            }
            None => {
                // Charge the label checks: linear in the entries examined
                // (§5.6).
                let work = ops::op_work(&[&qm.es, qr, &qm.dr, &qm.v, pr]) + 1;
                self.clock
                    .charge(Category::KernelIpc, work as u64 * self.cost.label_entry);

                let outcome = if !ops::check_decont_within_port(&qm.dr, pr) {
                    // Figure 4 requirement (4): D_R ⊑ p_R.
                    CachedOutcome::Drop(DropReason::PortLabelDecont)
                } else if !ops::check_delivery(&qm.es, qr, &qm.dr, &qm.v, pr) {
                    // Figure 4 requirement (1): E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R.
                    CachedOutcome::Drop(DropReason::LabelCheck)
                } else {
                    // Figure 4 effects; an effect that changes nothing keeps
                    // the `Arc` the receiver already holds.
                    let new_qs =
                        keep_or_wrap(qs, ops::apply_receive_contamination(qs, &qm.ds, &qm.es));
                    let new_qr = keep_or_wrap(qr, ops::apply_receive_decontamination(qr, &qm.dr));
                    let effect_work = ops::op_work(&[qs, &qm.ds, &qm.es, &qm.dr]) + 1;
                    self.clock.charge(
                        Category::KernelIpc,
                        effect_work as u64 * self.cost.label_entry,
                    );
                    CachedOutcome::Deliver { new_qs, new_qr }
                };
                self.delivery_cache.insert(key, outcome.clone());
                outcome
            }
        };

        let (new_qs, new_qr) = match outcome {
            CachedOutcome::Drop(reason) => return DeliveryOutcome::Dropped(reason),
            CachedOutcome::Deliver { new_qs, new_qr } => (new_qs, new_qr),
        };

        // The message will be delivered. Fork an event process if the
        // destination is a base-owned port of an event-mode process (§6.1).
        let (ep, is_new_ep) = match existing_ep {
            Some(eid) => (Some(eid), false),
            None if self.processes[pid.index()].ep_mode => (Some(self.create_ep(pid)), true),
            None => (None, false),
        };

        // Context-switch accounting (§6.2: scheduling cost of an event
        // process is little higher than a single process's).
        let ctx = ExecCtx { pid, ep };
        match self.last_ctx {
            Some(prev) if prev.pid != pid => {
                self.clock
                    .charge(Category::KernelIpc, self.cost.context_switch);
                self.stats.context_switches += 1;
            }
            Some(prev) if prev.ep != ep => {
                self.clock.charge(Category::KernelIpc, self.cost.ep_switch);
                self.stats.ep_switches += 1;
            }
            None => {
                self.clock
                    .charge(Category::KernelIpc, self.cost.context_switch);
                self.stats.context_switches += 1;
            }
            _ => {}
        }
        self.last_ctx = Some(ctx);

        // Install the Figure 4 effect labels: `Arc` bumps, never clones.
        match ep {
            Some(eid) => {
                let e = &mut self.eps[eid.index()];
                e.send_label = new_qs;
                e.recv_label = new_qr;
                e.activations += 1;
            }
            None => {
                let p = &mut self.processes[pid.index()];
                p.send_label = new_qs;
                p.recv_label = new_qr;
            }
        }

        // Payload copy cost.
        self.clock.charge(
            Category::KernelIpc,
            qm.body.size_bytes() as u64 * self.cost.msg_byte,
        );

        let msg = Message {
            port: qm.port,
            body: qm.body,
            verify: qm.v,
        };
        self.invoke(router, pid, ep, is_new_ep, &msg);
        DeliveryOutcome::Delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use asbestos_labels::Level;

    fn qm(port: u64, tag: u64) -> QueuedMessage {
        QueuedMessage {
            port: Handle::from_raw(port),
            body: Value::U64(tag),
            es: Arc::new(Label::bottom()),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            from: None,
        }
    }

    #[test]
    fn round_robin_interleaves_ports() {
        let mut m = Mailboxes::default();
        m.push(qm(1, 10));
        m.push(qm(1, 11));
        m.push(qm(2, 20));
        m.push(qm(1, 12));
        m.push(qm(3, 30));
        let order: Vec<(u64, Value)> = std::iter::from_fn(|| m.pop_next())
            .map(|q| (q.port.raw(), q.body))
            .collect();
        // Port 1 activates first, then 2, then 3; each pop rotates the
        // port to the back, and per-port FIFO order is preserved.
        assert_eq!(
            order,
            vec![
                (1, Value::U64(10)),
                (2, Value::U64(20)),
                (3, Value::U64(30)),
                (1, Value::U64(11)),
                (1, Value::U64(12)),
            ]
        );
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn mailbox_len_tracks_push_pop() {
        let mut m = Mailboxes::default();
        assert_eq!(m.len(), 0);
        m.push(qm(5, 0));
        m.push(qm(6, 1));
        assert_eq!(m.len(), 2);
        assert_eq!(m.iter().count(), 2);
        m.pop_next();
        assert_eq!(m.len(), 1);
        m.pop_next();
        assert!(m.pop_next().is_none());
    }

    /// A transparent reference model of the documented scheduling
    /// contract: one FIFO per port, ports enter the rotation on their
    /// first pending message, each pop serves the front port and rotates
    /// it to the back while it has messages left.
    #[derive(Default)]
    struct RotationModel {
        queues: BTreeMap<u64, VecDeque<u64>>,
        rotation: VecDeque<u64>,
    }

    impl RotationModel {
        fn push(&mut self, port: u64, tag: u64) {
            let q = self.queues.entry(port).or_default();
            if q.is_empty() {
                self.rotation.push_back(port);
            }
            q.push_back(tag);
        }

        fn pop(&mut self) -> Option<(u64, u64)> {
            let port = self.rotation.pop_front()?;
            let q = self.queues.get_mut(&port).unwrap();
            let tag = q.pop_front().unwrap();
            if !q.is_empty() {
                self.rotation.push_back(port);
            }
            Some((port, tag))
        }
    }

    /// Round-robin fairness, pinned as properties over random workloads:
    ///
    /// 1. **Model equivalence**: under arbitrary interleavings of pushes
    ///    and pops, every pop matches the documented rotation model.
    /// 2. **Per-port FIFO**: each port's messages pop in push order.
    /// 3. **Bounded waiting**: during a pure drain (no pushes racing in),
    ///    between consecutive pops of port `p` — a window where `p` is
    ///    continuously pending — every other port is popped at most once,
    ///    so no pending port ever waits more than one full rotation.
    #[test]
    fn round_robin_fairness_properties() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        let mut rng = TestRng::deterministic(concat!(module_path!(), "::fairness"));
        let ops = proptest::collection::vec((0u64..8, any::<bool>()), 1..200);
        for _case in 0..256 {
            let plan = ops.generate(&mut rng);
            let mut m = Mailboxes::default();
            let mut model = RotationModel::default();
            let mut pushed_per_port: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            let mut popped: Vec<(u64, u64)> = Vec::new();
            let check_pop = |m: &mut Mailboxes, model: &mut RotationModel| {
                let got = m
                    .pop_next()
                    .map(|q| (q.port.raw(), q.body.as_u64().unwrap()));
                assert_eq!(got, model.pop(), "pop deviates from the rotation model");
                got
            };
            for (tag, (port, pop_after)) in plan.into_iter().enumerate() {
                let tag = tag as u64;
                m.push(qm(port, tag));
                model.push(port, tag);
                pushed_per_port.entry(port).or_default().push(tag);
                if pop_after {
                    popped.extend(check_pop(&mut m, &mut model));
                }
            }
            // Pure drain phase: ports stay pending until their last pop.
            let mut drain: Vec<(u64, u64)> = Vec::new();
            while let Some(entry) = check_pop(&mut m, &mut model) {
                drain.push(entry);
            }
            popped.extend(drain.iter().copied());

            // (2) Per-port FIFO order is push order.
            let mut popped_per_port: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            for &(port, t) in &popped {
                popped_per_port.entry(port).or_default().push(t);
            }
            assert_eq!(popped_per_port, pushed_per_port, "per-port FIFO");

            // (3) Bounded waiting over the drain. Only windows between
            // *consecutive* pops of `p` count: after its final pop the
            // port is empty, so it is not waiting on anyone.
            for (i, &(p, _)) in drain.iter().enumerate() {
                if !drain[i + 1..].iter().any(|&(q, _)| q == p) {
                    continue;
                }
                let mut seen = std::collections::HashSet::new();
                for &(q, _) in drain.iter().skip(i + 1) {
                    if q == p {
                        break;
                    }
                    assert!(
                        seen.insert(q),
                        "port {q} served twice while {p} was waiting (window at pop {i})"
                    );
                }
            }
        }
    }

    #[test]
    fn cache_cap_parsing() {
        assert_eq!(cache_cap_from(None), DEFAULT_DELIVERY_CACHE_CAP);
        assert_eq!(
            cache_cap_from(Some("not-a-number")),
            DEFAULT_DELIVERY_CACHE_CAP
        );
        assert_eq!(cache_cap_from(Some("0")), 0, "0 disables the cache");
        assert_eq!(cache_cap_from(Some("4096")), 4096);
    }

    #[test]
    fn cache_bounds_and_counters() {
        let mut c = DeliveryCache::new(2);
        let key = |i: u64| {
            let l = Label::from_pairs(Level::L1, &[(Handle::from_raw(i), Level::L3)]);
            let b = Label::bottom();
            DeliveryKey::new(&l, &b, &b, &b, &b, &b, &b)
        };
        assert!(c.lookup(&key(1)).is_none());
        c.insert(key(1), CachedOutcome::Drop(DropReason::LabelCheck));
        c.insert(key(2), CachedOutcome::Drop(DropReason::LabelCheck));
        assert!(c.lookup(&key(1)).is_some());
        c.insert(key(3), CachedOutcome::Drop(DropReason::LabelCheck));
        // FIFO eviction dropped key(1).
        assert!(c.lookup(&key(1)).is_none());
        assert_eq!(c.len(), 2);
        let (hits, misses, evictions) = c.counters();
        assert_eq!((hits, misses, evictions), (1, 2, 1));
        assert!(c.bytes() > 0);
        c.set_capacity(0);
        assert_eq!(c.len(), 0);
        assert!(c.lookup(&key(2)).is_none());
        // Disabled cache records no further counter movement on lookup.
        assert_eq!(c.counters().1, 2);
    }
}
