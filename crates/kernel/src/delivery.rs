//! Delivery: per-port mailboxes, the Figure 4 evaluation, and the loop
//! that drains them.
//!
//! All delivery policy lives in this one place:
//!
//! * `Mailboxes` — the queued-message store, one FIFO per destination
//!   port, drained by a deterministic round-robin scheduler, so two
//!   ports' traffic shares no queue state.
//! * [`Kernel::step_outcome`] — one scheduler step: pop a message, run
//!   Figure 4, and invoke the receiver. Its [`DeliveryOutcome`] is where
//!   the per-step `Stats` bookkeeping happens, once, instead of at every
//!   drop site.
//! * The drain loop behind [`Kernel::run`], which repeats that step until
//!   the mailboxes are empty.
//!
//! Figure 4 is evaluated on every delivery. §5.6 is what makes that
//! cheap: the label operations run in O(chunks touched), and an effect
//! that changes nothing hands back the `Arc` the receiver already holds.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use asbestos_labels::{ops, Handle, HandleMap, Label};

use crate::cycles::Category;
use crate::handle_table::PortOwner;
use crate::ids::ExecCtx;
use crate::kernel::Kernel;
use crate::message::{Message, QueuedMessage};
use crate::process::Body;
use crate::stats::DropReason;

/// What one call to [`Kernel::step_outcome`] did.
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
///
/// The per-port queues sit in a [`HandleMap`], hashed by port handle. The
/// delivery order is the `rotation` queue's alone; the map is read by key,
/// and [`Mailboxes::iter`] feeds only order-free sums and counts, so no
/// iteration order of the hash table is observable.
///
/// A port's queue leaves the store when it empties and goes to a spare
/// list, and the next port to activate takes it, so a steady load reuses
/// its queues instead of allocating one per activation. Only a queue
/// still at the size its first message gave it is kept; one that grew is
/// freed. So the spare list holds at most the peak number of active
/// ports, each queue at that one size, and never keeps a deep queue's
/// memory for a shallow one.
#[derive(Default)]
pub(crate) struct Mailboxes {
    boxes: HandleMap<VecDeque<QueuedMessage>>,
    /// Emptied queues, for the next ports to activate.
    spare: Vec<VecDeque<QueuedMessage>>,
    /// The capacity a fresh queue takes for its first message.
    first_capacity: usize,
    /// Ports with pending messages, in rotation order.
    rotation: VecDeque<Handle>,
    /// Total pending messages across all ports.
    len: usize,
    /// Deepest the store has ever been (messages pending at once).
    /// Tracked unconditionally — one compare per push.
    depth_hwm: usize,
}

impl Mailboxes {
    /// Appends a message to its destination port's mailbox.
    pub fn push(&mut self, qm: QueuedMessage) {
        let spare = &mut self.spare;
        let mailbox = self.boxes.entry(qm.port).or_insert_with(|| {
            self.rotation.push_back(qm.port);
            spare.pop().unwrap_or_default()
        });
        mailbox.push_back(qm);
        if self.first_capacity == 0 {
            // The first message ever queued went to a fresh queue.
            self.first_capacity = mailbox.capacity();
        }
        self.len += 1;
        if self.len > self.depth_hwm {
            self.depth_hwm = self.len;
        }
    }

    /// Takes the next message in round-robin order.
    pub fn pop_next(&mut self) -> Option<QueuedMessage> {
        let port = self.rotation.pop_front()?;
        // One hash of the port, whether its mailbox stays or leaves.
        let Entry::Occupied(mut mailbox) = self.boxes.entry(port) else {
            unreachable!("rotation only holds ports with mailboxes");
        };
        let qm = mailbox
            .get_mut()
            .pop_front()
            .expect("rotation only holds non-empty mailboxes");
        if mailbox.get().is_empty() {
            let emptied = mailbox.remove();
            if emptied.capacity() <= self.first_capacity {
                self.spare.push(emptied);
            }
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

    /// Pending messages for one destination port (the per-port queue
    /// bound checks this).
    pub fn port_len(&self, port: Handle) -> usize {
        self.boxes.get(&port).map_or(0, VecDeque::len)
    }

    /// Iterates all pending messages in no fixed order (accounting and
    /// god-mode stats, which only sum or count them).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedMessage> {
        self.boxes.values().flatten()
    }

    /// Deepest this mailbox set has ever been.
    pub fn depth_hwm(&self) -> usize {
        self.depth_hwm
    }
}

// ---------------------------------------------------------------------
// The delivery loop.
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

impl Kernel {
    /// Attempts one message delivery and reports what happened.
    ///
    /// All per-step `Stats` bookkeeping lives here: drop reasons and the
    /// delivered counter are recorded in one place, so the delivery logic
    /// below returns outcomes instead of mutating counters at every exit
    /// point.
    pub fn step_outcome(&mut self) -> DeliveryOutcome {
        let Some(qm) = self.mailboxes.pop_next() else {
            return DeliveryOutcome::Idle;
        };
        self.clock.charge(Category::KernelIpc, self.cost.recv_base);
        let outcome = self.deliver(qm);
        match outcome {
            DeliveryOutcome::Dropped(reason) => self.stats.record_drop(reason),
            DeliveryOutcome::Delivered => self.stats.delivered += 1,
            DeliveryOutcome::Idle => unreachable!("a message was popped"),
        }
        outcome
    }

    /// Delivers until the mailboxes are empty or `budget` steps have
    /// run, and returns the steps; mailboxes left non-empty mean the
    /// budget ran out first. Sends issued by handlers keep the drain
    /// going.
    ///
    /// The time the loop runs is accumulated into `busy_nanos` (see the
    /// field docs).
    pub(crate) fn drain(&mut self, budget: u64) -> u64 {
        let start = std::time::Instant::now();
        let mut steps = 0;
        while self.mailboxes.len() > 0 && steps < budget {
            self.step_outcome();
            steps += 1;
        }
        self.busy_nanos += start.elapsed().as_nanos() as u64;
        steps
    }

    /// Evaluates Figure 4 for one popped message and, if it passes,
    /// invokes the receiver.
    fn deliver(&mut self, qm: QueuedMessage) -> DeliveryOutcome {
        // Resolve the destination port: this kernel's lane minted it, so
        // its port state, if any, is one this kernel's processes own.
        let Some(port_state) = self.handles.port(qm.port) else {
            return DeliveryOutcome::Dropped(DropReason::NoSuchPort);
        };

        // Resolve the receiving context; the labels checked are the event
        // process's when one owns the port, otherwise the base process's
        // (which are also what a freshly forked event process would start
        // with, so checking base labels is exact for the to-be-created EP).
        let (pid, ep) = match port_state.owner {
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
        let (qs, qr) = ExecCtx { pid, ep }.labels(&self.processes, &self.eps);
        let pr = &port_state.label;

        // Charge the label checks: linear in the entries examined (§5.6).
        let work = ops::op_work(&[&qm.es, qr, &qm.dr, &qm.v, pr]) + 1;
        self.clock
            .charge(Category::KernelIpc, work as u64 * self.cost.label_entry);

        if !ops::check_decont_within_port(&qm.dr, pr) {
            // Figure 4 requirement (4): D_R ⊑ p_R.
            return DeliveryOutcome::Dropped(DropReason::PortLabelDecont);
        }
        if !ops::check_delivery(&qm.es, qr, &qm.dr, &qm.v, pr) {
            // Figure 4 requirement (1): E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R.
            return DeliveryOutcome::Dropped(DropReason::LabelCheck);
        }
        // Figure 4 effects; an effect that changes nothing keeps the `Arc`
        // the receiver already holds.
        let new_qs = keep_or_wrap(qs, ops::apply_receive_contamination(qs, &qm.ds, &qm.es));
        let new_qr = keep_or_wrap(qr, ops::apply_receive_decontamination(qr, &qm.dr));
        let effect_work = ops::op_work(&[qs, &qm.ds, &qm.es, &qm.dr]) + 1;
        self.clock.charge(
            Category::KernelIpc,
            effect_work as u64 * self.cost.label_entry,
        );

        // The message will be delivered. Fork an event process if the
        // destination is a base-owned port of an event-mode process (§6.1).
        let (ep, is_new_ep) = match ep {
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
        let (qs, qr, _) = ctx.state_mut(&mut self.processes, &mut self.eps);
        *qs = new_qs;
        *qr = new_qr;

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
        self.activate(ctx, is_new_ep, |body, sys| match body {
            Body::Plain(s) => s.on_message(sys, &msg),
            Body::Event(s) => s.on_event(sys, &msg),
        });
        DeliveryOutcome::Delivered
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::value::Value;

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

    /// The hashed mailboxes against the `BTreeMap` model, over random
    /// push/pop sequences: every pop, the total, every port's length, and
    /// the pending messages [`Mailboxes::iter`] yields, compared as a
    /// multiset because its order is the hash table's and means nothing.
    #[test]
    fn mailboxes_match_a_btreemap_model() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        let mut rng = TestRng::deterministic(concat!(module_path!(), "::model"));
        let plans = proptest::collection::vec((0u64..12, 0usize..3), 1..200);
        for _case in 0..128 {
            let mut m = Mailboxes::default();
            let mut model = RotationModel::default();
            for (tag, (port, pops)) in plans.generate(&mut rng).into_iter().enumerate() {
                m.push(qm(port, tag as u64));
                model.push(port, tag as u64);
                for _ in 0..pops {
                    let got = m
                        .pop_next()
                        .map(|q| (q.port.raw(), q.body.as_u64().unwrap()));
                    assert_eq!(got, model.pop());
                }
                let mut pending: Vec<(u64, u64)> = m
                    .iter()
                    .map(|q| (q.port.raw(), q.body.as_u64().unwrap()))
                    .collect();
                pending.sort_unstable();
                let mut want: Vec<(u64, u64)> = model
                    .queues
                    .iter()
                    .flat_map(|(&p, q)| q.iter().map(move |&t| (p, t)))
                    .collect();
                want.sort_unstable();
                assert_eq!(m.len(), want.len());
                assert_eq!(pending, want);
                for p in 0..12 {
                    let len = model.queues.get(&p).map_or(0, VecDeque::len);
                    assert_eq!(m.port_len(Handle::from_raw(p)), len, "port {p}");
                }
            }
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
}
