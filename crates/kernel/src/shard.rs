//! One kernel shard: a self-contained slice of the kernel.
//!
//! A [`KernelShard`] owns every structure one delivery touches — the
//! processes and event processes scheduled on it, the vnode table for the
//! ports they own, the frame pool backing their memory, the per-port
//! mailboxes feeding its delivery loop, the cycle clock, and the
//! statistics counters. Shards share no mutable state: the only
//! cross-shard structures are the read-mostly
//! [`Router`](crate::router::Router) maps and the per-shard inbound
//! channels of the shared [`InboxSet`]. A cross-shard send pushes into
//! the *destination's* inbound channel the moment it resolves —
//! mid-drain — and each shard drains its own channel at deterministic
//! points of its delivery loop (sub-round routing). The run loop visits
//! shards one at a time on the calling thread; the isolation is what
//! lets a shard stand for one core in the virtual-clock model.
//!
//! Label evaluation always runs here, on the shard owning the destination
//! port, against the destination's own labels — Figure 4's semantics are
//! per-delivery and see exactly the same state they saw in the monolithic
//! engine, so sharding changes throughput, never policy.

use std::sync::Arc;

use asbestos_labels::{ops, Handle, Label};

use crate::backpressure::{Backpressure, SendVerdict};
use crate::cycles::{Category, CostModel, CycleClock};
use crate::delivery::{keep_or_wrap, Mailboxes};
use crate::event_process::EventProcess;
use crate::handle_table::{HandleTable, PortOwner};
use crate::ids::{EpId, ExecCtx, ProcessId};
use crate::kernel::{KmemReport, DEFAULT_QUEUE_LIMIT};
use crate::memory::{FramePool, PAGE_SIZE};
use crate::message::{Message, QueuedMessage, SendArgs};
use crate::process::{Body, EpService, Process, Service};
use crate::router::{InboxSet, PullPoint, Router};
use crate::stats::{DropReason, Stats};
use crate::sys::Sys;
use crate::value::Value;

/// Default bound on queued messages per destination port. Like the
/// shard-wide bound it defaults high enough never to fire; deployments
/// lower it so one hot port cannot monopolize the whole queue budget
/// (§8's resource-exhaustion caveat, applied per port).
pub const DEFAULT_PORT_QUEUE_LIMIT: usize = DEFAULT_QUEUE_LIMIT;

/// Environment variable overriding the per-port queue bound.
pub use crate::knobs::PORT_QUEUE_ENV;

/// Parses a per-port queue bound from an env-var value. Unset,
/// unparsable, or zero (a port that could never accept a message) fall
/// back to [`DEFAULT_PORT_QUEUE_LIMIT`].
pub(crate) fn port_queue_limit_from(value: Option<&str>) -> usize {
    crate::knobs::parse_positive(value).unwrap_or(DEFAULT_PORT_QUEUE_LIMIT)
}

/// The per-port queue bound for new shards: `ASBESTOS_PORT_QUEUE` if set
/// and valid, else [`DEFAULT_PORT_QUEUE_LIMIT`].
pub(crate) fn default_port_queue_limit() -> usize {
    port_queue_limit_from(crate::knobs::raw(PORT_QUEUE_ENV).as_deref())
}

/// One shard of the kernel: a complete, isolated delivery engine.
pub struct KernelShard {
    /// This shard's number (the shard half of packed ids).
    pub(crate) id: u16,
    pub(crate) cost: CostModel,
    pub(crate) clock: CycleClock,
    pub(crate) handles: HandleTable,
    pub(crate) processes: Vec<Process>,
    pub(crate) eps: Vec<EventProcess>,
    pub(crate) frames: FramePool,
    pub(crate) mailboxes: Mailboxes,
    /// Every shard's inbound cross-shard channel, shared kernel-wide.
    /// Sends to other shards push into `xshard[dest]`; this shard's own
    /// pending inbound messages live in `xshard[self.id]` until
    /// [`KernelShard::pull_inbound`] drains them.
    pub(crate) xshard: Arc<InboxSet>,
    /// Reusable swap partner for [`KernelShard::pull_inbound`]: drained
    /// batches land here, are enqueued, and the emptied (but still
    /// capacitied) buffer swaps back into the inbound channel on the next
    /// drain — steady state allocates nothing.
    pub(crate) drain_buf: Vec<QueuedMessage>,
    pub(crate) queue_limit: usize,
    pub(crate) port_queue_limit: usize,
    pub(crate) stats: Stats,
    /// Overload-control state: credit windows, the retry queue, per-port
    /// pressure counters. Inert unless armed (see
    /// [`crate::backpressure`]).
    pub(crate) bp: Backpressure,
    /// Mailbox depth at which this shard reports itself overloaded to
    /// deployment-side shedders ([`crate::Sys::overloaded`]). Starts at
    /// `usize::MAX` (never); only [`crate::Kernel::set_shed_threshold`]
    /// moves it.
    pub(crate) shed_threshold: usize,
    pub(crate) last_ctx: Option<ExecCtx>,
    /// Real (host) nanoseconds this shard's delivery loop has run, over
    /// all `run()` calls. Drains never overlap, so each nanosecond is
    /// attributed to exactly one shard; the busiest shard's share is the
    /// modelled wall clock of a host with one core per shard, which
    /// `benchmark/` reads. Deliberately *not* part of [`Stats`]:
    /// host timing is nondeterministic, and `Stats` is pinned by the
    /// golden-trace test.
    pub(crate) busy_nanos: u64,
}

impl KernelShard {
    /// `lane`/`lanes` partition the handle-cipher counter space: shard
    /// `i` of an ordinary kernel is lane `i` of `num_shards`; shard `i`
    /// of federated kernel `k` (slot `k` of `slots`) is lane
    /// `k*num_shards + i` of `slots*num_shards`, so every handle minted
    /// anywhere in a cluster is unique cluster-wide (§5.1's "unique
    /// since boot", across the whole federation).
    pub(crate) fn new(
        seed: u64,
        id: u16,
        lane: u64,
        lanes: u64,
        cost: CostModel,
        xshard: Arc<InboxSet>,
    ) -> KernelShard {
        KernelShard {
            id,
            cost,
            clock: CycleClock::new(),
            handles: HandleTable::with_partition(seed, lane, lanes),
            processes: Vec::new(),
            eps: Vec::new(),
            frames: FramePool::new(),
            mailboxes: Mailboxes::default(),
            xshard,
            drain_buf: Vec::new(),
            queue_limit: DEFAULT_QUEUE_LIMIT,
            port_queue_limit: default_port_queue_limit(),
            stats: Stats::default(),
            bp: Backpressure::default(),
            shed_threshold: usize::MAX,
            last_ctx: None,
            busy_nanos: 0,
        }
    }

    // ------------------------------------------------------------------
    // Spawning and process lifecycle.
    // ------------------------------------------------------------------

    pub(crate) fn spawn_body(
        &mut self,
        router: &Router,
        name: &str,
        category: Category,
        body: Body,
        inherit_from: Option<ProcessId>,
    ) -> ProcessId {
        let mut proc = Process::new(name, category, body);
        if let Some(parent) = inherit_from {
            debug_assert_eq!(parent.shard(), self.id as usize, "fork is shard-local");
            let p = &self.processes[parent.index()];
            // Fork semantics: the child inherits the parent's labels (§5.3's
            // "either by forking or using ... decontamination") and env.
            proc.send_label = p.send_label.clone();
            proc.recv_label = p.recv_label.clone();
            proc.env = p.env.clone();
        }
        self.processes.push(proc);
        let pid = ProcessId::new(self.id, self.processes.len() - 1);
        // Run the start hook in the new process's (base) context.
        let mut body = self.processes[pid.index()]
            .body
            .take()
            .expect("freshly spawned process has a body");
        {
            let mut sys = Sys::new(self, router, ExecCtx { pid, ep: None }, false);
            match &mut body {
                Body::Plain(s) => s.on_start(&mut sys),
                Body::Event(s) => s.on_base_start(&mut sys),
            }
        }
        if self.processes[pid.index()].alive {
            self.processes[pid.index()].body = Some(body);
        }
        pid
    }

    pub(crate) fn create_ep(&mut self, pid: ProcessId) -> EpId {
        let p = &self.processes[pid.index()];
        // `Arc` bumps: the EP shares the base's label storage until either
        // side's labels change.
        let ep = EventProcess::new(pid, Arc::clone(&p.send_label), Arc::clone(&p.recv_label));
        self.eps.push(ep);
        let eid = EpId::new(self.id, self.eps.len() - 1);
        self.processes[pid.index()].eps.push(eid);
        self.stats.eps_created += 1;
        self.clock.charge(Category::KernelIpc, self.cost.ep_create);
        eid
    }

    pub(crate) fn invoke(
        &mut self,
        router: &Router,
        pid: ProcessId,
        ep: Option<EpId>,
        is_new_ep: bool,
        msg: &Message,
    ) {
        let Some(mut body) = self.processes[pid.index()].body.take() else {
            return;
        };
        if self.bp.enabled {
            // Each handler activation is one tick of the sender's credit
            // clock: windows refill on the sender's own schedule, never
            // on (attacker-observable) delivery events.
            self.bp.note_activation(pid);
        }
        {
            let mut sys = Sys::new(self, router, ExecCtx { pid, ep }, is_new_ep);
            match &mut body {
                Body::Plain(s) => s.on_message(&mut sys, msg),
                Body::Event(s) => s.on_event(&mut sys, msg),
            }
        }
        if self.processes[pid.index()].alive {
            self.processes[pid.index()].body = Some(body);
        } else {
            drop(body);
            self.cleanup_process(router, pid);
            return;
        }
        if let Some(eid) = ep {
            if !self.eps[eid.index()].alive {
                self.cleanup_ep(router, eid);
            }
        }
    }

    /// Runs every live plain service's `on_teardown` hook (clean
    /// shutdown; see [`crate::Service::on_teardown`]). Event-process
    /// services keep no durable state by construction — their memory is
    /// per-boot simulated frames — so only plain services get the hook.
    pub(crate) fn teardown(&mut self, router: &Router) {
        for index in 0..self.processes.len() {
            if !self.processes[index].alive {
                continue;
            }
            let Some(mut body) = self.processes[index].body.take() else {
                continue;
            };
            let pid = ProcessId::new(self.id, index);
            if let Body::Plain(service) = &mut body {
                let mut sys = Sys::new(self, router, ExecCtx { pid, ep: None }, false);
                service.on_teardown(&mut sys);
            }
            if self.processes[index].alive {
                self.processes[index].body = Some(body);
            }
        }
    }

    pub(crate) fn cleanup_ep(&mut self, router: &Router, eid: EpId) {
        let pid = self.eps[eid.index()].process;
        for frame in self.eps[eid.index()].delta.drain_all() {
            self.frames.release(frame);
        }
        let ports: Vec<Handle> = std::mem::take(&mut self.eps[eid.index()].ports);
        for port in ports {
            self.handles.dissociate(port);
            router.unregister_port(port);
        }
        self.eps[eid.index()].alive = false;
        self.processes[pid.index()].eps.retain(|&e| e != eid);
        self.stats.eps_exited += 1;
    }

    pub(crate) fn cleanup_process(&mut self, router: &Router, pid: ProcessId) {
        let eps: Vec<EpId> = self.processes[pid.index()].eps.clone();
        for eid in eps {
            self.cleanup_ep(router, eid);
        }
        for port in self.handles.ports_owned_by(PortOwner::Process(pid)) {
            self.handles.dissociate(port);
            router.unregister_port(port);
        }
        let table = std::mem::take(&mut self.processes[pid.index()].page_table);
        for (_, frame) in table.iter() {
            self.frames.release(frame);
        }
        self.processes[pid.index()].alive = false;
    }

    // ------------------------------------------------------------------
    // The send path. All queue policy lives here and in
    // `enqueue_checked`, which the cross-shard routing path shares.
    // ------------------------------------------------------------------

    pub(crate) fn send_from(
        &mut self,
        router: &Router,
        ctx: ExecCtx,
        port: Handle,
        body: Value,
        args: &SendArgs,
    ) -> Result<SendVerdict, crate::error::SysError> {
        let category = self.processes[ctx.pid.index()].category;
        let ps: &Arc<Label> = match ctx.ep {
            Some(eid) => &self.eps[eid.index()].send_label,
            None => &self.processes[ctx.pid.index()].send_label,
        };

        // Charge send cost up front: base + payload + label argument
        // processing. Privilege-failing sends still did this work in the
        // simulated kernel, so they are charged too.
        let label_work = (args.label_work() + ps.entry_count() + 1) as u64;
        self.clock.charge(Category::KernelIpc, self.cost.send_base);
        self.clock.charge(
            Category::KernelIpc,
            body.size_bytes() as u64 * self.cost.msg_byte + label_work * self.cost.label_entry,
        );
        let _ = category;

        // Figure 4 requirement (2): D_S(h) < 3 ⇒ P_S(h) = ⋆.
        if !ops::check_decont_send_privilege(&args.decont_send, ps) {
            return Err(crate::error::SysError::PrivilegeViolation);
        }
        // Figure 4 requirement (3): D_R(h) > ⋆ ⇒ P_S(h) = ⋆.
        if !ops::check_decont_recv_privilege(&args.decont_recv, ps) {
            return Err(crate::error::SysError::PrivilegeViolation);
        }

        // E_S = P_S ⊔ C_S, snapshotted now; delivery checks happen when the
        // receiver is scheduled (§4: delivery is decided at receive time).
        // A C_S that adds nothing — the common case — shares P_S by
        // reference.
        let es = keep_or_wrap(ps, ops::effective_send(ps, &args.contaminate));

        let qm = QueuedMessage {
            port,
            body,
            es,
            ds: args.decont_send.clone(),
            dr: args.decont_recv.clone(),
            v: args.verify.clone(),
            from: Some(ctx),
        };

        // Route: a port in this shard's vnode table is local (handles are
        // globally unique, so presence here is authoritative); anything
        // else asks the directory. Label evaluation always happens on the
        // destination shard, when the message is popped.
        let dest = if self.handles.get(port).is_some() {
            self.id
        } else if router.remote_kernel_of(port).is_some() {
            // Federation: the port lives on another kernel. Park the
            // message for the gateway; the delivery-time Figure 4 check
            // (and the destination-side queue bounds, and `Stats::sent`)
            // run on the *destination* kernel, so verdicts derive only
            // from destination state. Credits never apply here — a
            // remote verdict would be a cross-kernel covert channel, the
            // same reason injections are credit-free.
            router.push_egress(crate::message::RemoteSend {
                port: qm.port,
                body: qm.body,
                es: qm.es,
                ds: qm.ds,
                dr: qm.dr,
                v: qm.v,
            });
            return Ok(SendVerdict::Delivered);
        } else {
            router.shard_of(port)
        };
        if dest == self.id {
            if self.bp.enabled {
                return self.bp_send_local(ctx.pid, qm);
            }
            self.enqueue_checked(qm);
        } else {
            if self.bp.enabled {
                // Cross-shard sends are credit-free (the loop is
                // shard-local), but channel-bound overflow and the
                // per-sender FIFO barrier park instead of dropping.
                // Parking is silent — the verdict never reflects shared
                // channel state.
                if self.bp.barred(ctx.pid, port)
                    || self.xshard.len(dest as usize) >= self.queue_limit
                {
                    self.park(qm);
                    return Ok(SendVerdict::Delivered);
                }
            }
            // Sub-round routing: push straight into the destination's
            // inbound channel — no outbox. Queue bounds
            // are ultimately the destination shard's to enforce (it runs
            // `enqueue_checked` when it pulls the batch), but the channel
            // honors this shard's bound so a handler looping on
            // cross-shard sends cannot buffer unbounded memory — the §8
            // backstop the monolithic engine's send-time check provided.
            // (Bounds are kernel-uniform: see `Kernel::set_queue_limit`.)
            if !self.xshard.push(dest as usize, qm, self.queue_limit) {
                self.stats.record_drop(DropReason::QueueFull);
            }
        }
        Ok(SendVerdict::Delivered)
    }

    /// Drains this shard's inbound cross-shard channel into its per-port
    /// mailboxes, applying the destination-side queue bounds exactly as a
    /// local send would. Returns the number of messages pulled; `point`
    /// picks which observability counter they land in.
    pub(crate) fn pull_inbound(&mut self, point: PullPoint) -> usize {
        let mut batch = std::mem::take(&mut self.drain_buf);
        let n = self.xshard.take_into(self.id as usize, &mut batch);
        if n == 0 {
            self.drain_buf = batch;
            return 0;
        }
        match point {
            PullPoint::Barrier => self.stats.xshard_barrier += n as u64,
            PullPoint::Subround => self.stats.xshard_subround += n as u64,
        }
        self.stats.xshard_batch_drains += 1;
        self.stats.xshard_batch_max = self.stats.xshard_batch_max.max(n as u64);
        for qm in batch.drain(..) {
            self.enqueue_inbound(qm);
        }
        // `drain` leaves the capacity in place; hand the buffer back as
        // the next swap partner.
        self.drain_buf = batch;
        n
    }

    /// Applies the queue bounds and enqueues (or silently drops) one
    /// message. Shared by the local send path and cross-shard routing, so
    /// both enforce identical policy on the destination shard's state.
    pub(crate) fn enqueue_checked(&mut self, qm: QueuedMessage) {
        if self.mailboxes.len() >= self.queue_limit {
            // Resource exhaustion drops are silent, like label drops (§4).
            self.stats.record_drop(DropReason::QueueFull);
            return;
        }
        if self.mailboxes.port_len(qm.port) >= self.port_queue_limit {
            // Per-port backpressure: one hot port cannot starve the rest
            // of the shard's mailboxes.
            self.stats.record_drop(DropReason::PortQueueFull);
            self.bp.note_port_drop(qm.port);
            return;
        }
        self.stats.sent += 1;
        self.mailboxes.push(qm);
        self.note_queue_depth();
    }

    /// Mirrors the mailbox high-water mark into this shard's counters
    /// (`Stats::queue_depth_hwm`); called after anything deepens the
    /// mailboxes.
    pub(crate) fn note_queue_depth(&mut self) {
        let hwm = self.mailboxes.depth_hwm() as u64;
        if hwm > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = hwm;
        }
    }

    // ------------------------------------------------------------------
    // Accounting.
    // ------------------------------------------------------------------

    /// This shard's contribution to the Figure 6 memory measurement.
    pub fn kmem_report(&self) -> KmemReport {
        let process_bytes = self
            .processes
            .iter()
            .filter(|p| p.alive)
            .map(Process::kernel_bytes)
            .sum();
        let ep_bytes = self
            .eps
            .iter()
            .filter(|e| e.alive)
            .map(EventProcess::kernel_bytes)
            .sum();
        let handle_bytes = self.handles.kernel_bytes();
        // Pending messages: mailboxes plus anything parked in this
        // shard's inbound cross-shard channel (queue_len counts both).
        // Payload backing buffers are charged **once** per unique buffer,
        // however many queued messages share them — the accounting rule
        // that keeps the zero-copy path's reported footprint honest (N
        // queued refcounts on one 4 KiB buffer hold 4 KiB, not N·4 KiB).
        let mut seen_buffers = std::collections::HashSet::new();
        let mut queue_bytes: usize = 0;
        let mut charge = |qm: &QueuedMessage| {
            queue_bytes += qm.queue_bytes_shallow();
            qm.body.for_each_payload(&mut |p| {
                if !p.is_empty() && seen_buffers.insert(p.backing_id()) {
                    queue_bytes += p.backing_len();
                }
            });
        };
        for qm in self.mailboxes.iter() {
            charge(qm);
        }
        self.xshard.for_each_queued(self.id as usize, &mut charge);
        let user_frame_bytes = self.frames.frames_in_use() * PAGE_SIZE;
        KmemReport {
            process_bytes,
            ep_bytes,
            handle_bytes,
            queue_bytes,
            user_frame_bytes,
            // Channel bookkeeping is kernel-level, not per-shard; the
            // coordinator fills it in (`Kernel::kmem_report`).
            xshard_bytes: 0,
        }
    }

    /// This shard's statistics counters.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// This shard's cycle clock.
    pub fn clock(&self) -> &CycleClock {
        &self.clock
    }

    /// Always 0: there is no delivery-decision cache. Read only by
    /// `benchmark/`; see the note on [`Stats::cache_hits`].
    pub fn delivery_cache_capacity(&self) -> usize {
        0
    }

    /// Pending messages queued on this shard (mailboxes, its inbound
    /// cross-shard channel, and its backpressure retry queue).
    pub fn queue_len(&self) -> usize {
        self.mailboxes.len() + self.xshard.len(self.id as usize) + self.bp.retry_len()
    }

    /// Real nanoseconds this shard's delivery loop has run (see the field
    /// docs; the busiest shard's share is the modelled wall clock).
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos
    }
}

/// The `Send` supertrait bound on [`Service`] and [`EpService`] is what
/// makes a whole shard — and so a whole kernel — `Send`. This assertion
/// pins that property at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    let _ = assert_send::<KernelShard>;
    let _ = assert_send::<Box<dyn Service>>;
    let _ = assert_send::<Box<dyn EpService>>;
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_queue_limit_parsing() {
        // Unset, junk, and zero (a port that could never accept a
        // message) all fall back to the default.
        assert_eq!(port_queue_limit_from(None), DEFAULT_PORT_QUEUE_LIMIT);
        assert_eq!(
            port_queue_limit_from(Some("not-a-number")),
            DEFAULT_PORT_QUEUE_LIMIT
        );
        assert_eq!(port_queue_limit_from(Some("0")), DEFAULT_PORT_QUEUE_LIMIT);
        assert_eq!(port_queue_limit_from(Some("")), DEFAULT_PORT_QUEUE_LIMIT);
        // Valid values win, whitespace tolerated.
        assert_eq!(port_queue_limit_from(Some("64")), 64);
        assert_eq!(port_queue_limit_from(Some(" 4096 ")), 4096);
    }
}
