//! The kernel: its state, construction, process lifecycle, the send path
//! and the god-mode surface.
//!
//! A [`Kernel`] is one value holding all kernel state: every process and
//! event process, the frames backing their memory, the per-port
//! mailboxes, the port table, the global environment, the cycle clock and
//! the statistics. [`Kernel::run`] drains the mailboxes on the calling
//! thread until nothing is queued: the paper's one delivery loop, on which
//! §6 multiplexes event processes. The loop itself is in
//! [`crate::delivery`], and where a send goes in `router`.
//!
//! A handler runs with a [`Sys`] that borrows the whole kernel as `&mut`.
//! Its body is taken out of the process table for the activation, so
//! nothing else holds a borrow: the borrow checker, not a lock, proves
//! there is one writer. Nothing here is shared between threads. A kernel
//! spreads across machines only by federation (`crates/cluster`): kernel
//! `k` of `N` mints handles from cipher lane `k`, and a send to a port
//! another kernel minted leaves through egress.
//!
//! **Determinism contract.** The schedule is a function of the spawn
//! order, injections and seed: the same inputs give the same ordered
//! delivery trace, `Stats`, clock and memory report, pinned bit-for-bit
//! by `tests/shard_determinism.rs`, so all paper figures (fig6–fig9) are
//! reproducible.

use std::collections::BTreeMap;
use std::sync::Arc;

use asbestos_labels::{ops, Handle, Label};

use crate::cycles::{Category, CostModel, CycleClock};
use crate::delivery::{keep_or_wrap, DeliveryOutcome, Mailboxes};
use crate::error::{SysError, SysResult};
use crate::event_process::EventProcess;
use crate::handle_table::HandleTable;
use crate::ids::{EpId, ExecCtx, ProcessId};
use crate::memory::{FramePool, PAGE_SIZE};
use crate::message::{QueuedMessage, RemoteSend, SendArgs};
use crate::process::{Body, EpService, Process, Service};
use crate::router::Route;
use crate::stats::{DropReason, Stats};
use crate::sys::Sys;
use crate::value::Value;

/// Default bound on queued messages (the resource-exhaustion backstop
/// §8 mentions; drops past this limit are silent, like label
/// drops).
pub const DEFAULT_QUEUE_LIMIT: usize = 1 << 20;

/// Default bound on queued messages per destination port. Like the
/// kernel-wide bound it defaults high enough never to fire; deployments
/// lower it so one hot port cannot monopolize the whole queue budget
/// (§8's resource-exhaustion caveat, applied per port) with
/// [`Kernel::set_port_queue_limit`].
pub const DEFAULT_PORT_QUEUE_LIMIT: usize = DEFAULT_QUEUE_LIMIT;

/// Folds a boot epoch into the handle-cipher seed (SplitMix64 finalizer).
/// Epoch 0 — the only epoch a non-durable deployment ever sees — leaves
/// the seed untouched, so every pre-reboot golden trace is unchanged.
fn mix_epoch(seed: u64, epoch: u64) -> u64 {
    if epoch == 0 {
        return seed;
    }
    let mut z = epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    seed ^ (z ^ (z >> 31))
}

/// A point-in-time memory accounting report (the Figure 6 measurement).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KmemReport {
    /// Process structures plus their labels.
    pub process_bytes: usize,
    /// Event-process structures plus their labels.
    pub ep_bytes: usize,
    /// 64 B per handle minted plus the live ports' labels.
    pub handle_bytes: usize,
    /// Queued, undelivered messages.
    pub queue_bytes: usize,
    /// User memory: allocated 4 KiB frames (base tables and EP deltas).
    pub user_frame_bytes: usize,
}

impl KmemReport {
    /// Total allocated bytes, kernel plus user.
    pub fn total_bytes(&self) -> usize {
        self.process_bytes
            + self.ep_bytes
            + self.handle_bytes
            + self.queue_bytes
            + self.user_frame_bytes
    }

    /// Total memory in 4 KiB pages, rounded up (Figure 6's unit).
    pub fn total_pages(&self) -> usize {
        self.total_bytes().div_ceil(PAGE_SIZE)
    }
}

impl ExecCtx {
    /// The send and receive labels this context acts under (§6.1): its
    /// event process's when it runs in one, else its process's. It
    /// borrows the two tables, not the kernel, so a caller can charge the
    /// clock while it holds the labels.
    pub(crate) fn labels<'k>(
        self,
        processes: &'k [Process],
        eps: &'k [EventProcess],
    ) -> (&'k Arc<Label>, &'k Arc<Label>) {
        match self.ep {
            Some(eid) => (&eps[eid.index()].send_label, &eps[eid.index()].recv_label),
            None => {
                let p = &processes[self.pid.index()];
                (&p.send_label, &p.recv_label)
            }
        }
    }

    /// [`ExecCtx::labels`] to write, with the ports the context holds
    /// receive rights for (the ports its exit dissociates).
    pub(crate) fn state_mut<'k>(
        self,
        processes: &'k mut [Process],
        eps: &'k mut [EventProcess],
    ) -> (&'k mut Arc<Label>, &'k mut Arc<Label>, &'k mut Vec<Handle>) {
        match self.ep {
            Some(eid) => {
                let e = &mut eps[eid.index()];
                (&mut e.send_label, &mut e.recv_label, &mut e.ports)
            }
            None => {
                let p = &mut processes[self.pid.index()];
                (&mut p.send_label, &mut p.recv_label, &mut p.ports)
            }
        }
    }
}

/// The Asbestos kernel simulator.
///
/// A `Kernel` owns every process, event process, port, queued message, and
/// simulated page, plus the virtual cycle clock. It is deterministic: the
/// same spawn order, injections, and seed produce the same schedule, cycle
/// counts, and memory report.
///
/// Drive it by [`Kernel::spawn`]ing services, [`Kernel::inject`]ing
/// external events, and calling [`Kernel::run`].
pub struct Kernel {
    pub(crate) cost: CostModel,
    pub(crate) clock: CycleClock,
    pub(crate) processes: Vec<Process>,
    pub(crate) eps: Vec<EventProcess>,
    pub(crate) frames: FramePool,
    pub(crate) mailboxes: Mailboxes,
    queue_limit: usize,
    port_queue_limit: usize,
    pub(crate) stats: Stats,
    pub(crate) last_ctx: Option<ExecCtx>,
    /// Real (host) nanoseconds the delivery loop has run, over all
    /// `run()` calls, which `benchmark/` reads. Deliberately *not* part
    /// of [`Stats`]: host timing is nondeterministic, and `Stats` is
    /// pinned by the golden-trace test.
    pub(crate) busy_nanos: u64,
    /// The port table — the kernel's one handle → live port map (§5.6) —
    /// and the handle allocator.
    pub(crate) handles: HandleTable,
    /// The §4 global environment (init/launcher bootstrap namespace).
    env: BTreeMap<String, Value>,
    /// Environment writes made on this kernel, in write order, until the
    /// gateway drains them ([`Kernel::take_env_log`]). Federated kernels
    /// only: a plain kernel has no gateway to drain it.
    env_log: Vec<(String, Value)>,
    /// Outbound cross-kernel messages, each with its home kernel, parked
    /// until the gateway drains them ([`Kernel::take_remote_egress`]).
    egress: Vec<(usize, RemoteSend)>,
    /// The boot epoch this kernel was assembled under (§5.1: handle
    /// values are unique *since boot*; the epoch keys the handle cipher
    /// so a rebooted deployment can never re-mint a dead boot's
    /// handles). 0 for ordinary, non-durable kernels.
    boot_epoch: u64,
}

impl Kernel {
    /// Creates a kernel with the default cost model; `seed` keys the
    /// handle cipher. This is the paper-figure configuration.
    pub fn new(seed: u64) -> Kernel {
        Kernel::with_cluster_slot(seed, CostModel::default(), 0, 0, 1)
    }

    /// The same as [`Kernel::new`]: there are no shards. Kept only
    /// because `benchmark/` (which a crate PR may not edit) calls it; the
    /// `[benchmark]` PR deletes it.
    pub fn new_sharded(seed: u64, _shards: usize) -> Kernel {
        Kernel::new(seed)
    }

    /// Creates a kernel for boot epoch `epoch` of a durable deployment
    /// (see [`Kernel::boot_epoch`]). The epoch is folded into the handle
    /// cipher's key, so handles minted this boot are disjoint from every
    /// other boot's — §5.1's "unique since boot" across actual reboots.
    /// Epoch 0 is bit-for-bit [`Kernel::new`] with the given cost model.
    ///
    /// The third argument is ignored: there are no shards. It stays only
    /// because `benchmark/` (which a crate PR may not edit) passes one;
    /// the `[benchmark]` PR drops it.
    pub fn with_boot_epoch(seed: u64, cost: CostModel, _shards: usize, epoch: u64) -> Kernel {
        Kernel::with_cluster_slot(seed, cost, epoch, 0, 1)
    }

    /// Creates the kernel for cluster slot `slot` of a `slots`-kernel
    /// federation (see `crates/cluster`). Kernel `slot` mints handles
    /// from cipher lane `slot` of `slots`, so handle values are unique
    /// across the *whole* federation — the property that lets a
    /// serialized handle cross the wire and stay meaningful (§5.1's
    /// uniqueness, cluster-wide) — and a handle's value names its home
    /// kernel. A send to a handle on another kernel's lane leaves through
    /// [`Kernel::take_remote_egress`]. Slot 0 of 1 is bit-for-bit the
    /// ordinary constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `slot < slots`.
    pub fn with_cluster_slot(
        seed: u64,
        cost: CostModel,
        epoch: u64,
        slot: usize,
        slots: usize,
    ) -> Kernel {
        assert!(slot < slots, "cluster slot must be in 0..{slots}");
        Kernel {
            cost,
            clock: CycleClock::new(),
            processes: Vec::new(),
            eps: Vec::new(),
            frames: FramePool::new(),
            mailboxes: Mailboxes::default(),
            queue_limit: DEFAULT_QUEUE_LIMIT,
            port_queue_limit: DEFAULT_PORT_QUEUE_LIMIT,
            stats: Stats::default(),
            last_ctx: None,
            busy_nanos: 0,
            handles: HandleTable::with_partition(mix_epoch(seed, epoch), slot as u64, slots as u64),
            env: BTreeMap::new(),
            env_log: Vec::new(),
            egress: Vec::new(),
            boot_epoch: epoch,
        }
    }

    /// Always 1: a kernel has one delivery loop. Kept only because
    /// `benchmark/` (which a crate PR may not edit) reads it; the
    /// `[benchmark]` PR deletes it.
    pub fn num_shards(&self) -> usize {
        1
    }

    /// The boot epoch this kernel runs as (0 unless built by a durable
    /// deployment's reboot path).
    pub fn boot_epoch(&self) -> u64 {
        self.boot_epoch
    }

    /// Does nothing: there are no worker threads. Kept, with
    /// [`Stats::worker_wakeups`], only because `benchmark/` (which a
    /// crate PR may not edit) calls it; see the note on that field.
    pub fn set_worker_threads(&mut self, _workers: usize) {}

    /// The kernel itself, whatever the argument. Kept only because
    /// `benchmark/` (which a crate PR may not edit) reads
    /// [`Kernel::busy_nanos`] and [`Kernel::delivery_cache_capacity`]
    /// through it; the `[benchmark]` PR deletes it.
    pub fn shard(&self, _shard: usize) -> &Kernel {
        self
    }

    /// Real nanoseconds the delivery loop has run (see the field docs).
    pub fn busy_nanos(&self) -> u64 {
        self.busy_nanos
    }

    /// Always 0: there is no delivery-decision cache. Read only by
    /// `benchmark/`; see the note on [`Stats::cache_hits`].
    pub fn delivery_cache_capacity(&self) -> usize {
        0
    }

    // ------------------------------------------------------------------
    // Spawning and process lifecycle.
    // ------------------------------------------------------------------

    /// Spawns an ordinary service process with default labels and empty
    /// environment, then runs its `on_start` hook.
    pub fn spawn(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> ProcessId {
        self.spawn_body(name, category, Body::Plain(service), None)
    }

    /// The same as [`Kernel::spawn`]: there are no shards to pin to. Kept
    /// only because `benchmark/` (which a crate PR may not edit) calls
    /// it; the `[benchmark]` PR deletes it.
    pub fn spawn_on(
        &mut self,
        _shard: usize,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> ProcessId {
        self.spawn(name, category, service)
    }

    /// Spawns an event-process service (§6): after `on_base_start` returns,
    /// every message to a base-owned port forks a fresh event process.
    pub fn spawn_ep_service(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn EpService>,
    ) -> ProcessId {
        self.spawn_body(name, category, Body::Event(service), None)
    }

    /// Adds a process and runs its start hook in its (base) context. A
    /// child of `inherit_from` starts with its parent's labels and
    /// environment.
    pub(crate) fn spawn_body(
        &mut self,
        name: &str,
        category: Category,
        body: Body,
        inherit_from: Option<ProcessId>,
    ) -> ProcessId {
        let mut proc = Process::new(name, category, body);
        if let Some(parent) = inherit_from {
            let p = &self.processes[parent.index()];
            // Fork semantics: the child inherits the parent's labels (§5.3's
            // "either by forking or using ... decontamination") and env.
            proc.send_label = p.send_label.clone();
            proc.recv_label = p.recv_label.clone();
            proc.env = p.env.clone();
        }
        self.processes.push(proc);
        let pid = ProcessId::new(self.processes.len() - 1);
        self.activate(ExecCtx { pid, ep: None }, false, |body, sys| match body {
            Body::Plain(s) => s.on_start(sys),
            Body::Event(s) => s.on_base_start(sys),
        });
        pid
    }

    /// Runs one activation of process `ctx.pid`'s body — its start hook,
    /// a handler, or its teardown hook — with a [`Sys`] for `ctx`, then
    /// settles what the activation left. A process that exited is cleaned
    /// up: its event processes, ports and pages are freed, and its body is
    /// dropped. Otherwise the body goes back, and an event process that
    /// exited is cleaned up. Every activation goes through here, so an
    /// exit means the same wherever it happens.
    pub(crate) fn activate(
        &mut self,
        ctx: ExecCtx,
        is_new_ep: bool,
        run: impl FnOnce(&mut Body, &mut Sys<'_>),
    ) {
        let Some(mut body) = self.processes[ctx.pid.index()].body.take() else {
            return;
        };
        run(&mut body, &mut Sys::new(self, ctx, is_new_ep));
        if !self.processes[ctx.pid.index()].alive {
            self.cleanup_process(ctx.pid);
            return;
        }
        self.processes[ctx.pid.index()].body = Some(body);
        if let Some(eid) = ctx.ep {
            if !self.eps[eid.index()].alive {
                self.cleanup_ep(eid);
            }
        }
    }

    pub(crate) fn create_ep(&mut self, pid: ProcessId) -> EpId {
        let p = &self.processes[pid.index()];
        // `Arc` bumps: the EP shares the base's label storage until either
        // side's labels change.
        let ep = EventProcess::new(pid, Arc::clone(&p.send_label), Arc::clone(&p.recv_label));
        self.eps.push(ep);
        let eid = EpId::new(self.eps.len() - 1);
        self.processes[pid.index()].eps.push(eid);
        self.stats.eps_created += 1;
        self.clock.charge(Category::KernelIpc, self.cost.ep_create);
        eid
    }

    fn cleanup_ep(&mut self, eid: EpId) {
        let pid = self.eps[eid.index()].process;
        for frame in self.eps[eid.index()].delta.drain_all() {
            self.frames.release(frame);
        }
        for port in std::mem::take(&mut self.eps[eid.index()].ports) {
            self.handles.dissociate(port);
        }
        self.eps[eid.index()].alive = false;
        self.processes[pid.index()].eps.retain(|&e| e != eid);
        self.stats.eps_exited += 1;
    }

    fn cleanup_process(&mut self, pid: ProcessId) {
        let eps: Vec<EpId> = self.processes[pid.index()].eps.clone();
        for eid in eps {
            self.cleanup_ep(eid);
        }
        for port in std::mem::take(&mut self.processes[pid.index()].ports) {
            self.handles.dissociate(port);
        }
        let table = std::mem::take(&mut self.processes[pid.index()].page_table);
        for (_, frame) in table.iter() {
            self.frames.release(frame);
        }
        self.processes[pid.index()].alive = false;
    }

    /// Clean shutdown: runs every live plain service's
    /// [`Service::on_teardown`] hook. Call after [`Kernel::run`] has
    /// drained the system and before dropping the kernel; durable services
    /// (ok-dbproxy) flush their write-ahead logs here. A crash is modeled
    /// by *not* calling this — the next boot then recovers the committed
    /// prefix only. Event-process services keep no durable state by
    /// construction — their memory is per-boot simulated frames — so only
    /// plain services get the hook.
    pub fn teardown(&mut self) {
        for index in 0..self.processes.len() {
            if self.processes[index].alive {
                let ctx = ExecCtx {
                    pid: ProcessId::new(index),
                    ep: None,
                };
                self.activate(ctx, false, |body, sys| {
                    if let Body::Plain(service) = body {
                        service.on_teardown(sys);
                    }
                });
            }
        }
    }

    /// Forcibly terminates a process (god-mode; used for failure injection).
    pub fn kill_process(&mut self, pid: ProcessId) {
        if self.processes[pid.index()].alive {
            self.processes[pid.index()].body = None;
            self.cleanup_process(pid);
        }
    }

    // ------------------------------------------------------------------
    // The send path. All queue policy lives here and in
    // `enqueue_checked`, which federation arrivals share.
    // ------------------------------------------------------------------

    pub(crate) fn send_from(
        &mut self,
        ctx: ExecCtx,
        port: Handle,
        body: Value,
        args: &SendArgs,
    ) -> SysResult<()> {
        let (ps, _) = ctx.labels(&self.processes, &self.eps);

        // Charge send cost up front: base + payload + label argument
        // processing. Privilege-failing sends still did this work in the
        // simulated kernel, so they are charged too.
        let label_work = (args.label_work() + ps.entry_count() + 1) as u64;
        self.clock.charge(Category::KernelIpc, self.cost.send_base);
        self.clock.charge(
            Category::KernelIpc,
            body.size_bytes() as u64 * self.cost.msg_byte + label_work * self.cost.label_entry,
        );

        // Figure 4 requirement (2): D_S(h) < 3 ⇒ P_S(h) = ⋆.
        if !ops::check_decont_send_privilege(&args.decont_send, ps) {
            return Err(SysError::PrivilegeViolation);
        }
        // Figure 4 requirement (3): D_R(h) > ⋆ ⇒ P_S(h) = ⋆.
        if !ops::check_decont_recv_privilege(&args.decont_recv, ps) {
            return Err(SysError::PrivilegeViolation);
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

        // Route by the lane that minted the port; label evaluation always
        // happens on the destination kernel, when the message is popped.
        match self.route(port) {
            Route::Local => self.enqueue_checked(qm),
            // Federation: the port was minted by kernel `home`. Park the
            // message for the gateway; the delivery-time Figure 4 check
            // (and the destination-side queue bounds, and `Stats::sent`)
            // run on the *destination* kernel, so verdicts derive only
            // from destination state.
            Route::Egress(home) => self.egress.push((
                home,
                RemoteSend {
                    port: qm.port,
                    body: qm.body,
                    es: qm.es,
                    ds: qm.ds,
                    dr: qm.dr,
                    v: qm.v,
                },
            )),
        }
        Ok(())
    }

    /// Applies the queue bounds and enqueues (or silently drops) one
    /// message. Shared by the local send path and federation arrivals
    /// ([`Kernel::inject_remote`]), so both enforce identical policy on
    /// this kernel's state.
    fn enqueue_checked(&mut self, qm: QueuedMessage) {
        if self.mailboxes.len() >= self.queue_limit {
            // Resource exhaustion drops are silent, like label drops (§4).
            self.stats.record_drop(DropReason::QueueFull);
            return;
        }
        if self.mailboxes.port_len(qm.port) >= self.port_queue_limit {
            // Per-port bound, silent too: one hot port cannot starve the
            // rest of the mailboxes.
            self.stats.record_drop(DropReason::PortQueueFull);
            return;
        }
        self.stats.sent += 1;
        self.mailboxes.push(qm);
    }

    // ------------------------------------------------------------------
    // External world (god-mode).
    // ------------------------------------------------------------------

    /// Injects a message from outside the label system (device interrupts,
    /// test drivers). Injected messages carry `E_S = {⋆}` and therefore pass
    /// every label check — they model hardware, not processes — and, like
    /// hardware, they bypass the queue bounds.
    pub fn inject(&mut self, port: Handle, body: Value) {
        self.stats.injected += 1;
        self.mailboxes.push(QueuedMessage {
            port,
            body,
            es: Arc::new(Label::bottom()),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            from: None,
        });
    }

    // ------------------------------------------------------------------
    // Federation (the gateway's surface; see `crates/cluster`).
    // ------------------------------------------------------------------

    /// Drains every message parked for another kernel, in send order,
    /// each with its home: the kernel whose cipher lane minted its port.
    /// The sender-side Figure 4 checks already ran; the destination
    /// kernel applies the delivery-time check when these are injected
    /// there ([`Kernel::inject_remote`]).
    pub fn take_remote_egress(&mut self) -> Vec<(usize, RemoteSend)> {
        std::mem::take(&mut self.egress)
    }

    /// Ingests one message forwarded from another kernel: it joins the
    /// mailboxes under exactly the rules a local send faces — queue
    /// bounds, `Stats::sent` accounting, and the delivery-time Figure 4
    /// check against this kernel's state when it is popped. A port with
    /// no vnode here drops `NoSuchPort`, and an arrival never leaves
    /// again.
    pub fn inject_remote(&mut self, rs: RemoteSend) {
        self.enqueue_checked(QueuedMessage {
            port: rs.port,
            body: rs.body,
            es: rs.es,
            ds: rs.ds,
            dr: rs.dr,
            v: rs.v,
            from: None,
        });
    }

    /// Drains the global environment writes made on this kernel since the
    /// last call, in write order — by its processes
    /// ([`Sys::publish_env`]) or by [`Kernel::set_global_env`] — for the
    /// gateway to replicate (§4's bootstrap namespace is cluster-global).
    /// Always empty on a kernel with one cluster slot, which logs nothing.
    pub fn take_env_log(&mut self) -> Vec<(String, Value)> {
        std::mem::take(&mut self.env_log)
    }

    /// Applies a global environment write another kernel made. Unlike
    /// [`Kernel::set_global_env`] it is not logged, so it is never sent
    /// back.
    pub fn apply_remote_env(&mut self, key: &str, value: Value) {
        self.env.insert(key.to_string(), value);
    }

    /// Sets a global environment entry (the §4 bootstrapping namespace,
    /// written by init/launcher-level code). A federated kernel — one
    /// whose handle space has lanes other kernels own — also logs the
    /// write for the gateway.
    pub fn set_global_env(&mut self, key: &str, value: Value) {
        if self.handles.allocator().lanes() > 1 {
            self.env_log.push((key.to_string(), value.clone()));
        }
        self.env.insert(key.to_string(), value);
    }

    /// Reads a global environment entry.
    pub fn global_env(&self, key: &str) -> Option<Value> {
        self.env.get(key).cloned()
    }

    /// Reads a global environment entry that names a port or handle —
    /// the common shape for service discovery (netd's and OKWS's ports).
    pub fn global_env_handle(&self, key: &str) -> Option<Handle> {
        self.env.get(key).and_then(Value::as_handle)
    }

    /// Sets the kernel's message-queue bound. Sends past the bound drop
    /// silently, the same way label failures do (§4, §8).
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.queue_limit = limit;
    }

    /// Sets the per-port message-queue bound. A port whose mailbox holds
    /// this many pending messages silently drops further sends
    /// ([`crate::DropReason::PortQueueFull`]), so one hot port cannot
    /// consume the kernel's whole queue budget and starve its neighbors.
    pub fn set_port_queue_limit(&mut self, limit: usize) {
        self.port_queue_limit = limit;
    }

    /// Always 0: there is no delivery-decision cache. Read only by
    /// `benchmark/`; see the note on [`Stats::cache_hits`].
    pub fn delivery_cache_len(&self) -> usize {
        0
    }

    /// Always 0: there is no tuner. Read only by `benchmark/`; see the
    /// note on [`Stats::steals`].
    pub fn tuner_actions(&self) -> u64 {
        0
    }

    /// Assigns process labels out of band (god-mode).
    ///
    /// §5.2 introduces its examples with labels "assigned out of band";
    /// tests and fixtures use this for the same purpose. Simulated services
    /// can never do this — they go through the Figure 4 rules.
    pub fn set_process_labels(&mut self, pid: ProcessId, send: Option<Label>, recv: Option<Label>) {
        let p = &mut self.processes[pid.index()];
        if let Some(s) = send {
            p.send_label = Arc::new(s);
        }
        if let Some(r) = recv {
            p.recv_label = Arc::new(r);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling.
    // ------------------------------------------------------------------

    /// Attempts one message delivery. Returns `false` when no message is
    /// pending (the system is idle). [`Kernel::run`] is this step
    /// repeated until it returns `false`.
    pub fn step(&mut self) -> bool {
        self.step_outcome() != DeliveryOutcome::Idle
    }

    /// Runs until the queue drains, with a safety bound; returns the
    /// number of delivery attempts.
    ///
    /// # Panics
    ///
    /// Panics when `limit` deliveries have run and a message is still
    /// pending — two services ping-ponging messages forever is a bug in
    /// simulated code, not a state to spin in.
    pub fn run_limited(&mut self, limit: u64) -> u64 {
        let steps = self.drain(limit);
        assert!(
            self.mailboxes.len() == 0,
            "kernel did not go idle after {limit} deliveries: livelock in simulated services?"
        );
        steps
    }

    /// Runs until idle with a generous default bound.
    pub fn run(&mut self) -> u64 {
        self.run_limited(100_000_000)
    }

    // ------------------------------------------------------------------
    // God-mode observability.
    // ------------------------------------------------------------------

    /// Kernel statistics, with the high-water mark read from the
    /// mailboxes.
    pub fn stats(&self) -> Stats {
        Stats {
            queue_depth_hwm: self.mailboxes.depth_hwm() as u64,
            ..self.stats
        }
    }

    /// A reading of the virtual clock, for interval measurements.
    pub fn clock(&self) -> CycleClock {
        self.clock
    }

    /// Current virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// The same as [`Kernel::now`]: a kernel has one clock. Kept only
    /// because `benchmark/` (which a crate PR may not edit) reads it; the
    /// `[benchmark]` PR deletes it.
    pub fn elapsed_cycles(&self) -> u64 {
        self.now()
    }

    /// Read-only access to a process.
    pub fn process(&self, pid: ProcessId) -> &Process {
        &self.processes[pid.index()]
    }

    /// Read-only access to an event process.
    pub fn event_process(&self, eid: EpId) -> &EventProcess {
        &self.eps[eid.index()]
    }

    /// All live event-process ids for a process.
    pub fn live_eps(&self, pid: ProcessId) -> Vec<EpId> {
        self.processes[pid.index()].eps.clone()
    }

    /// Total event processes ever created.
    pub fn ep_count(&self) -> usize {
        self.eps.len()
    }

    /// Number of processes ever spawned.
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// Finds a process by debug name (god-mode test convenience).
    pub fn find_process(&self, name: &str) -> Option<ProcessId> {
        let index = self.processes.iter().position(|p| p.name == name)?;
        Some(ProcessId::new(index))
    }

    /// The kernel's handle table: every live port.
    pub fn handle_table(&self) -> &HandleTable {
        &self.handles
    }

    /// Pending (sent but undelivered) messages.
    pub fn queue_len(&self) -> usize {
        self.mailboxes.len()
    }

    /// Pending messages sent by a given process (god-mode; used by tests to
    /// verify that compromised services actually attempted exfiltration).
    pub fn queued_from(&self, pid: ProcessId) -> usize {
        self.mailboxes
            .iter()
            .filter(|m| m.from.is_some_and(|c| c.pid == pid))
            .count()
    }

    /// Downcasts a process's service body for test inspection.
    pub fn service_as<T: 'static>(&self, pid: ProcessId) -> Option<&T> {
        match self.processes[pid.index()].body.as_ref()? {
            Body::Plain(s) => s.as_any()?.downcast_ref::<T>(),
            Body::Event(s) => s.as_any()?.downcast_ref::<T>(),
        }
    }

    /// Memory accounting across all kernel structures and user frames
    /// (Figure 6's measurement), the port table included.
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
        // Pending messages. Payload backing buffers are charged **once** per
        // unique buffer, however many queued messages share them — the
        // accounting rule that keeps the zero-copy path's reported
        // footprint honest (N queued refcounts on one 4 KiB buffer hold
        // 4 KiB, not N·4 KiB).
        let mut seen_buffers = std::collections::HashSet::new();
        let mut queue_bytes: usize = 0;
        for qm in self.mailboxes.iter() {
            queue_bytes += qm.queue_bytes_shallow();
            qm.body.for_each_payload(&mut |p| {
                if !p.is_empty() && seen_buffers.insert(p.backing_id()) {
                    queue_bytes += p.backing_len();
                }
            });
        }
        KmemReport {
            process_bytes,
            ep_bytes,
            handle_bytes: self.handles.kernel_bytes(),
            queue_bytes,
            user_frame_bytes: self.frames.frames_in_use() * PAGE_SIZE,
        }
    }
}
