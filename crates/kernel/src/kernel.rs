//! The kernel: construction, the god-mode surface, and the run loop.
//!
//! A kernel is one delivery engine (see [`crate::shard`]) plus the router
//! that holds the port table, the global environment and, on a federated
//! kernel, the egress queue. [`Kernel::run`] drains the engine on the
//! calling thread until nothing is queued: the paper's one delivery loop,
//! on which §6 multiplexes event processes. Nothing here is shared between
//! threads, so nothing is locked. A kernel spreads across machines only
//! by federation (`crates/cluster`): kernel `k` of `N` mints handles from
//! cipher lane `k`, and a send to a port another kernel minted leaves
//! through egress.
//!
//! **Determinism contract.** The schedule is a function of the spawn
//! order, injections and seed: the same inputs give the same ordered
//! delivery trace, `Stats`, clock and memory report, pinned bit-for-bit
//! by `tests/shard_determinism.rs`, so all paper figures (fig6–fig9) are
//! reproducible.

use std::sync::Arc;

use asbestos_labels::{Handle, Label};

use crate::cycles::{Category, CostModel, CycleClock, CycleSnapshot};
use crate::delivery::DeliveryOutcome;
use crate::event_process::EventProcess;
use crate::handle_table::HandleTable;
use crate::ids::{EpId, ProcessId};
use crate::memory::PAGE_SIZE;
use crate::message::QueuedMessage;
use crate::process::{Body, EpService, Process, Service};
use crate::router::Router;
use crate::shard::Engine;
use crate::stats::Stats;
use crate::value::Value;

/// Default bound on queued messages (the resource-exhaustion backstop
/// §8 mentions; drops past this limit are silent, like label
/// drops).
pub const DEFAULT_QUEUE_LIMIT: usize = 1 << 20;

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

/// The Asbestos kernel simulator.
///
/// A `Kernel` owns every process, event process, port, queued message, and
/// simulated page, in one delivery engine, plus the virtual cycle clock.
/// It is deterministic: the same spawn order, injections, and seed produce
/// the same schedule, cycle counts, and memory report.
///
/// Drive it by [`Kernel::spawn`]ing services, [`Kernel::inject`]ing
/// external events, and calling [`Kernel::run`].
pub struct Kernel {
    engine: Engine,
    router: Router,
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
        let handles =
            HandleTable::with_partition(mix_epoch(seed, epoch), slot as u64, slots as u64);
        Kernel {
            engine: Engine::new(cost),
            router: Router::new(handles),
            boot_epoch: epoch,
        }
    }

    /// Always 1: a kernel is one delivery engine. Kept only because
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

    /// The kernel's delivery engine, whatever the argument. Kept only
    /// because `benchmark/` (which a crate PR may not edit) reads its
    /// [`Engine::busy_nanos`] and
    /// [`Engine::delivery_cache_capacity`] through it; the
    /// `[benchmark]` PR deletes it.
    pub fn shard(&self, _shard: usize) -> &Engine {
        &self.engine
    }

    // ------------------------------------------------------------------
    // Spawning.
    // ------------------------------------------------------------------

    /// Spawns an ordinary service process with default labels and empty
    /// environment, then runs its `on_start` hook.
    pub fn spawn(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> ProcessId {
        self.engine
            .spawn_body(&mut self.router, name, category, Body::Plain(service), None)
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
        self.engine
            .spawn_body(&mut self.router, name, category, Body::Event(service), None)
    }

    // ------------------------------------------------------------------
    // External world (god-mode).
    // ------------------------------------------------------------------

    /// Injects a message from outside the label system (device interrupts,
    /// test drivers). Injected messages carry `E_S = {⋆}` and therefore pass
    /// every label check — they model hardware, not processes — and, like
    /// hardware, they bypass the queue bounds.
    pub fn inject(&mut self, port: Handle, body: Value) {
        self.engine.stats.injected += 1;
        self.engine.mailboxes.push(QueuedMessage {
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
    pub fn take_remote_egress(&mut self) -> Vec<(usize, crate::message::RemoteSend)> {
        self.router.take_egress()
    }

    /// Ingests one message forwarded from another kernel: it joins the
    /// mailboxes under exactly the rules a local send faces — queue
    /// bounds, `Stats::sent` accounting, and the delivery-time Figure 4
    /// check against this kernel's state when it is popped. A port with
    /// no vnode here drops `NoSuchPort`, and an arrival never leaves
    /// again.
    pub fn inject_remote(&mut self, rs: crate::message::RemoteSend) {
        self.engine.enqueue_checked(QueuedMessage {
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
    /// ([`Sys::publish_env`](crate::Sys::publish_env)) or by
    /// [`Kernel::set_global_env`] — for the gateway to replicate (§4's
    /// bootstrap namespace is cluster-global). Always empty on a kernel
    /// with one cluster slot, which logs nothing.
    pub fn take_env_log(&mut self) -> Vec<(String, Value)> {
        self.router.take_env_log()
    }

    /// Applies a global environment write another kernel made. Unlike
    /// [`Kernel::set_global_env`] it is not logged, so it is never sent
    /// back.
    pub fn apply_remote_env(&mut self, key: &str, value: Value) {
        self.router.env_apply(key, value);
    }

    /// Sets a global environment entry (the §4 bootstrapping namespace,
    /// written by init/launcher-level code).
    pub fn set_global_env(&mut self, key: &str, value: Value) {
        self.router.env_set(key, value);
    }

    /// Reads a global environment entry.
    pub fn global_env(&self, key: &str) -> Option<Value> {
        self.router.env_get(key)
    }

    /// Reads a global environment entry that names a port or handle —
    /// the common shape for service discovery (netd lanes, OKWS ports).
    pub fn global_env_handle(&self, key: &str) -> Option<Handle> {
        self.router.env_get(key).and_then(|v| v.as_handle())
    }

    /// Sets the kernel's message-queue bound. Sends past the bound drop
    /// silently, the same way label failures do (§4, §8).
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.engine.queue_limit = limit;
    }

    /// Sets the per-port message-queue bound. A port whose mailbox holds
    /// this many pending messages silently drops further sends
    /// ([`crate::DropReason::PortQueueFull`]), so one hot port cannot
    /// consume the kernel's whole queue budget and starve its neighbors.
    pub fn set_port_queue_limit(&mut self, limit: usize) {
        self.engine.port_queue_limit = limit;
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
        let p = &mut self.engine.processes[pid.index()];
        if let Some(s) = send {
            p.send_label = Arc::new(s);
        }
        if let Some(r) = recv {
            p.recv_label = Arc::new(r);
        }
    }

    /// Clean shutdown: runs every live plain service's
    /// [`Service::on_teardown`] hook. Call after
    /// [`Kernel::run`] has drained the system and before dropping the
    /// kernel; durable services (ok-dbproxy) flush their write-ahead
    /// logs here. A crash is modeled by *not* calling this — the next
    /// boot then recovers the committed prefix only.
    pub fn teardown(&mut self) {
        self.engine.teardown(&mut self.router);
    }

    /// Forcibly terminates a process (god-mode; used for failure injection).
    pub fn kill_process(&mut self, pid: ProcessId) {
        let engine = &mut self.engine;
        if engine.processes[pid.index()].alive {
            engine.processes[pid.index()].alive = false;
            engine.processes[pid.index()].body = None;
            engine.cleanup_process(&mut self.router, pid);
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

    /// Attempts one message delivery and reports what happened.
    pub fn step_outcome(&mut self) -> DeliveryOutcome {
        self.engine.step_outcome(&mut self.router)
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
        let steps = self.engine.drain(&mut self.router, limit);
        assert!(
            self.engine.mailboxes.len() == 0,
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

    /// Kernel statistics.
    pub fn stats(&self) -> Stats {
        self.engine.stats()
    }

    /// The virtual clock.
    pub fn clock(&self) -> CycleClock {
        self.engine.clock.clone()
    }

    /// Snapshot of the clock for interval measurements.
    pub fn cycle_snapshot(&self) -> CycleSnapshot {
        self.engine.clock.snapshot()
    }

    /// Current virtual time in cycles.
    pub fn now(&self) -> u64 {
        self.engine.clock.now()
    }

    /// The same as [`Kernel::now`]: one delivery engine has one clock.
    /// Kept only because `benchmark/` (which a crate PR may not edit)
    /// reads it; the `[benchmark]` PR deletes it.
    pub fn elapsed_cycles(&self) -> u64 {
        self.now()
    }

    /// Read-only access to a process.
    pub fn process(&self, pid: ProcessId) -> &Process {
        &self.engine.processes[pid.index()]
    }

    /// Read-only access to an event process.
    pub fn event_process(&self, eid: EpId) -> &EventProcess {
        &self.engine.eps[eid.index()]
    }

    /// All live event-process ids for a process.
    pub fn live_eps(&self, pid: ProcessId) -> Vec<EpId> {
        self.engine.processes[pid.index()].eps.clone()
    }

    /// Total event processes ever created.
    pub fn ep_count(&self) -> usize {
        self.engine.eps.len()
    }

    /// Number of processes ever spawned.
    pub fn process_count(&self) -> usize {
        self.engine.processes.len()
    }

    /// Finds a process by debug name (god-mode test convenience).
    pub fn find_process(&self, name: &str) -> Option<ProcessId> {
        let index = self.engine.processes.iter().position(|p| p.name == name)?;
        Some(ProcessId::new(index))
    }

    /// The kernel's handle table: every live port.
    pub fn handle_table(&self) -> &HandleTable {
        &self.router.handles
    }

    /// Pending (sent but undelivered) messages.
    pub fn queue_len(&self) -> usize {
        self.engine.mailboxes.len()
    }

    /// Pending messages sent by a given process (god-mode; used by tests to
    /// verify that compromised services actually attempted exfiltration).
    pub fn queued_from(&self, pid: ProcessId) -> usize {
        self.engine
            .mailboxes
            .iter()
            .filter(|m| m.from.is_some_and(|c| c.pid == pid))
            .count()
    }

    /// Downcasts a process's service body for test inspection.
    pub fn service_as<T: 'static>(&self, pid: ProcessId) -> Option<&T> {
        match self.engine.processes[pid.index()].body.as_ref()? {
            Body::Plain(s) => s.as_any()?.downcast_ref::<T>(),
            Body::Event(s) => s.as_any()?.downcast_ref::<T>(),
        }
    }

    /// Memory accounting across all kernel structures and user frames
    /// (Figure 6's measurement), the port table included.
    pub fn kmem_report(&self) -> KmemReport {
        KmemReport {
            handle_bytes: self.router.handles.kernel_bytes(),
            ..self.engine.kmem_report()
        }
    }
}
