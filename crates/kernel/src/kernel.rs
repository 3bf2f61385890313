//! The kernel coordinator: shard construction, placement, god-mode
//! surface, and the run loop.
//!
//! The kernel is a set of [`KernelShard`]s — each a complete, isolated
//! delivery engine (see [`crate::shard`]) — plus one router owning
//! everything cross-shard (the port table, global environment, per-shard
//! inboxes, federation egress) and this coordinator. The coordinator
//! owns placement (which shard a spawned process lands on), drives the
//! run loop, and merges per-shard statistics, clocks, and memory reports
//! into the whole-kernel views the paper figures read.
//!
//! **Run loop.** A cross-shard send is pushed onto the destination
//! shard's inbox the moment it resolves, mid-drain, and every shard pulls
//! its own inbox whenever its mailboxes empty — *sub-round routing*.
//! [`Kernel::run`] is one loop on the calling thread: sweep the shards in
//! shard order, draining each busy one to local idle while it holds the
//! router as `&mut`, and repeat until nothing is queued, in flight or
//! parked. A message forwarded *backwards* in sweep order is picked up on
//! the next sweep. A single-shard kernel is the same loop at `n = 1`.
//! Nothing here is shared between threads, so nothing is locked.
//!
//! Shards are a *model* of parallel cores — [`Kernel::elapsed_cycles`] is
//! the busiest shard's clock — and a partition that bounds queues per
//! shard, not host threads: the paper scales OKWS with event processes
//! multiplexed on one delivery loop (§6), and a worker pool measured
//! 0.5× of this sweep on the host (see the README).
//!
//! **Determinism contract.** The schedule is a function of the spawn
//! order, injections, seed, and shard count, at every shard count: the
//! same inputs give the same ordered delivery trace, `Stats`, clocks and
//! memory report (`kernel/tests/sharding.rs` pins this). A kernel with
//! `shards = 1` never routes and is pinned bit-for-bit against the
//! pre-sharding engine by `tests/shard_determinism.rs`, so all paper
//! figures (fig6–fig9) are unaffected. Across shard counts, multi-shard
//! runs guarantee per-sender-per-port FIFO delivery, Figure 4 evaluation
//! on the destination shard against destination state, and the same
//! delivery/drop multisets for independent traffic chains.

use std::sync::Arc;

use asbestos_labels::{Handle, Label};

use crate::cycles::{Category, CostModel, CycleClock, CycleSnapshot};
use crate::delivery::DeliveryOutcome;
use crate::event_process::EventProcess;
use crate::handle_table::HandleTable;
use crate::ids::{EpId, ProcessId, MAX_SHARDS};
use crate::memory::PAGE_SIZE;
use crate::message::QueuedMessage;
use crate::process::{Body, EpService, Process, Service};
use crate::router::{PullPoint, Router};
use crate::shard::KernelShard;
use crate::stats::Stats;
use crate::value::Value;

/// Default bound on queued messages per shard (the resource-exhaustion
/// backstop §8 mentions; drops past this limit are silent, like label
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
    /// The cross-shard inboxes' headers and spare capacity. Always zero
    /// on a single-shard kernel.
    pub xshard_bytes: usize,
}

impl KmemReport {
    /// Total allocated bytes, kernel plus user.
    pub fn total_bytes(&self) -> usize {
        self.process_bytes
            + self.ep_bytes
            + self.handle_bytes
            + self.queue_bytes
            + self.user_frame_bytes
            + self.xshard_bytes
    }

    /// Total memory in 4 KiB pages, rounded up (Figure 6's unit).
    pub fn total_pages(&self) -> usize {
        self.total_bytes().div_ceil(PAGE_SIZE)
    }

    /// Adds another report's counts into this one (shard merging).
    pub(crate) fn absorb(&mut self, other: &KmemReport) {
        self.process_bytes += other.process_bytes;
        self.ep_bytes += other.ep_bytes;
        self.handle_bytes += other.handle_bytes;
        self.queue_bytes += other.queue_bytes;
        self.user_frame_bytes += other.user_frame_bytes;
        self.xshard_bytes += other.xshard_bytes;
    }
}

/// The Asbestos kernel simulator.
///
/// A `Kernel` owns every process, event process, port, queued message, and
/// simulated page, partitioned across one or more [`KernelShard`]s, plus
/// the virtual cycle clocks. It is deterministic: the same spawn order,
/// injections, seed, and shard count produce the same schedule, cycle
/// counts, and memory report.
///
/// Drive it by [`Kernel::spawn`]ing services, [`Kernel::inject`]ing
/// external events, and calling [`Kernel::run`].
pub struct Kernel {
    shards: Vec<KernelShard>,
    router: Router,
    /// Sweeps of a multi-shard kernel that delivered something (merged
    /// into [`Stats::rounds`]).
    rounds: u64,
    /// Round-robin cursor for default spawn placement.
    next_spawn_shard: usize,
    /// Round-robin cursor for the `step()` debug scheduler.
    step_cursor: usize,
    /// The boot epoch this kernel was assembled under (§5.1: handle
    /// values are unique *since boot*; the epoch keys the handle cipher
    /// so a rebooted deployment can never re-mint a dead boot's
    /// handles). 0 for ordinary, non-durable kernels.
    boot_epoch: u64,
}

impl Kernel {
    /// Creates a single-shard kernel with the default cost model; `seed`
    /// keys the handle cipher. This is the paper-figure configuration.
    pub fn new(seed: u64) -> Kernel {
        Kernel::new_sharded(seed, 1)
    }

    /// Creates a kernel with `shards` parallel delivery engines.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= MAX_SHARDS`.
    pub fn new_sharded(seed: u64, shards: usize) -> Kernel {
        Kernel::with_boot_epoch(seed, CostModel::default(), shards, 0)
    }

    /// Creates a kernel for boot epoch `epoch` of a durable deployment
    /// (see [`Kernel::boot_epoch`]). The epoch is folded into the handle
    /// cipher's key, so handles minted this boot are disjoint from every
    /// other boot's — §5.1's "unique since boot" across actual reboots.
    /// Epoch 0 is bit-for-bit the ordinary constructor.
    pub fn with_boot_epoch(seed: u64, cost: CostModel, shards: usize, epoch: u64) -> Kernel {
        Kernel::with_cluster_slot(seed, cost, shards, epoch, 0, 1)
    }

    /// Creates the kernel for cluster slot `slot` of a `slots`-kernel
    /// federation (see `crates/cluster`). Shard `i` of slot `k` mints
    /// handles from cipher lane `k*shards + i` of `slots*shards`, so
    /// handle values are unique across the *whole* federation — the
    /// property that lets a serialized handle cross the wire and stay
    /// meaningful (§5.1's uniqueness, cluster-wide) — and a handle's value
    /// names its home: lane `l` is kernel `l / shards`, shard
    /// `l % shards`. A send to a handle on another kernel's lane leaves
    /// through [`Kernel::take_remote_egress`]. Slot 0 of 1 is bit-for-bit
    /// the ordinary constructor.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= MAX_SHARDS` and `slot < slots`.
    pub fn with_cluster_slot(
        seed: u64,
        cost: CostModel,
        shards: usize,
        epoch: u64,
        slot: usize,
        slots: usize,
    ) -> Kernel {
        assert!(
            (1..=MAX_SHARDS).contains(&shards),
            "shard count must be in 1..={MAX_SHARDS}"
        );
        assert!(slot < slots, "cluster slot must be in 0..{slots}");
        // Shard `i` mints from lane `slot * shards + i`.
        let handles = HandleTable::with_partition(
            mix_epoch(seed, epoch),
            (slot * shards) as u64,
            shards,
            (slots * shards) as u64,
        );
        Kernel {
            shards: (0..shards)
                .map(|i| KernelShard::new(i as u16, cost.clone()))
                .collect(),
            router: Router::new(handles, shards),
            rounds: 0,
            next_spawn_shard: 0,
            step_cursor: 0,
            boot_epoch: epoch,
        }
    }

    /// Number of kernel shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// Read-only access to one shard (god-mode observability).
    pub fn shard(&self, shard: usize) -> &KernelShard {
        &self.shards[shard]
    }

    // ------------------------------------------------------------------
    // Spawning.
    // ------------------------------------------------------------------

    /// Spawns an ordinary service process with default labels and empty
    /// environment, then runs its `on_start` hook. Placement is
    /// round-robin across shards; use [`Kernel::spawn_on`] to pin.
    pub fn spawn(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> ProcessId {
        let shard = self.pick_shard();
        self.spawn_on(shard, name, category, service)
    }

    /// Spawns an ordinary service process on a specific shard.
    pub fn spawn_on(
        &mut self,
        shard: usize,
        name: &str,
        category: Category,
        service: Box<dyn Service>,
    ) -> ProcessId {
        self.shards[shard].spawn_body(&mut self.router, name, category, Body::Plain(service), None)
    }

    /// Spawns an event-process service (§6): after `on_base_start` returns,
    /// every message to a base-owned port forks a fresh event process.
    /// Placement is round-robin; use [`Kernel::spawn_ep_service_on`] to pin.
    pub fn spawn_ep_service(
        &mut self,
        name: &str,
        category: Category,
        service: Box<dyn EpService>,
    ) -> ProcessId {
        let shard = self.pick_shard();
        self.spawn_ep_service_on(shard, name, category, service)
    }

    /// Spawns an event-process service on a specific shard.
    pub fn spawn_ep_service_on(
        &mut self,
        shard: usize,
        name: &str,
        category: Category,
        service: Box<dyn EpService>,
    ) -> ProcessId {
        self.shards[shard].spawn_body(&mut self.router, name, category, Body::Event(service), None)
    }

    fn pick_shard(&mut self) -> usize {
        let shard = self.next_spawn_shard;
        self.next_spawn_shard = (shard + 1) % self.shards.len();
        shard
    }

    // ------------------------------------------------------------------
    // External world (god-mode).
    // ------------------------------------------------------------------

    /// Injects a message from outside the label system (device interrupts,
    /// test drivers). Injected messages carry `E_S = {⋆}` and therefore pass
    /// every label check — they model hardware, not processes — and, like
    /// hardware, they bypass the queue bounds.
    pub fn inject(&mut self, port: Handle, body: Value) {
        let dest = self.router.arrival_shard(port);
        let shard = &mut self.shards[dest];
        shard.stats.injected += 1;
        shard.mailboxes.push(QueuedMessage {
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
    /// destination shard's queues under exactly the rules a local
    /// cross-shard arrival faces — destination-side queue bounds,
    /// `Stats::sent` accounting, and the delivery-time Figure 4 check
    /// against this kernel's state when it is popped. It is enqueued on
    /// the shard of the lane that minted its port; a port with no vnode
    /// there drops `NoSuchPort`, and an arrival never leaves again.
    pub fn inject_remote(&mut self, rs: crate::message::RemoteSend) {
        let dest = self.router.arrival_shard(rs.port);
        self.shards[dest].enqueue_checked(QueuedMessage {
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

    /// Sets the per-shard message-queue bound. Sends past the bound drop
    /// silently, the same way label failures do (§4, §8). On a
    /// single-shard kernel this is the whole-kernel bound it always was.
    pub fn set_queue_limit(&mut self, limit: usize) {
        for shard in &mut self.shards {
            shard.queue_limit = limit;
        }
    }

    /// Sets the per-port message-queue bound. A port whose mailbox holds
    /// this many pending messages silently drops further sends
    /// ([`crate::DropReason::PortQueueFull`]), so one hot port cannot
    /// consume a shard's whole queue budget and starve its neighbors.
    pub fn set_port_queue_limit(&mut self, limit: usize) {
        for shard in &mut self.shards {
            shard.port_queue_limit = limit;
        }
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
        let p = &mut self.shards[pid.shard()].processes[pid.index()];
        if let Some(s) = send {
            p.send_label = Arc::new(s);
        }
        if let Some(r) = recv {
            p.recv_label = Arc::new(r);
        }
    }

    /// Clean shutdown: runs every live plain service's
    /// [`Service::on_teardown`] hook, shard by shard. Call after
    /// [`Kernel::run`] has drained the system and before dropping the
    /// kernel; durable services (ok-dbproxy) flush their write-ahead
    /// logs here. A crash is modeled by *not* calling this — the next
    /// boot then recovers the committed prefix only.
    pub fn teardown(&mut self) {
        let Kernel { shards, router, .. } = self;
        for shard in shards {
            shard.teardown(router);
        }
    }

    /// Forcibly terminates a process (god-mode; used for failure injection).
    pub fn kill_process(&mut self, pid: ProcessId) {
        let shard = &mut self.shards[pid.shard()];
        if shard.processes[pid.index()].alive {
            shard.processes[pid.index()].alive = false;
            shard.processes[pid.index()].body = None;
            shard.cleanup_process(&mut self.router, pid);
        }
    }

    // ------------------------------------------------------------------
    // Scheduling.
    // ------------------------------------------------------------------

    /// Attempts one message delivery. Returns `false` when no message is
    /// pending (the system is idle).
    ///
    /// This is the debug scheduler: on a multi-shard kernel it
    /// round-robins one delivery at a time across shards and routes after
    /// every step, where [`Kernel::run`] drains each shard to local idle
    /// in turn. On a single-shard kernel the two deliver in the same
    /// order.
    pub fn step(&mut self) -> bool {
        self.step_outcome() != DeliveryOutcome::Idle
    }

    /// Attempts one message delivery and reports what happened.
    pub fn step_outcome(&mut self) -> DeliveryOutcome {
        let n = self.shards.len();
        loop {
            // Route first: cross-shard sends (including coordinator-phase
            // ones, e.g. from a handler inside `spawn`'s on_start) sit in
            // the destination's inbox until it drains them.
            self.route_parked(PullPoint::Barrier);
            for i in 0..n {
                let idx = (self.step_cursor + i) % n;
                if self.shards[idx].mailboxes.len() > 0 {
                    let outcome = self.shards[idx].step_outcome(&mut self.router);
                    self.step_cursor = (idx + 1) % n;
                    return outcome;
                }
            }
            // Every mailbox is empty; only an empty in-flight set too
            // means the kernel is truly idle. (A pull above can come up
            // empty of *deliverable* messages when queue bounds drop the
            // whole batch, so re-check rather than assume.)
            if self.router.pending() == 0 {
                return DeliveryOutcome::Idle;
            }
        }
    }

    /// Runs until every shard's queue drains, with a safety bound; returns
    /// the number of delivery attempts.
    ///
    /// # Panics
    ///
    /// Panics when `limit` deliveries have run and a message is still
    /// pending — two services ping-ponging messages forever is a bug in
    /// simulated code, not a state to spin in. The bound covers the whole
    /// run, whatever the shard count.
    pub fn run_limited(&mut self, limit: u64) -> u64 {
        // Anything sent across shards outside `run()` (a handler inside
        // `spawn`'s on_start, say) waited for this call: a barrier pull.
        self.route_parked(PullPoint::Barrier);
        let mut steps = 0u64;
        loop {
            let before = steps;
            for shard in &mut self.shards {
                if shard.queue_len(&self.router) > 0 {
                    steps += shard.drain_round(&mut self.router, limit - steps);
                    assert!(
                        shard.mailboxes.len() == 0,
                        "kernel did not go idle after {limit} deliveries: livelock in simulated services?"
                    );
                }
            }
            if steps > before && self.shards.len() > 1 {
                // Rounds are a multi-shard notion
                // (`tests/shard_determinism.rs` pins `rounds == 0` at 1).
                self.rounds += 1;
            }
            if self.queue_len() == 0 {
                return steps;
            }
        }
    }

    /// Runs until idle with a generous default bound.
    pub fn run(&mut self) -> u64 {
        self.run_limited(100_000_000)
    }

    /// Pulls every shard's inbox into its mailboxes (with
    /// destination-side queue bounds). The nothing-in-flight case —
    /// every step of a cross-shard-free workload — costs O(shards)
    /// length reads.
    fn route_parked(&mut self, point: PullPoint) {
        if self.router.pending() > 0 {
            for shard in &mut self.shards {
                shard.pull_inbound(&mut self.router, point);
            }
        }
    }

    // ------------------------------------------------------------------
    // God-mode observability (whole-kernel views over the shards).
    // ------------------------------------------------------------------

    /// Kernel statistics, merged across shards, plus the coordinator's
    /// own round counter.
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats());
        }
        total.rounds += self.rounds;
        total
    }

    /// The virtual clock, merged across shards (per-category totals sum;
    /// `now` is total cycles consumed everywhere).
    pub fn clock(&self) -> CycleClock {
        let mut total = CycleClock::new();
        for shard in &self.shards {
            total.absorb(&shard.clock);
        }
        total
    }

    /// Snapshot of the merged clock for interval measurements.
    pub fn cycle_snapshot(&self) -> CycleSnapshot {
        self.clock().snapshot()
    }

    /// Current virtual time in cycles (total cycles across shards — the
    /// work metric). For the *elapsed-time* view of a parallel kernel use
    /// [`Kernel::elapsed_cycles`].
    pub fn now(&self) -> u64 {
        self.shards.iter().map(|s| s.clock.now()).sum()
    }

    /// Modeled elapsed time in cycles: the busiest shard's clock. Shards
    /// are parallel cores, so the slowest one bounds the simulated wall
    /// clock; timestamps and latency measurements must use this, not
    /// [`Kernel::now`]'s summed total. Identical to `now()` on a
    /// single-shard kernel.
    pub fn elapsed_cycles(&self) -> u64 {
        self.shards.iter().map(|s| s.clock.now()).max().unwrap_or(0)
    }

    /// Every shard's virtual clock, in shard order. The maximum is
    /// [`Kernel::elapsed_cycles`]. The whole vector is a function of the
    /// kernel's inputs, so tests compare it across runs as a determinism
    /// fingerprint.
    pub fn per_shard_elapsed_cycles(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.clock.now()).collect()
    }

    /// Read-only access to a process.
    pub fn process(&self, pid: ProcessId) -> &Process {
        &self.shards[pid.shard()].processes[pid.index()]
    }

    /// Read-only access to an event process.
    pub fn event_process(&self, eid: EpId) -> &EventProcess {
        &self.shards[eid.shard()].eps[eid.index()]
    }

    /// All live event-process ids for a process.
    pub fn live_eps(&self, pid: ProcessId) -> Vec<EpId> {
        self.shards[pid.shard()].processes[pid.index()].eps.clone()
    }

    /// Total event processes ever created.
    pub fn ep_count(&self) -> usize {
        self.shards.iter().map(|s| s.eps.len()).sum()
    }

    /// Number of processes ever spawned.
    pub fn process_count(&self) -> usize {
        self.shards.iter().map(|s| s.processes.len()).sum()
    }

    /// Finds a process by debug name (god-mode test convenience).
    pub fn find_process(&self, name: &str) -> Option<ProcessId> {
        for shard in &self.shards {
            if let Some(i) = shard.processes.iter().position(|p| p.name == name) {
                return Some(ProcessId::new(shard.id, i));
            }
        }
        None
    }

    /// The kernel's handle table: every live port, on every shard.
    pub fn handle_table(&self) -> &HandleTable {
        &self.router.handles
    }

    /// Pending (sent but undelivered) messages across all shards:
    /// mailboxes and the in-flight cross-shard inboxes.
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.queue_len(&self.router)).sum()
    }

    /// Pending messages sent by a given process (god-mode; used by tests to
    /// verify that compromised services actually attempted exfiltration).
    pub fn queued_from(&self, pid: ProcessId) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.mailboxes.iter().chain(self.router.inbox(s.id as usize)))
            .filter(|m| m.from.is_some_and(|c| c.pid == pid))
            .count()
    }

    /// Downcasts a process's service body for test inspection.
    pub fn service_as<T: 'static>(&self, pid: ProcessId) -> Option<&T> {
        match self.shards[pid.shard()].processes[pid.index()]
            .body
            .as_ref()?
        {
            Body::Plain(s) => s.as_any()?.downcast_ref::<T>(),
            Body::Event(s) => s.as_any()?.downcast_ref::<T>(),
        }
    }

    /// Memory accounting across all kernel structures and user frames
    /// (Figure 6's measurement), merged across shards, plus the port
    /// table and the cross-shard inboxes' bookkeeping (zero on a
    /// single-shard kernel, which never touches them).
    pub fn kmem_report(&self) -> KmemReport {
        let mut total = KmemReport::default();
        for shard in &self.shards {
            total.absorb(&shard.kmem_report(&self.router));
        }
        total.handle_bytes = self.router.handles.kernel_bytes();
        if self.shards.len() > 1 {
            total.xshard_bytes = self.router.bookkeeping_bytes();
        }
        total
    }
}
