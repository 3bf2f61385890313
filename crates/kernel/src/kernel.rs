//! The kernel coordinator: shard construction, placement, god-mode
//! surface, and the pooled round scheduler.
//!
//! Since PR 2 the kernel is a set of [`KernelShard`]s — each a complete,
//! isolated delivery engine (see [`crate::shard`]) — plus the shared
//! [`Router`] maps and this coordinator. The coordinator owns placement
//! (which shard a spawned process lands on), drives the round schedule,
//! and merges per-shard statistics, clocks, and memory reports into the
//! whole-kernel views the paper figures read.
//!
//! **Round schedule.** Since PR 3 cross-shard messages travel through
//! per-shard inbound channels (see [`crate::router::InboxSet`]): a
//! cross-shard send is pushed into the destination's channel the moment
//! it resolves, mid-drain, and every shard pulls its own channel whenever
//! its mailboxes empty — *sub-round routing*, which spares cross-shard
//! chains one full round of latency per hop. `run()` repeats one phase
//! until quiescence: every shard with pending messages drains to local
//! idle ([`KernelShard::drain_round`]), re-pulling its inbound channel as
//! it goes. How the drains execute depends on the worker budget
//! ([`Kernel::set_worker_threads`]; default: the host's available
//! parallelism, capped at the shard count):
//!
//! * **Parallel** (workers > 1): drains run on a persistent pool of
//!   parked worker threads ([`crate::pool::ShardPool`]), created lazily
//!   on the first round with two or more busy shards and reused across
//!   rounds *and* across `run()` calls — no thread churn, one condvar
//!   handshake per round. Single-busy-shard rounds drain inline on the
//!   coordinator without waking the pool. Messages forwarded to a shard
//!   that already finished its round wait for the next round barrier.
//! * **Sequential** (workers = 1, e.g. a single-core host): the
//!   coordinator sweeps the shards in shard order, each draining to
//!   local idle, until the whole kernel is quiescent — no barriers at
//!   all, and the schedule is fully deterministic.
//!
//! **Determinism contract.** A kernel with `shards = 1` never routes,
//! never spawns a thread, and executes the identical code path the
//! pre-sharding engine did — `tests/shard_determinism.rs` pins that
//! configuration bit-for-bit, so all paper figures (fig6–fig9) are
//! unaffected. Multi-shard runs guarantee, at any worker count:
//! per-sender-per-port FIFO delivery, Figure 4 evaluation on the
//! destination shard against destination state, and
//! scheduling-independent delivery/drop multisets for independent
//! traffic chains (`kernel/tests/sharding.rs` pins this as a property).
//! The *interleaving* across unrelated senders is deterministic when
//! workers = 1; with parallel workers it depends on thread timing, as it
//! would on real parallel hardware. The shared global environment keeps
//! the same carve-out as before; see `router.rs`.

use std::sync::Arc;

use asbestos_labels::{Handle, Label};

use crate::cycles::{Category, CostModel, CycleClock, CycleSnapshot};
use crate::delivery::DeliveryOutcome;
use crate::event_process::EventProcess;
use crate::handle_table::HandleTable;
use crate::handle_table::PortOwner;
use crate::ids::{EpId, ProcessId, MAX_SHARDS};
use crate::memory::PAGE_SIZE;
use crate::message::QueuedMessage;
use crate::pool::ShardPool;
use crate::process::{Body, EpService, Process, Service};
use crate::router::{InboxSet, PullPoint, Router};
use crate::shard::KernelShard;
use crate::stats::Stats;
use crate::tuner::{Action, ShardSample, ShardSignals, Signals, TunePolicy, TunerState};
use crate::value::Value;

/// Default bound on queued messages per shard (the resource-exhaustion
/// backstop §8 mentions; drops past this limit are silent, like label
/// drops).
pub const DEFAULT_QUEUE_LIMIT: usize = 1 << 20;

/// Default worker budget: `ASBESTOS_WORKERS` when set, else the host's
/// available parallelism. A single-core host (or `ASBESTOS_WORKERS` of
/// 0 or 1 — both mean "no worker threads") gets the sequential sweep
/// scheduler, which is also the fully deterministic configuration.
fn default_worker_target() -> usize {
    crate::knobs::count(crate::knobs::WORKERS_ENV)
        .map(|n| n.max(1))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
}

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
    /// Vnodes plus port labels.
    pub handle_bytes: usize,
    /// Queued, undelivered messages.
    pub queue_bytes: usize,
    /// User memory: allocated 4 KiB frames (base tables and EP deltas).
    pub user_frame_bytes: usize,
    /// Scheduler bookkeeping: the worker pool's handles and shared state
    /// plus the cross-shard inbound channels' headers and spare capacity.
    /// Always zero on a single-shard kernel.
    pub pool_bytes: usize,
    /// Self-tuning bookkeeping: the control loop's per-shard counter
    /// samples. Zero until the tuner arms (and therefore always zero on
    /// single-shard or sequential kernels).
    pub tuner_bytes: usize,
}

impl KmemReport {
    /// Total allocated bytes, kernel plus user.
    pub fn total_bytes(&self) -> usize {
        self.process_bytes
            + self.ep_bytes
            + self.handle_bytes
            + self.queue_bytes
            + self.user_frame_bytes
            + self.pool_bytes
            + self.tuner_bytes
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
        self.pool_bytes += other.pool_bytes;
        self.tuner_bytes += other.tuner_bytes;
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
    /// The cross-shard inbound channels (shared with every shard).
    xshard: Arc<InboxSet>,
    /// The persistent worker pool; `None` until the first round that
    /// wants parallel workers, then reused until the kernel drops.
    pool: Option<ShardPool>,
    /// Worker-thread budget for multi-shard rounds (capped at the shard
    /// count when a round is scheduled).
    worker_target: usize,
    /// Scheduler rounds executed (merged into [`Stats::rounds`]).
    rounds: u64,
    /// Wakeups accumulated by pools retired via
    /// [`Kernel::set_worker_threads`], keeping the merged counter
    /// monotone across pool rebuilds.
    retired_wakeups: u64,
    /// Round-robin cursor for default spawn placement.
    next_spawn_shard: usize,
    /// Round-robin cursor for the sequential `step()` debug scheduler.
    step_cursor: usize,
    /// The boot epoch this kernel was assembled under (§5.1: handle
    /// values are unique *since boot*; the epoch keys the handle cipher
    /// so a rebooted deployment can never re-mint a dead boot's
    /// handles). 0 for ordinary, non-durable kernels.
    boot_epoch: u64,
    /// The self-tuning control loop (policy + windowing bookkeeping);
    /// inert unless this kernel schedules nondeterministically (see
    /// [`Kernel::tuning_active`]).
    tuner: TunerState,
}

impl Kernel {
    /// Creates a single-shard kernel with the default cost model; `seed`
    /// keys the handle cipher. This is the paper-figure configuration.
    pub fn new(seed: u64) -> Kernel {
        Kernel::with_cost_model_sharded(seed, CostModel::default(), 1)
    }

    /// Creates a single-shard kernel with an explicit cost model.
    pub fn with_cost_model(seed: u64, cost: CostModel) -> Kernel {
        Kernel::with_cost_model_sharded(seed, cost, 1)
    }

    /// Creates a kernel with `shards` parallel delivery engines.
    pub fn new_sharded(seed: u64, shards: usize) -> Kernel {
        Kernel::with_cost_model_sharded(seed, CostModel::default(), shards)
    }

    /// Creates a sharded kernel with an explicit cost model.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= shards <= MAX_SHARDS`.
    pub fn with_cost_model_sharded(seed: u64, cost: CostModel, shards: usize) -> Kernel {
        Kernel::with_boot_epoch(seed, cost, shards, 0)
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
    /// meaningful (§5.1's uniqueness, cluster-wide). Slot 0 of 1 is
    /// bit-for-bit the ordinary constructor.
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
        let handle_seed = mix_epoch(seed, epoch);
        let xshard = Arc::new(InboxSet::new(shards));
        Kernel {
            shards: (0..shards)
                .map(|i| {
                    KernelShard::new(
                        handle_seed,
                        i as u16,
                        (slot * shards + i) as u64,
                        (slots * shards) as u64,
                        cost.clone(),
                        Arc::clone(&xshard),
                    )
                })
                .collect(),
            router: Router::new(shards),
            xshard,
            pool: None,
            worker_target: default_worker_target(),
            rounds: 0,
            retired_wakeups: 0,
            next_spawn_shard: 0,
            step_cursor: 0,
            boot_epoch: epoch,
            tuner: TunerState::new(),
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

    /// Sets the worker-thread budget for multi-shard rounds (capped at
    /// the shard count when a round runs). `1` forces the sequential
    /// sweep scheduler — fully deterministic interleaving, no threads.
    /// The default is the host's available parallelism, overridable with
    /// the `ASBESTOS_WORKERS` environment variable. Changing the budget
    /// retires an existing pool (joining its workers); the next parallel
    /// round builds a fresh one.
    pub fn set_worker_threads(&mut self, workers: usize) {
        assert!(workers >= 1, "worker budget must be at least 1");
        self.worker_target = workers;
        if self
            .pool
            .as_ref()
            .is_some_and(|pool| pool.workers() != self.effective_workers())
        {
            if let Some(pool) = self.pool.take() {
                self.retired_wakeups += pool.wakeups();
            }
        }
    }

    /// The worker-thread budget currently in effect.
    pub fn worker_threads(&self) -> usize {
        self.worker_target
    }

    /// Times a parked pool worker has woken for a round (0 until a
    /// parallel round has run). Back-to-back `run()` calls keep growing
    /// this without spawning a thread — the pool-reuse observable, also
    /// merged into [`Stats::worker_wakeups`]. Monotone even across a
    /// [`Kernel::set_worker_threads`] pool rebuild.
    pub fn pool_wakeups(&self) -> u64 {
        self.retired_wakeups + self.pool.as_ref().map_or(0, ShardPool::wakeups)
    }

    /// Worker count a parallel round would use right now.
    fn effective_workers(&self) -> usize {
        self.worker_target.min(self.shards.len())
    }

    /// Read-only access to one shard (god-mode observability).
    pub fn shard(&self, shard: usize) -> &KernelShard {
        &self.shards[shard]
    }

    /// The shard currently hosting `port`, per the router directory.
    /// Steals move ports between shards; tests use this to pin where a
    /// migration landed.
    pub fn port_shard(&self, port: Handle) -> usize {
        self.router.shard_of(port) as usize
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
        self.shards[shard].spawn_body(&self.router, name, category, Body::Plain(service), None)
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
        self.shards[shard].spawn_body(&self.router, name, category, Body::Event(service), None)
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
        let dest = self.router.shard_of(port) as usize;
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
        shard.note_queue_depth();
    }

    // ------------------------------------------------------------------
    // Federation (the gateway's surface; see `crates/cluster`).
    // ------------------------------------------------------------------

    /// Records that `port` lives on remote kernel `kernel`. Sends that
    /// resolve neither locally nor in the shard directory and match this
    /// map park in the egress queue instead of hash-routing — the
    /// gateway drains them with [`Kernel::take_remote_egress`]. Ignored
    /// (with a debug assertion) for ports this kernel owns: the local
    /// vnode table is always authoritative.
    pub fn register_remote_port(&mut self, port: Handle, kernel: u16) {
        debug_assert!(
            !self.is_local_port(port),
            "a local port cannot be remote-registered"
        );
        if self.is_local_port(port) {
            return;
        }
        self.router.register_remote_port(port, kernel);
    }

    /// Forgets a remote port binding.
    pub fn unregister_remote_port(&mut self, port: Handle) {
        self.router.unregister_remote_port(port);
    }

    /// Drains every message parked for another kernel, in send order.
    /// The sender-side Figure 4 checks already ran; the destination
    /// kernel applies the delivery-time check when these are injected
    /// there ([`Kernel::inject_remote`]).
    pub fn take_remote_egress(&mut self) -> Vec<crate::message::RemoteSend> {
        self.router.take_egress()
    }

    /// Ingests one message forwarded from another kernel: it joins the
    /// destination shard's queues under exactly the rules a local
    /// cross-shard arrival faces — destination-side queue bounds (or
    /// backpressure parking when armed), `Stats::sent` accounting, and
    /// the delivery-time Figure 4 check against this kernel's state when
    /// it is popped. An unknown port hash-routes and drops `NoSuchPort`,
    /// as everywhere else.
    pub fn inject_remote(&mut self, rs: crate::message::RemoteSend) {
        let dest = if self.is_local_port(rs.port) {
            // The directory only tracks multi-shard kernels; resolve by
            // scanning the vnode tables so single-shard federations work
            // identically.
            self.shards
                .iter()
                .position(|s| s.handles.get(rs.port).is_some())
                .expect("is_local_port found a shard") as u16
        } else {
            self.router.shard_of(rs.port)
        };
        self.shards[dest as usize].enqueue_inbound(QueuedMessage {
            port: rs.port,
            body: rs.body,
            es: rs.es,
            ds: rs.ds,
            dr: rs.dr,
            v: rs.v,
            from: None,
        });
    }

    /// Whether any shard of this kernel owns a vnode for `port`.
    pub fn is_local_port(&self, port: Handle) -> bool {
        self.shards.iter().any(|s| s.handles.get(port).is_some())
    }

    /// Snapshot of the whole global environment, in key order (the
    /// gateway diffs this against its mirror to replicate §4 bootstrap
    /// state across kernels).
    pub fn global_env_snapshot(&self) -> Vec<(String, Value)> {
        self.router.env_snapshot()
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

    /// Arms (or disarms) overload control: credit-based send windows,
    /// the retry queue, and `WouldBlock` refusals (see
    /// [`crate::backpressure`]). Off by default — the disarmed kernel is
    /// bit-identical to the pre-overload-control one, which is what the
    /// determinism goldens pin.
    pub fn set_backpressure(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.bp.enabled = on;
        }
    }

    /// Whether overload control is armed.
    pub fn backpressure_enabled(&self) -> bool {
        self.shards[0].bp.enabled
    }

    /// Sets every shard's shed threshold: the mailbox depth at which
    /// [`crate::Sys::overloaded`] starts reporting true to
    /// deployment-side shedders. `usize::MAX` (the default) means never.
    /// Under the adaptive runtime the tuner's shed loop moves this per
    /// shard ([`crate::Action::SetShedThreshold`]).
    pub fn set_shed_threshold(&mut self, threshold: usize) {
        for shard in &mut self.shards {
            shard.shed_threshold = threshold;
        }
    }

    /// Always 0: there is no delivery-decision cache. Read only by
    /// `benchmark/`; see the note on [`Stats::cache_hits`].
    pub fn delivery_cache_len(&self) -> usize {
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
            shard.cleanup_process(&self.router, pid);
        }
    }

    // ------------------------------------------------------------------
    // The self-tuning control loop (signals → policy → actuator; see
    // `tuner.rs` for the policy layer).
    // ------------------------------------------------------------------

    /// Whether the control loop runs between rounds right now. Always
    /// requires more than one shard. By default (`ASBESTOS_TUNE` not
    /// off, no programmatic override) it additionally requires parallel
    /// pool workers (`effective_workers > 1`): sequential and
    /// single-shard kernels are the deterministic configurations the
    /// golden-trace suites pin, so ambient tuning never touches them.
    /// An explicit [`Kernel::set_tuning_enabled`]`(true)` arms the loop
    /// even under the sequential sweep — the caller is deliberately
    /// trading scheduling determinism for tuning (benches do this so
    /// per-shard `busy_nanos` stays a clean, non-overlapping measure
    /// while the tuner runs).
    pub fn tuning_active(&self) -> bool {
        self.shards.len() > 1
            && match self.tuner.override_enabled {
                Some(on) => on,
                None => self.effective_workers() > 1 && self.tuner.env_enabled,
            }
    }

    /// Forces the control loop on or off, overriding both `ASBESTOS_TUNE`
    /// and the parallel-workers gate (the multi-shard gate still
    /// applies). Benches pin tuning per run with this.
    pub fn set_tuning_enabled(&mut self, on: bool) {
        self.tuner.override_enabled = Some(on);
    }

    /// Installs a tuning policy (thresholds are data, not code — see
    /// [`TunePolicy`]). The default is [`crate::DefaultPolicy`].
    pub fn set_tune_policy(&mut self, policy: Box<dyn TunePolicy>) {
        self.tuner.policy = policy;
    }

    /// Tuning actions actually applied so far (steals + shed moves).
    /// The determinism guard pins this at 0 for sequential runs.
    pub fn tuner_actions(&self) -> u64 {
        self.tuner.actions_applied
    }

    /// One control-loop iteration: snapshot an observation window, let
    /// the policy observe and adjust, apply the actions. Runs between
    /// drain rounds, when the coordinator holds `&mut` over every shard
    /// — no locking, and no handler can be mid-delivery.
    fn tune(&mut self) {
        if !self.tuning_active() {
            return;
        }
        let n = self.shards.len();
        if self.tuner.last.len() != n {
            // First window: arm the load tracking and baseline the
            // counters; deltas start accumulating from here.
            self.tuner.last = (0..n).map(|i| Self::sample(&self.shards[i])).collect();
            for shard in &mut self.shards {
                shard.mailboxes.set_track_load(true);
                shard.mailboxes.take_port_arrivals();
            }
            return;
        }
        let mut signals = Signals {
            shards: Vec::with_capacity(n),
        };
        for i in 0..n {
            let arrivals = self.shards[i].mailboxes.take_port_arrivals();
            let shard = &self.shards[i];
            let cur = Self::sample(shard);
            let prev = self.tuner.last[i];
            self.tuner.last[i] = cur;
            // Hottest steal-eligible destination ports first; ties break
            // on the handle value so the ordering is stable.
            let mut hot_ports: Vec<(Handle, u64)> = arrivals
                .into_iter()
                .filter(|&(port, _)| Self::steal_eligible(shard, port).is_some())
                .collect();
            hot_ports.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            hot_ports.truncate(4);
            signals.shards.push(ShardSignals {
                busy_nanos: cur.busy_nanos - prev.busy_nanos,
                delivered: cur.delivered - prev.delivered,
                queue_depth_hwm: shard.stats.queue_depth_hwm,
                port_queue_drops: cur.port_queue_drops - prev.port_queue_drops,
                hot_ports,
                shed_threshold: shard.shed_threshold,
            });
        }
        self.tuner.policy.observe(&signals);
        let actions = self.tuner.policy.adjust(&signals);
        for action in actions {
            match action {
                Action::StealPort { port, to_shard } => {
                    if self.migrate_port_owner(port, to_shard).is_some() {
                        self.tuner.actions_applied += 1;
                    }
                }
                Action::SetShedThreshold { shard, threshold } => {
                    if shard < n && self.shards[shard].shed_threshold != threshold {
                        self.shards[shard].shed_threshold = threshold;
                        self.tuner.actions_applied += 1;
                    }
                }
            }
        }
    }

    fn sample(shard: &KernelShard) -> ShardSample {
        ShardSample {
            busy_nanos: shard.busy_nanos,
            delivered: shard.stats.delivered,
            port_queue_drops: shard.stats.dropped_port_queue_full,
        }
    }

    /// Whether `port`'s owner can migrate off `shard` right now: a live
    /// plain-bodied process with no live event processes (an EP's delta
    /// chain is pinned to its base's shard) and not mid-handler — always
    /// true between rounds.
    fn steal_eligible(shard: &KernelShard, port: Handle) -> Option<ProcessId> {
        match shard.handles.port(port)?.owner {
            Some(PortOwner::Process(pid)) => {
                let p = &shard.processes[pid.index()];
                (p.alive && p.eps.is_empty() && p.body.is_some()).then_some(pid)
            }
            _ => None,
        }
    }

    /// The work-steal actuator: migrates `port`'s owning process — its
    /// labels, memory, every port it owns, and each port's *whole*
    /// pending queue — onto `to_shard`, re-registering its ports in the
    /// Router directory. Returns the process's new id, or `None` when
    /// the port has no currently-eligible owner. Also a public god-mode
    /// surface so tests can drive explicit steal schedules and pin the
    /// FIFO/multiset invariants deterministically.
    ///
    /// Must only be called between rounds (or outside `run()`), which is
    /// the only time the coordinator can hold `&mut self` anyway.
    pub fn migrate_port_owner(&mut self, port: Handle, to_shard: usize) -> Option<ProcessId> {
        let n = self.shards.len();
        if n <= 1 || to_shard >= n {
            return None;
        }
        let src = self.router.shard_of(port) as usize;
        if src == to_shard {
            return None;
        }
        let pid = Self::steal_eligible(&self.shards[src], port)?;
        // Flush the in-flight cross-shard channels first so every
        // message already routed to the moving ports sits in the
        // source's mailboxes and migrates inside its whole-queue move —
        // nothing in flight can dangle toward a shard that no longer
        // owns the port.
        self.route_parked(PullPoint::Barrier);
        let export = self.shards[src].export_process(pid);
        Some(self.shards[to_shard].adopt_process(&self.router, export))
    }

    // ------------------------------------------------------------------
    // Scheduling.
    // ------------------------------------------------------------------

    /// Attempts one message delivery. Returns `false` when no message is
    /// pending (the system is idle).
    ///
    /// This is the sequential debug scheduler: on a multi-shard kernel it
    /// round-robins one delivery at a time across shards and routes after
    /// every step. [`Kernel::run`] is the parallel round scheduler. On a
    /// single-shard kernel the two are identical.
    pub fn step(&mut self) -> bool {
        self.step_outcome() != DeliveryOutcome::Idle
    }

    /// Attempts one message delivery and reports what happened.
    pub fn step_outcome(&mut self) -> DeliveryOutcome {
        let n = self.shards.len();
        if n == 1 {
            // The monolithic engine's step, with no routing checks at
            // all: a single-shard kernel never touches the channels.
            let outcome = self.shards[0].step_outcome(&self.router);
            if outcome == DeliveryOutcome::Idle && self.shards[0].flush_retries(&self.router) > 0 {
                // Idle mailboxes can hide parked retries (backpressure);
                // re-admitting them found more work.
                return self.shards[0].step_outcome(&self.router);
            }
            return outcome;
        }
        loop {
            // Route first: cross-shard sends (including coordinator-phase
            // ones, e.g. from a handler inside `spawn`'s on_start) sit in
            // the destination's inbound channel until it drains them.
            self.route_parked(PullPoint::Barrier);
            for i in 0..n {
                let idx = (self.step_cursor + i) % n;
                if self.shards[idx].mailboxes.len() > 0 {
                    let outcome = self.shards[idx].step_outcome(&self.router);
                    self.step_cursor = (idx + 1) % n;
                    return outcome;
                }
            }
            // Every mailbox is empty; only an empty in-flight set too
            // means the kernel is truly idle. (A pull above can come up
            // empty of *deliverable* messages when queue bounds drop the
            // whole batch, so re-check rather than assume.) Parked
            // retries count as work: drained mailboxes mean there is
            // capacity to re-admit into.
            if self.xshard.pending() == 0 {
                let Kernel { shards, router, .. } = self;
                let flushed: usize = shards.iter_mut().map(|s| s.flush_retries(router)).sum();
                if flushed == 0 {
                    return DeliveryOutcome::Idle;
                }
            }
        }
    }

    /// Runs until every shard's queue drains, with a safety bound; returns
    /// the number of delivery attempts.
    ///
    /// # Panics
    ///
    /// Panics after `limit` steps — two services ping-ponging messages
    /// forever is a bug in simulated code, not a state to spin in. (On a
    /// multi-shard kernel the bound is enforced per shard per round, so a
    /// run can perform slightly more than `limit` total deliveries before
    /// a single runaway shard trips it.)
    pub fn run_limited(&mut self, limit: u64) -> u64 {
        if self.shards.len() == 1 {
            // The monolithic engine's loop, bit for bit (the host-time
            // accumulation is invisible to the simulation; with
            // backpressure disarmed the flush below is a constant-time
            // no-op).
            let start = std::time::Instant::now();
            let mut steps = 0;
            loop {
                while self.shards[0].step_outcome(&self.router) != DeliveryOutcome::Idle {
                    steps += 1;
                    assert!(
                        steps < limit,
                        "kernel did not go idle after {limit} deliveries: livelock in simulated services?"
                    );
                }
                // Idle mailboxes can hide parked retries; a drained
                // system always has capacity for them, so flushing here
                // terminates.
                if self.shards[0].flush_retries(&self.router) == 0 {
                    break;
                }
            }
            self.shards[0].busy_nanos += start.elapsed().as_nanos() as u64;
            return steps;
        }
        let workers = self.effective_workers();
        // Route anything parked across the `run()` boundary
        // (coordinator-phase sends, e.g. from a handler inside `spawn`'s
        // on_start): those messages genuinely waited out a barrier.
        self.route_parked(PullPoint::Barrier);
        let mut steps = 0u64;
        loop {
            let budget = limit.saturating_sub(steps);
            let (round_steps, hit_budget) = if workers <= 1 {
                // Sequential sweep: shards drain to local idle in shard
                // order, pulling their inbound channels as they go; a
                // sweep is one "round". No barriers, no threads, fully
                // deterministic. (Messages a shard forwards *backwards*
                // in sweep order are picked up on the next sweep.)
                let mut round_steps = 0;
                let mut hit = false;
                for shard in &mut self.shards {
                    if shard.mailboxes.len() > 0
                        || self.xshard.len(shard.shard_id()) > 0
                        || shard.retry_len() > 0
                    {
                        let (n, h) = shard.drain_round(&self.router, budget, PullPoint::Subround);
                        round_steps += n;
                        hit |= h;
                    }
                }
                (round_steps, hit)
            } else {
                // Parallel round on the persistent pool: route what's
                // parked, then hand every busy shard to a worker.
                self.route_parked(PullPoint::Barrier);
                let active: Vec<usize> = (0..self.shards.len())
                    .filter(|&i| {
                        self.shards[i].mailboxes.len() > 0 || self.shards[i].retry_len() > 0
                    })
                    .collect();
                if active.is_empty() {
                    (0, false)
                } else if active.len() == 1 {
                    // One busy shard: drain inline rather than waking the
                    // whole pool for it (a pure cross-shard chain never
                    // even builds the pool this way).
                    self.shards[active[0]].drain_round(&self.router, budget, PullPoint::Subround)
                } else {
                    let pool = self.pool.get_or_insert_with(|| ShardPool::new(workers));
                    pool.run_round(&mut self.shards, &self.router, &active, budget)
                }
            };
            steps += round_steps;
            assert!(
                !hit_budget,
                "kernel did not go idle after {limit} deliveries: livelock in simulated services?"
            );
            if round_steps > 0 {
                self.rounds += 1;
                // Between rounds the coordinator owns everything: one
                // observation window per round, applied before the next
                // round is scheduled.
                self.tune();
            }
            let quiescent = self.xshard.pending() == 0
                && self
                    .shards
                    .iter()
                    .all(|s| s.mailboxes.len() == 0 && s.retry_len() == 0);
            if quiescent {
                return steps;
            }
        }
    }

    /// Runs until idle with a generous default bound.
    pub fn run(&mut self) -> u64 {
        self.run_limited(100_000_000)
    }

    /// Pulls every shard's inbound channel into its mailboxes (with
    /// destination-side queue bounds). The nothing-in-flight case —
    /// every step of a cross-shard-free workload — costs O(shards)
    /// relaxed atomic loads and no locks; keeping the check per-inbox
    /// (rather than one global counter) is what keeps the *send* path
    /// free of a shared contended atomic.
    fn route_parked(&mut self, point: PullPoint) {
        if self.xshard.pending() > 0 {
            for shard in &mut self.shards {
                shard.pull_inbound(point);
            }
        }
    }

    // ------------------------------------------------------------------
    // God-mode observability (whole-kernel views over the shards).
    // ------------------------------------------------------------------

    /// Kernel statistics, merged across shards, plus the coordinator's
    /// own counters (rounds executed, pool worker wakeups).
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for shard in &self.shards {
            total.absorb(&shard.stats);
        }
        total.rounds += self.rounds;
        total.worker_wakeups += self.pool_wakeups();
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
    /// [`Kernel::elapsed_cycles`]; the spread between the busiest and the
    /// mean is the load-imbalance signal the latency harness records per
    /// scenario row (a skewed workload shows up here before it shows up
    /// in tail latency).
    pub fn per_shard_elapsed_cycles(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.clock.now()).collect()
    }

    /// Every shard's mailbox-depth high-water mark, in shard order — the
    /// deepest any port queue got on that shard since boot. The queueing
    /// counterpart of [`Kernel::per_shard_elapsed_cycles`]: tail latency
    /// under open-loop load is queueing delay, and this is where it
    /// accumulates.
    pub fn per_shard_queue_depth_hwm(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.stats.queue_depth_hwm)
            .collect()
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.shards[0].cost
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

    /// The handle table (ports, vnodes) of shard 0 — the whole table on a
    /// single-shard kernel. Multi-shard callers should go through
    /// [`Kernel::shard`] for per-shard tables or
    /// [`Kernel::handles_allocated`] for the global count.
    pub fn handle_table(&self) -> &HandleTable {
        &self.shards[0].handles
    }

    /// Total handles ever allocated, across all shards.
    pub fn handles_allocated(&self) -> u64 {
        self.shards.iter().map(|s| s.handles.allocated()).sum()
    }

    /// Pending (sent but undelivered) messages across all shards:
    /// mailboxes, the in-flight cross-shard channels, and the
    /// backpressure retry queues.
    pub fn queue_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.mailboxes.len() + s.retry_len())
            .sum::<usize>()
            + self.xshard.pending()
    }

    /// Pending messages sent by a given process (god-mode; used by tests to
    /// verify that compromised services actually attempted exfiltration).
    pub fn queued_from(&self, pid: ProcessId) -> usize {
        let mut count = self
            .shards
            .iter()
            .flat_map(|s| s.mailboxes.iter())
            .filter(|m| m.from.is_some_and(|c| c.pid == pid))
            .count();
        for shard in 0..self.shards.len() {
            self.xshard.for_each_queued(shard, |qm| {
                if qm.from.is_some_and(|c| c.pid == pid) {
                    count += 1;
                }
            });
        }
        count
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
    /// (Figure 6's measurement), merged across shards, plus scheduler
    /// bookkeeping (the worker pool and the cross-shard channels — zero
    /// on a single-shard kernel, which allocates neither).
    pub fn kmem_report(&self) -> KmemReport {
        let mut total = KmemReport::default();
        for shard in &self.shards {
            total.absorb(&shard.kmem_report());
        }
        if self.shards.len() > 1 {
            total.pool_bytes = self.xshard.bookkeeping_bytes()
                + self.pool.as_ref().map_or(0, ShardPool::bookkeeping_bytes);
            total.tuner_bytes = self.tuner.bytes();
        }
        total
    }
}
