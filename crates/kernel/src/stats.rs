//! God-mode kernel statistics.
//!
//! Asbestos's `send` deliberately tells the *sender* nothing about delivery
//! (§4); drops caused by label checks are visible only here, to tests and
//! benchmarks, never to simulated processes.

/// Why a queued message was dropped instead of delivered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Figure 4 requirement (1) failed: `E_S ⋢ (Q_R ⊔ D_R) ⊓ V ⊓ p_R`.
    LabelCheck,
    /// Figure 4 requirement (4) failed: `D_R ⋢ p_R`.
    PortLabelDecont,
    /// The destination handle does not name a port.
    NoSuchPort,
    /// The port has no owner (dissociated or its owner exited).
    NoOwner,
    /// The kernel message queue hit its configured limit (§8's resource
    /// exhaustion caveat made explicit).
    QueueFull,
    /// The destination port's own mailbox hit the per-port bound: local
    /// backpressure, so one hot port cannot starve every other mailbox.
    PortQueueFull,
}

/// Counters describing kernel activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Messages accepted by `send` (including ones later dropped).
    pub sent: u64,
    /// Messages injected by the external world (god-mode).
    pub injected: u64,
    /// Messages delivered to a handler.
    pub delivered: u64,
    /// Drops: label check (requirement 1).
    pub dropped_label_check: u64,
    /// Drops: decontamination exceeded the port label (requirement 4).
    pub dropped_port_decont: u64,
    /// Drops: destination was not a port.
    pub dropped_no_port: u64,
    /// Drops: port had no owner.
    pub dropped_no_owner: u64,
    /// Drops: queue full.
    pub dropped_queue_full: u64,
    /// Drops: the destination port's own mailbox was full (per-port
    /// backpressure).
    pub dropped_port_queue_full: u64,
    /// Event processes created.
    pub eps_created: u64,
    /// Event processes exited.
    pub eps_exited: u64,
    /// Full process-to-process context switches.
    pub context_switches: u64,
    /// Event-process switches within one process.
    pub ep_switches: u64,
    /// Always 0. The delivery-decision cache is gone; `cache_hits`,
    /// `cache_misses`, `cache_evictions`, `cache_resizes`,
    /// `Kernel::delivery_cache_len` and
    /// `KernelShard::delivery_cache_capacity` remain only because
    /// `benchmark/` (which a crate PR may not edit) reads them. The
    /// `[benchmark]` PR that drops the `kernel.cache_*` layer rows removes
    /// all six. The fields keep their positions: `benchmark/` digests
    /// this struct's `Debug` output.
    pub cache_hits: u64,
    /// Always 0; see [`Stats::cache_hits`].
    pub cache_misses: u64,
    /// Always 0; see [`Stats::cache_hits`].
    pub cache_evictions: u64,
    /// Sweeps of a multi-shard kernel's run loop that delivered
    /// something (a single-shard kernel counts none).
    pub rounds: u64,
    /// Always 0: there are no worker threads. This field and the no-op
    /// `Kernel::set_worker_threads` remain only because `benchmark/`
    /// (which a crate PR may not edit) reads them; the `[benchmark]` PR
    /// that drops `--rep-workers` and `kernel.worker_wakeups_per_req`
    /// removes both. The field keeps its position: `benchmark/` digests
    /// this struct's `Debug` output.
    pub worker_wakeups: u64,
    /// Cross-shard messages the destination shard picked up while
    /// draining inside `run()` (sub-round routing).
    pub xshard_subround: u64,
    /// Cross-shard messages that waited for a routing point outside a
    /// drain: the start of `run()` or a `step()`.
    pub xshard_barrier: u64,
    /// Non-empty swap-drains of this shard's inbound cross-shard channel.
    /// `(xshard_subround + xshard_barrier) / xshard_batch_drains` is the
    /// mean batch length — the batching-efficacy observable: amortization
    /// of the channel mutex degrades toward 1 message per drain.
    pub xshard_batch_drains: u64,
    /// Largest batch one swap-drain ever pulled.
    pub xshard_batch_max: u64,
    /// Deepest one shard's mailboxes have ever been (messages pending at
    /// once). In the merged view this is a maximum across shards, so a
    /// hot shard's backlog is visible even when the mean stays flat.
    pub queue_depth_hwm: u64,
    /// Always 0: there is no work stealing — a port lives on the shard
    /// that created it. This field and `Kernel::tuner_actions` remain
    /// only because `benchmark/` (which a crate PR may not edit) reads
    /// them; the `[benchmark]` PR that drops the `kernel.steals` and
    /// `kernel.tuner_actions` layer rows removes both. The field keeps
    /// its position: `benchmark/` digests this struct's `Debug` output.
    pub steals: u64,
    /// Always 0; see [`Stats::cache_hits`].
    pub cache_resizes: u64,
    /// Messages parked in the backpressure retry queue instead of being
    /// enqueued (credit overrun or shared-capacity pressure). Zero unless
    /// backpressure is armed.
    pub sent_deferred: u64,
    /// Messages shed by overload control: sends refused with
    /// `WouldBlock` after the sender exhausted its deferral quota, plus
    /// (silent) retry-queue backstop overflow.
    pub dropped_shed: u64,
    /// Parked messages re-admitted from the retry queue once capacity
    /// returned.
    pub retry_flushed: u64,
}

impl Stats {
    /// Total messages dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_label_check
            + self.dropped_port_decont
            + self.dropped_no_port
            + self.dropped_no_owner
            + self.dropped_queue_full
            + self.dropped_port_queue_full
            + self.dropped_shed
    }

    /// Records a drop.
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::LabelCheck => self.dropped_label_check += 1,
            DropReason::PortLabelDecont => self.dropped_port_decont += 1,
            DropReason::NoSuchPort => self.dropped_no_port += 1,
            DropReason::NoOwner => self.dropped_no_owner += 1,
            DropReason::QueueFull => self.dropped_queue_full += 1,
            DropReason::PortQueueFull => self.dropped_port_queue_full += 1,
        }
    }

    /// Adds another counter set into this one (shard merging; the
    /// cluster crate uses it to merge per-kernel views the same way).
    pub fn absorb(&mut self, other: &Stats) {
        self.sent += other.sent;
        self.injected += other.injected;
        self.delivered += other.delivered;
        self.dropped_label_check += other.dropped_label_check;
        self.dropped_port_decont += other.dropped_port_decont;
        self.dropped_no_port += other.dropped_no_port;
        self.dropped_no_owner += other.dropped_no_owner;
        self.dropped_queue_full += other.dropped_queue_full;
        self.dropped_port_queue_full += other.dropped_port_queue_full;
        self.eps_created += other.eps_created;
        self.eps_exited += other.eps_exited;
        self.context_switches += other.context_switches;
        self.ep_switches += other.ep_switches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.rounds += other.rounds;
        self.worker_wakeups += other.worker_wakeups;
        self.xshard_subround += other.xshard_subround;
        self.xshard_barrier += other.xshard_barrier;
        self.xshard_batch_drains += other.xshard_batch_drains;
        // A maximum, not a sum: the merged view reports the largest batch
        // any shard drained.
        self.xshard_batch_max = self.xshard_batch_max.max(other.xshard_batch_max);
        // Also a maximum: the deepest backlog any single shard saw.
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.steals += other.steals;
        self.cache_resizes += other.cache_resizes;
        self.sent_deferred += other.sent_deferred;
        self.dropped_shed += other.dropped_shed;
        self.retry_flushed += other.retry_flushed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_accounting() {
        let mut s = Stats::default();
        s.record_drop(DropReason::LabelCheck);
        s.record_drop(DropReason::LabelCheck);
        s.record_drop(DropReason::NoOwner);
        assert_eq!(s.dropped_label_check, 2);
        assert_eq!(s.dropped_no_owner, 1);
        assert_eq!(s.dropped_total(), 3);
    }
}
