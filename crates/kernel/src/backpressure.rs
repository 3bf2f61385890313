//! Overload control: credit-based backpressure and the retry queue.
//!
//! The pre-overload-control kernel handled queue pressure the only way §4
//! allows a label kernel to: silently (`DropReason::PortQueueFull`). At
//! flood load that is collapse, not degradation — every dropped message
//! wasted the work its sender already invested. This module adds the
//! missing control loop: senders get a structured [`SendVerdict`] back
//! from `send`, briefly-over-budget messages park in a bounded per-shard
//! retry queue instead of being lost, and sustained over-budget senders
//! are refused with [`crate::SysError::WouldBlock`] so they can back off
//! at the source, before investing more work.
//!
//! ## Why credits are activation-clocked, not delivery-clocked
//!
//! The obvious loop — return a credit when the receiver dequeues the
//! message — is a covert channel. Delivery timing depends on shared
//! state: the round-robin rotation, the depth of the destination port's
//! queue (which holds *other senders'* messages, including ones that
//! will fail their label check — a tainted flood occupies the queue
//! until delivery time), and cross-shard scheduling. A sender that could
//! watch its credits return would be watching an attacker-modulated
//! clock. "State and history in operating systems" frames exactly this:
//! any state the kernel feeds back to a sender is history an adversary
//! can write to.
//!
//! So the credit loop here is **self-clocked**. Each sender has, per
//! destination port, a window of credits that refills at the start of
//! each of the sender's own handler activations. The verdict of a send
//! is a pure function of the sender's own history — how many times it
//! has sent to that port this activation, and whether it overran in past
//! activations (AIMD: the window halves on the activation's first
//! overrun, grows by one after each clean activation). Nothing another
//! process does can change the verdict sequence a sender observes; the
//! covert-channel suite pins this byte-for-byte.
//!
//! Shared-state pressure still exists, of course — a full destination
//! port, a full cross-shard channel. It influences only *placement*:
//! an admitted message that cannot enqueue right now parks silently in
//! the retry queue and is flushed when capacity returns, exactly as
//! invisibly as §4's label drops. The retry queue preserves per-sender
//! per-port FIFO order by barriering: once one of a sender's messages
//! to a port is parked, its later messages to that port park behind it.
//!
//! Everything here is inert by default: `backpressure` is off unless
//! [`crate::Kernel::set_backpressure`] arms it, so the golden-trace
//! suites (`shard_determinism`, `netd_determinism`) see bit-identical
//! runs.

use std::collections::{BTreeMap, HashMap, VecDeque};

use asbestos_labels::Handle;

use crate::error::{SysError, SysResult};
use crate::ids::ProcessId;
use crate::message::QueuedMessage;
use crate::router::Router;
use crate::shard::KernelShard;
use crate::stats::DropReason;

/// Starting per-activation credit window per (sender, port).
pub const DEFAULT_CREDIT_WINDOW: u32 = 16;

/// Floor the multiplicative-decrease path never halves below.
pub const MIN_CREDIT_WINDOW: u32 = 4;

/// Ceiling the additive-increase path never grows past.
pub const MAX_CREDIT_WINDOW: u32 = 64;

/// Deferrals one sender may accumulate per port per activation before
/// further sends are refused with [`SysError::WouldBlock`]. Per-sender
/// state, so one sender's exhausted quota says nothing about another's.
pub const DEFAULT_DEFER_QUOTA: u32 = 64;

/// Hard bound on the whole retry queue — the same §8 resource-exhaustion
/// backstop as the shard queue limit, and like it, overflowing is
/// *silent* (the bound is shared state, so a sender-visible signal here
/// would be a storage channel).
pub const DEFAULT_RETRY_BACKSTOP: usize = crate::kernel::DEFAULT_QUEUE_LIMIT;

/// What `send` tells the caller happened to its message.
///
/// Like the paper's `send` (§4), none of these verdicts says anything
/// about *delivery*: label checks run when the receiver is scheduled and
/// failures drop silently. The verdict reports queue admission only, and
/// is computed purely from the sender's own credit state — never from
/// the (shared, attacker-influenced) occupancy of the destination queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// Admitted within the sender's credit window. With backpressure
    /// disabled (the default), every privileged-enough send reports
    /// this — the pre-overload-control contract, bit for bit.
    Delivered,
    /// The sender overran its window; the message is parked in the
    /// shard's retry queue and will be admitted when capacity returns.
    /// Nothing is lost, but the sender should slow down: its window
    /// just halved.
    Deferred,
    /// Constructed by upper layers (netd accept shedding, OKWS worker
    /// send paths) when they convert a [`SysError::WouldBlock`] refusal
    /// into dropped work. The kernel itself reports refusal through the
    /// error, not this verdict.
    Shed,
}

/// How the credit accounting classified one send.
pub(crate) enum Admission {
    /// Within the window: enqueue (or park silently if shared capacity
    /// is exhausted — placement is invisible to the sender).
    Admit,
    /// Over the window, within the defer quota: park, report `Deferred`.
    Defer,
    /// Over the window and the quota: refuse with `WouldBlock`.
    Refuse,
}

/// Per-(sender, port) credit state. All fields are functions of the
/// sender's own send/activation history — the covert-channel invariant.
#[derive(Clone, Copy, Debug)]
struct CreditEntry {
    /// Sends admitted per activation (AIMD-controlled).
    window: u32,
    /// Sends admitted so far this activation.
    in_flight: u32,
    /// Deferrals so far this activation (the `WouldBlock` quota).
    deferred: u32,
    /// The sender activation this entry last observed; a newer epoch
    /// lazily resets the per-activation counters.
    epoch: u64,
    /// Whether this activation already overran (the window halves at
    /// most once per activation).
    overflowed: bool,
}

impl CreditEntry {
    fn fresh(epoch: u64) -> CreditEntry {
        CreditEntry {
            window: DEFAULT_CREDIT_WINDOW,
            in_flight: 0,
            deferred: 0,
            epoch,
            overflowed: false,
        }
    }

    /// Rolls the entry forward to `epoch` if it is stale: additive
    /// increase after a clean activation, counter reset either way.
    fn roll(&mut self, epoch: u64) {
        if self.epoch == epoch {
            return;
        }
        if !self.overflowed {
            self.window = (self.window + 1).min(MAX_CREDIT_WINDOW);
        }
        self.overflowed = false;
        self.in_flight = 0;
        self.deferred = 0;
        self.epoch = epoch;
    }
}

/// Cumulative per-port pressure counters (god-mode observability;
/// never visible to simulated processes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortPressure {
    /// Messages silently dropped at this port's queue bound.
    pub dropped: u64,
    /// Messages parked in the retry queue on this port's behalf.
    pub deferred: u64,
}

/// One shard's backpressure state. Inert (and empty) unless `enabled`.
pub(crate) struct Backpressure {
    /// Armed by [`crate::Kernel::set_backpressure`]; off by default so
    /// every golden trace is untouched.
    pub(crate) enabled: bool,
    /// Per-(sender, port) credit windows.
    credits: HashMap<(ProcessId, Handle), CreditEntry>,
    /// Per-sender activation counters (bumped by `invoke`), the clock
    /// the credit windows refill on.
    epochs: HashMap<ProcessId, u64>,
    /// Parked messages awaiting capacity, in arrival order.
    retry: VecDeque<QueuedMessage>,
    /// Parked-message count per (sender, port): the FIFO barrier. While
    /// a key has parked messages, its later sends park behind them.
    parked: HashMap<(ProcessId, Handle), u32>,
    /// Deferrals allowed per (sender, port) per activation.
    pub(crate) defer_quota: u32,
    /// Silent hard bound on the retry queue.
    pub(crate) retry_backstop: usize,
    /// Per-port drop/defer pressure (tracked even with backpressure off
    /// — port-bound drops predate this module).
    port_pressure: BTreeMap<Handle, PortPressure>,
}

impl Default for Backpressure {
    fn default() -> Backpressure {
        Backpressure {
            enabled: false,
            credits: HashMap::new(),
            epochs: HashMap::new(),
            retry: VecDeque::new(),
            parked: HashMap::new(),
            defer_quota: DEFAULT_DEFER_QUOTA,
            retry_backstop: DEFAULT_RETRY_BACKSTOP,
            port_pressure: BTreeMap::new(),
        }
    }
}

impl Backpressure {
    /// Bumps the sender's activation epoch (called by `invoke` before
    /// every handler runs, when armed).
    pub(crate) fn note_activation(&mut self, pid: ProcessId) {
        *self.epochs.entry(pid).or_insert(0) += 1;
    }

    /// Classifies one send against the sender's own credit state.
    pub(crate) fn bill(&mut self, pid: ProcessId, port: Handle) -> Admission {
        let epoch = self.epochs.get(&pid).copied().unwrap_or(0);
        let quota = self.defer_quota;
        let e = self
            .credits
            .entry((pid, port))
            .or_insert_with(|| CreditEntry::fresh(epoch));
        e.roll(epoch);
        if e.in_flight < e.window {
            e.in_flight += 1;
            return Admission::Admit;
        }
        if !e.overflowed {
            e.window = (e.window / 2).max(MIN_CREDIT_WINDOW);
            e.overflowed = true;
        }
        if e.deferred < quota {
            e.deferred += 1;
            Admission::Defer
        } else {
            Admission::Refuse
        }
    }

    /// The sender's projected (window, credits-remaining) for `port`
    /// right now, as its next send would see them. Reads only the
    /// caller's own state — safe to expose through [`crate::Sys`].
    pub(crate) fn credit_state(&self, pid: ProcessId, port: Handle) -> (u32, u32) {
        let epoch = self.epochs.get(&pid).copied().unwrap_or(0);
        match self.credits.get(&(pid, port)) {
            Some(e) if e.epoch == epoch => (e.window, e.window.saturating_sub(e.in_flight)),
            Some(e) => {
                let window = if e.overflowed {
                    e.window
                } else {
                    (e.window + 1).min(MAX_CREDIT_WINDOW)
                };
                (window, window)
            }
            None => (DEFAULT_CREDIT_WINDOW, DEFAULT_CREDIT_WINDOW),
        }
    }

    /// Whether `(pid, port)` has parked messages (the FIFO barrier).
    pub(crate) fn barred(&self, pid: ProcessId, port: Handle) -> bool {
        self.parked.contains_key(&(pid, port))
    }

    /// Parked messages awaiting capacity.
    pub(crate) fn retry_len(&self) -> usize {
        self.retry.len()
    }

    /// Records a port-bound drop in the per-port pressure map.
    pub(crate) fn note_port_drop(&mut self, port: Handle) {
        self.port_pressure.entry(port).or_default().dropped += 1;
    }

    fn note_port_defer(&mut self, port: Handle) {
        self.port_pressure.entry(port).or_default().deferred += 1;
    }

    pub(crate) fn port_pressure(&self) -> &BTreeMap<Handle, PortPressure> {
        &self.port_pressure
    }
}

impl KernelShard {
    /// Parks one message in the retry queue (or, past the silent
    /// backstop, sheds it — shared-state overflow must stay invisible).
    pub(crate) fn park(&mut self, qm: QueuedMessage) {
        if self.bp.retry.len() >= self.bp.retry_backstop {
            self.stats.dropped_shed += 1;
            self.bp.note_port_drop(qm.port);
            return;
        }
        if let Some(ctx) = qm.from {
            *self.bp.parked.entry((ctx.pid, qm.port)).or_insert(0) += 1;
        }
        self.stats.sent_deferred += 1;
        self.bp.note_port_defer(qm.port);
        self.bp.retry.push_back(qm);
    }

    /// Inbound enqueue with backpressure: shared-capacity overflow (and
    /// the FIFO barrier) park instead of dropping. With backpressure off
    /// this is exactly [`KernelShard::enqueue_checked`].
    pub(crate) fn enqueue_inbound(&mut self, qm: QueuedMessage) {
        if self.bp.enabled {
            let full = self.mailboxes.len() >= self.queue_limit
                || self.mailboxes.port_len(qm.port) >= self.port_queue_limit;
            let barred = qm.from.is_some_and(|c| self.bp.barred(c.pid, qm.port));
            if full || barred {
                self.park(qm);
                return;
            }
        }
        self.enqueue_checked(qm);
    }

    /// Admission control for a local send with backpressure armed. The
    /// verdict is decided *before* placement, from the sender's own
    /// credit state only; shared-capacity pressure can demote placement
    /// to the retry queue but never changes what the sender observes.
    pub(crate) fn bp_send_local(
        &mut self,
        pid: ProcessId,
        qm: QueuedMessage,
    ) -> SysResult<SendVerdict> {
        // A send to the sender's own port is a self-wakeup, not a
        // cross-process flow: it cannot flood anyone but the sender, and
        // billing it can refuse the one wakeup a process armed to drain
        // its own backlog — netd's deferred accepts would then park
        // forever with no event left to revive the lane. Self-sends skip
        // the credit loop; shared-capacity overflow still parks (never
        // drops) them, so delivery remains guaranteed.
        let self_send = self
            .handles
            .port(qm.port)
            .is_some_and(|p| p.owner == Some(crate::handle_table::PortOwner::Process(pid)));
        let admission = if self_send {
            Admission::Admit
        } else {
            self.bp.bill(pid, qm.port)
        };
        match admission {
            Admission::Admit => {
                let full = self.mailboxes.len() >= self.queue_limit
                    || self.mailboxes.port_len(qm.port) >= self.port_queue_limit;
                if full || self.bp.barred(pid, qm.port) {
                    self.park(qm);
                } else {
                    self.enqueue_checked(qm);
                }
                Ok(SendVerdict::Delivered)
            }
            Admission::Defer => {
                self.park(qm);
                Ok(SendVerdict::Deferred)
            }
            Admission::Refuse => {
                self.stats.dropped_shed += 1;
                self.bp.note_port_drop(qm.port);
                Err(SysError::WouldBlock)
            }
        }
    }

    /// One pass over the retry queue: every parked message whose
    /// destination has capacity again is re-admitted, in arrival order.
    /// A message that still cannot move blocks its (sender, port) key
    /// for the rest of the pass, preserving per-sender per-port FIFO.
    /// Returns the number of messages re-admitted.
    ///
    /// Deliberately credit-free: flush timing depends on shared
    /// scheduler state, so touching the credit windows here would leak
    /// that timing into the verdicts senders observe.
    pub(crate) fn flush_retries(&mut self, router: &Router) -> usize {
        if self.bp.retry.is_empty() {
            return 0;
        }
        let n = self.bp.retry.len();
        let mut flushed = 0;
        let mut blocked: Vec<(ProcessId, Handle)> = Vec::new();
        for _ in 0..n {
            let qm = self.bp.retry.pop_front().expect("pass over n messages");
            let key = qm.from.map(|c| (c.pid, qm.port));
            let barred = key.is_some_and(|k| blocked.contains(&k));
            let dest = if self.handles.get(qm.port).is_some() {
                self.id
            } else {
                router.shard_of(qm.port)
            };
            let admit = !barred
                && if dest == self.id {
                    self.mailboxes.len() < self.queue_limit
                        && self.mailboxes.port_len(qm.port) < self.port_queue_limit
                } else {
                    self.xshard.len(dest as usize) < self.queue_limit
                };
            if admit {
                if let Some(k) = key {
                    if let Some(count) = self.bp.parked.get_mut(&k) {
                        *count -= 1;
                        if *count == 0 {
                            self.bp.parked.remove(&k);
                        }
                    }
                }
                self.stats.retry_flushed += 1;
                flushed += 1;
                if dest == self.id {
                    self.enqueue_checked(qm);
                } else if !self.xshard.push(dest as usize, qm, self.queue_limit) {
                    // The capacity check above makes this unreachable;
                    // if it ever fires the channel bound drops silently,
                    // as it does on the send path.
                    self.stats.record_drop(DropReason::QueueFull);
                }
            } else {
                if let Some(k) = key {
                    if !barred {
                        blocked.push(k);
                    }
                }
                self.bp.retry.push_back(qm);
            }
        }
        flushed
    }

    /// Parked messages awaiting capacity on this shard.
    pub fn retry_len(&self) -> usize {
        self.bp.retry_len()
    }

    /// Cumulative per-port drop/defer pressure (god-mode).
    pub fn port_pressure(&self) -> &BTreeMap<Handle, PortPressure> {
        self.bp.port_pressure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credit_entry_aimd() {
        let mut e = CreditEntry::fresh(0);
        assert_eq!(e.window, DEFAULT_CREDIT_WINDOW);
        // Overrun: halve once per activation, not once per send.
        e.in_flight = e.window;
        e.roll(0);
        assert_eq!(e.window, DEFAULT_CREDIT_WINDOW);
        // A clean activation grows the window by one.
        e.in_flight = 0;
        e.roll(1);
        assert_eq!(e.window, DEFAULT_CREDIT_WINDOW + 1);
        assert_eq!(e.in_flight, 0);
    }

    #[test]
    fn bill_is_a_pure_function_of_own_history() {
        let mut bp = Backpressure::default();
        let pid = ProcessId::new(0, 0);
        let port = Handle::from_raw(9);
        // Window admits, then defers, then (past the quota) refuses —
        // regardless of anything else in the system.
        let mut verdicts = Vec::new();
        for _ in 0..(DEFAULT_CREDIT_WINDOW + DEFAULT_DEFER_QUOTA + 3) {
            verdicts.push(match bp.bill(pid, port) {
                Admission::Admit => 'a',
                Admission::Defer => 'd',
                Admission::Refuse => 'r',
            });
        }
        let admits = verdicts.iter().filter(|&&v| v == 'a').count();
        let defers = verdicts.iter().filter(|&&v| v == 'd').count();
        let refusals = verdicts.iter().filter(|&&v| v == 'r').count();
        assert_eq!(admits, DEFAULT_CREDIT_WINDOW as usize);
        assert_eq!(defers, DEFAULT_DEFER_QUOTA as usize);
        assert_eq!(refusals, 3);
        // The overrun halved the window for the next activation.
        bp.note_activation(pid);
        let (window, remaining) = bp.credit_state(pid, port);
        assert_eq!(window, DEFAULT_CREDIT_WINDOW / 2);
        assert_eq!(remaining, window);
    }

    #[test]
    fn window_recovers_additively_after_clean_activations() {
        let mut bp = Backpressure::default();
        let pid = ProcessId::new(0, 1);
        let port = Handle::from_raw(3);
        // Overrun once: 16 → 8.
        for _ in 0..=DEFAULT_CREDIT_WINDOW {
            bp.bill(pid, port);
        }
        // Eight clean activations: 8 → 16 again.
        for _ in 0..8 {
            bp.note_activation(pid);
            bp.bill(pid, port);
        }
        bp.note_activation(pid);
        let (window, _) = bp.credit_state(pid, port);
        assert_eq!(window, DEFAULT_CREDIT_WINDOW);
    }

    #[test]
    fn credit_state_of_an_unused_port_is_the_default() {
        let bp = Backpressure::default();
        let (window, remaining) = bp.credit_state(ProcessId::new(0, 0), Handle::from_raw(1));
        assert_eq!(window, DEFAULT_CREDIT_WINDOW);
        assert_eq!(remaining, DEFAULT_CREDIT_WINDOW);
    }
}
