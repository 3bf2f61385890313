//! The self-tuning control loop: signals → policy → actuator.
//!
//! Shard placement and the shed threshold were static at deploy time, so
//! a Zipf-skewed user population leaves N−1 shards idle while one shard
//! cliffs. This module closes the loop: between sweeps of the run loop
//! the coordinator snapshots one observation window of per-shard counters
//! ([`Signals`]), feeds it to a [`TunePolicy`], and applies the returned
//! [`Action`]s. The design follows the "policy out of mechanism" rule:
//!
//! * **Signals** are plain counter deltas — no policy reads live kernel
//!   structures, so a policy is testable in isolation by feeding it
//!   synthetic windows.
//! * **The policy** ([`DefaultPolicy`], or anything implementing
//!   [`TunePolicy`]) decides; thresholds live here, not in the drain
//!   loop.
//! * **The actuator** is the coordinator (`Kernel::tune`), which runs
//!   between sweeps, when no handler is mid-delivery, and can therefore
//!   migrate whole processes.
//!
//! Determinism contract: the steal loop reads host `busy_nanos`, the one
//! input that is not a function of the kernel's event history, so the
//! loop runs only when a caller asks for it
//! (`Kernel::set_tuning_enabled(true)`) on a multi-shard kernel. Left
//! alone, or at `shards == 1`, the tuner is inert and every run is
//! bit-identical — pinned by test. A steal is semantically invisible: it
//! moves a process *wholesale* — labels, memory, ports, and whole
//! per-port queues — so delivery order per sender per port and every
//! verdict are preserved (pinned by proptest).

use asbestos_labels::Handle;

/// One shard's contribution to an observation window. Counter fields
/// are deltas since the previous window unless they say otherwise.
#[derive(Clone, Debug, Default)]
pub struct ShardSignals {
    /// Real host nanoseconds this shard's delivery loop ran this window.
    pub busy_nanos: u64,
    /// Messages delivered this window.
    pub delivered: u64,
    /// Deepest this shard's mailboxes have ever been.
    pub queue_depth_hwm: u64,
    /// Per-port backpressure drops this window.
    pub port_queue_drops: u64,
    /// Steal-eligible destination ports by message arrivals this window,
    /// hottest first. The actuator pre-filters to ports whose owning
    /// process can actually migrate, so a policy may pick any entry.
    pub hot_ports: Vec<(Handle, u64)>,
    /// This shard's shed threshold right now (point-in-time): the
    /// mailbox depth at which `Sys::overloaded` reports true.
    /// `usize::MAX` means never shed; 0 marks a window with no shed
    /// state at all (synthetic test windows), which the default policy's
    /// shed loop skips.
    pub shed_threshold: usize,
}

/// One observation window across all shards.
#[derive(Clone, Debug, Default)]
pub struct Signals {
    /// Per-shard windows, indexed by shard id.
    pub shards: Vec<ShardSignals>,
}

impl Signals {
    /// Index of the busiest shard this window.
    pub fn hottest(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.busy_nanos)
            .map_or(0, |(i, _)| i)
    }

    /// Index of the idlest shard this window.
    pub fn idlest(&self) -> usize {
        self.shards
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.busy_nanos)
            .map_or(0, |(i, _)| i)
    }

    /// Mean per-shard busy nanoseconds this window.
    pub fn mean_busy(&self) -> u64 {
        if self.shards.is_empty() {
            return 0;
        }
        self.shards.iter().map(|s| s.busy_nanos).sum::<u64>() / self.shards.len() as u64
    }
}

/// An adjustment a policy asks the actuator to make.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Action {
    /// Steal `port`'s owner: migrate the owning process — its labels,
    /// memory, every port it owns, and each port's *whole* pending
    /// mailbox queue — onto `to_shard`, re-registering the ports in the
    /// Router directory. Queues move in one piece (never message by
    /// message), preserving per-sender-per-port FIFO; and because the
    /// owner moves with its ports, label evaluation keeps running on
    /// the shard that owns the destination's data.
    StealPort {
        /// A hot destination port (from [`ShardSignals::hot_ports`]).
        port: Handle,
        /// Destination shard.
        to_shard: usize,
    },
    /// Move one shard's shed threshold — the mailbox depth at which
    /// `Sys::overloaded` tells deployment-side shedders (netd accept
    /// paths) to refuse new work at the edge. The credit loop itself
    /// needs no actions (it is self-clocked inside each shard); this is
    /// the knob that adapts *when load is refused before it is queued*.
    SetShedThreshold {
        /// Which shard.
        shard: usize,
        /// New threshold (`usize::MAX` = never shed).
        threshold: usize,
    },
}

/// A tuning policy: pure decision logic over counter windows.
///
/// [`TunePolicy::observe`] feeds every window (streak bookkeeping,
/// smoothing); [`TunePolicy::adjust`] asks for actions. The actuator
/// calls both once per window, in that order. Policies never see live
/// kernel structures, so they are testable in isolation.
pub trait TunePolicy: Send {
    /// Feeds one observation window.
    fn observe(&mut self, signals: &Signals);

    /// Requests adjustments after an [`TunePolicy::observe`].
    fn adjust(&mut self, signals: &Signals) -> Vec<Action>;
}

/// Hottest-shard busy time below which the default policy does nothing
/// in a window. Keeps small deterministic workloads (every functional
/// test) untouched while being far below one bench round.
pub const DEFAULT_MIN_BUSY_NANOS: u64 = 1_000_000;

/// Hottest-to-mean busy ratio past which a window counts as imbalanced.
pub const DEFAULT_STEAL_RATIO: f64 = 1.3;

/// Consecutive imbalanced windows before a steal fires.
pub const DEFAULT_STEAL_PATIENCE: u32 = 2;

/// Smallest shed threshold the tightening path ever sets: shedding at a
/// backlog of a few messages would refuse work on scheduling noise.
pub const DEFAULT_SHED_FLOOR: usize = 64;

/// Threshold past which the relaxation path stops shedding entirely
/// (jumps to `usize::MAX`) rather than carrying an ever-doubling number.
pub const DEFAULT_SHED_CEILING: usize = 1 << 16;

/// The built-in policy: AIMD on the shed threshold, and hot-port
/// stealing after sustained imbalance. All thresholds are public fields so benches and tests can
/// run the same logic with different constants.
#[derive(Clone, Debug)]
pub struct DefaultPolicy {
    /// Do nothing in windows whose hottest shard ran less than this.
    pub min_busy_nanos: u64,
    /// Hottest/mean busy ratio that counts as imbalance.
    pub steal_ratio: f64,
    /// Consecutive imbalanced windows before stealing.
    pub steal_patience: u32,
    /// Smallest shed threshold the tightening path sets.
    pub shed_floor: usize,
    /// Shed threshold past which relaxation disables shedding.
    pub shed_ceiling: usize,
    /// Imbalance streak (bookkeeping fed by `observe`).
    imbalanced_windows: u32,
}

impl Default for DefaultPolicy {
    fn default() -> DefaultPolicy {
        DefaultPolicy {
            min_busy_nanos: DEFAULT_MIN_BUSY_NANOS,
            steal_ratio: DEFAULT_STEAL_RATIO,
            steal_patience: DEFAULT_STEAL_PATIENCE,
            shed_floor: DEFAULT_SHED_FLOOR,
            shed_ceiling: DEFAULT_SHED_CEILING,
            imbalanced_windows: 0,
        }
    }
}

impl DefaultPolicy {
    fn window_imbalanced(&self, s: &Signals) -> bool {
        if s.shards.len() <= 1 {
            return false;
        }
        let hot = &s.shards[s.hottest()];
        hot.busy_nanos >= self.min_busy_nanos
            && !hot.hot_ports.is_empty()
            && hot.busy_nanos as f64 > self.steal_ratio * s.mean_busy() as f64
    }
}

impl TunePolicy for DefaultPolicy {
    fn observe(&mut self, signals: &Signals) {
        if self.window_imbalanced(signals) {
            self.imbalanced_windows += 1;
        } else {
            self.imbalanced_windows = 0;
        }
    }

    fn adjust(&mut self, signals: &Signals) -> Vec<Action> {
        let mut actions = Vec::new();
        let n = signals.shards.len();
        if n <= 1 {
            return actions;
        }
        let hottest_busy = signals.shards[signals.hottest()].busy_nanos;
        if hottest_busy < self.min_busy_nanos {
            // Activity floor: below it the window carries no usable
            // signal (and tiny deterministic test workloads stay
            // untouched even when the loop is armed).
            return actions;
        }

        // --- Feedback loop 1: adaptive shed threshold. -----------------
        // AIMD on the overload-shed knob, per shard: port-bound drops
        // mean queueing has already failed — tighten sharply so netd
        // refuses work at the edge instead; a clean window relaxes the
        // threshold multiplicatively until shedding turns off again.
        // Strictly per-shard signals in, per-shard actions out: one
        // shard's flood never moves another shard's threshold (the
        // hygiene test below pins this).
        for (i, sh) in signals.shards.iter().enumerate() {
            if sh.shed_threshold == 0 {
                // No shed state in this window (synthetic tests).
                continue;
            }
            if sh.port_queue_drops > 0 {
                let target = ((sh.queue_depth_hwm / 2) as usize).max(self.shed_floor);
                if target < sh.shed_threshold {
                    actions.push(Action::SetShedThreshold {
                        shard: i,
                        threshold: target,
                    });
                }
            } else if sh.shed_threshold != usize::MAX {
                let relaxed = sh.shed_threshold.saturating_mul(2);
                let threshold = if relaxed > self.shed_ceiling {
                    usize::MAX
                } else {
                    relaxed
                };
                actions.push(Action::SetShedThreshold {
                    shard: i,
                    threshold,
                });
            }
        }

        // --- Feedback loop 2: hot-shard work stealing. -----------------
        if self.imbalanced_windows >= self.steal_patience {
            let hottest = signals.hottest();
            let idlest = signals.idlest();
            if hottest != idlest {
                let hot = &signals.shards[hottest];
                let gap = hot.busy_nanos - signals.shards[idlest].busy_nanos;
                let denom = hot.delivered.max(1);
                // A port's busy share ≈ its arrival share of the shard's
                // deliveries. Steal the *largest* port that fits in half
                // the hot–idle gap: moving a port bigger than the gap
                // would just relocate the hotspot onto the idle shard
                // and ping-pong it back next window. A single mega-port
                // that dwarfs the gap is therefore never stolen — its
                // shard simply keeps it while smaller ports drain away.
                let fits = |arrivals: u64| {
                    let est = hot.busy_nanos as u128 * arrivals as u128 / denom as u128;
                    est * 2 <= gap as u128
                };
                if let Some(&(port, _)) = hot.hot_ports.iter().find(|&&(_, a)| fits(a)) {
                    actions.push(Action::StealPort {
                        port,
                        to_shard: idlest,
                    });
                    // Stay primed rather than restarting the full
                    // patience count: the patience filter gates the
                    // *onset* (a noise streak must persist to fire at
                    // all), but once genuine imbalance is established,
                    // every further imbalanced window — each computed
                    // from fresh post-steal signals, so the half-gap
                    // rule re-checks against the new distribution — may
                    // steal again. One balanced window still resets to
                    // zero via `observe`.
                    self.imbalanced_windows = self.steal_patience.saturating_sub(1);
                }
            }
        }
        actions
    }
}

/// Cumulative per-shard counter sample; consecutive samples bound one
/// observation window (the actuator stores the previous one).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardSample {
    pub(crate) busy_nanos: u64,
    pub(crate) delivered: u64,
    pub(crate) port_queue_drops: u64,
}

/// The coordinator's tuning state: the installed policy plus the
/// windowing bookkeeping. Lives on `Kernel`; the actuator methods
/// (`Kernel::tune`, `Kernel::migrate_port_owner`) are in `kernel.rs`
/// because they need `&mut` over the shards.
pub(crate) struct TunerState {
    pub(crate) policy: Box<dyn TunePolicy>,
    /// Previous cumulative sample per shard; empty until the loop arms.
    pub(crate) last: Vec<ShardSample>,
    /// Armed by `Kernel::set_tuning_enabled`; off by default.
    pub(crate) enabled: bool,
    /// Actions actually applied (the determinism guard pins this at 0
    /// while the loop is disarmed).
    pub(crate) actions_applied: u64,
}

impl TunerState {
    pub(crate) fn new() -> TunerState {
        TunerState {
            policy: Box::new(DefaultPolicy::default()),
            last: Vec::new(),
            enabled: false,
            actions_applied: 0,
        }
    }

    /// Accounted bookkeeping bytes (goes into `KmemReport::tuner_bytes`;
    /// zero until the loop arms, so untuned kernels report nothing).
    pub(crate) fn bytes(&self) -> usize {
        self.last.capacity() * std::mem::size_of::<ShardSample>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(busy: &[u64]) -> Signals {
        Signals {
            shards: busy
                .iter()
                .map(|&b| ShardSignals {
                    busy_nanos: b,
                    // One modest port (10% of the shard's deliveries):
                    // always within the half-gap bound when the window
                    // is imbalanced enough to steal at all.
                    delivered: 100,
                    hot_ports: vec![(Handle::from_raw(7), 10)],
                    ..ShardSignals::default()
                })
                .collect(),
        }
    }

    #[test]
    fn activity_floor_gates_everything() {
        let mut p = DefaultPolicy::default();
        // Wildly imbalanced but microscopic: no window may act.
        let s = window(&[900, 1, 1, 1]);
        for _ in 0..10 {
            p.observe(&s);
            assert!(p.adjust(&s).is_empty(), "sub-floor window acted");
        }
    }

    #[test]
    fn sustained_imbalance_steals_to_the_idlest_shard() {
        let mut p = DefaultPolicy::default();
        let s = window(&[40_000_000, 2_000_000, 3_000_000, 1_000_000]);
        p.observe(&s);
        assert!(
            p.adjust(&s)
                .iter()
                .all(|a| !matches!(a, Action::StealPort { .. })),
            "one imbalanced window must not steal (patience)"
        );
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(
            actions.contains(&Action::StealPort {
                port: Handle::from_raw(7),
                to_shard: 3,
            }),
            "two imbalanced windows steal the hot port to the idlest shard: {actions:?}"
        );
    }

    #[test]
    fn steal_skips_a_mega_port_that_would_overshoot() {
        let mut p = DefaultPolicy::default();
        let mut s = window(&[40_000_000, 30_000_000, 30_000_000, 20_000_000]);
        // Port 7 carries 90% of the hot shard's load — moving it would
        // make the idle shard hotter than the source ever was. Port 8
        // (4% → 1.6 ms) fits in half the 20 ms gap and is taken instead.
        s.shards[0].hot_ports = vec![(Handle::from_raw(7), 90), (Handle::from_raw(8), 4)];
        p.observe(&s);
        p.adjust(&s);
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(
            actions.contains(&Action::StealPort {
                port: Handle::from_raw(8),
                to_shard: 3,
            }),
            "the largest port fitting the half-gap is stolen: {actions:?}"
        );
        assert!(
            !actions.iter().any(
                |a| matches!(a, Action::StealPort { port, .. } if *port == Handle::from_raw(7))
            ),
            "the mega-port must stay put"
        );
    }

    #[test]
    fn no_steal_when_every_port_overshoots() {
        let mut p = DefaultPolicy::default();
        let mut s = window(&[40_000_000, 30_000_000, 30_000_000, 20_000_000]);
        s.shards[0].hot_ports = vec![(Handle::from_raw(7), 100)];
        for _ in 0..6 {
            p.observe(&s);
            let actions = p.adjust(&s);
            assert!(
                actions
                    .iter()
                    .all(|a| !matches!(a, Action::StealPort { .. })),
                "an unsplittable hotspot is left alone: {actions:?}"
            );
        }
    }

    #[test]
    fn balanced_windows_reset_patience() {
        let mut p = DefaultPolicy::default();
        let hot = window(&[40_000_000, 2_000_000, 3_000_000, 1_000_000]);
        let calm = window(&[10_000_000, 9_000_000, 11_000_000, 10_000_000]);
        p.observe(&hot);
        p.adjust(&hot);
        p.observe(&calm);
        p.adjust(&calm);
        p.observe(&hot);
        let actions = p.adjust(&hot);
        assert!(
            actions
                .iter()
                .all(|a| !matches!(a, Action::StealPort { .. })),
            "a calm window resets the imbalance streak"
        );
    }

    /// Covert-channel hygiene at the policy layer: a flooding user's
    /// overload signals on its own shard never change what the policy
    /// does to a healthy shard, and any steal it provokes targets only
    /// the flooded shard's ports.
    #[test]
    fn flood_on_one_shard_never_acts_on_a_healthy_shard() {
        let healthy = |s: &mut Signals| {
            s.shards[0].hot_ports = vec![(Handle::from_raw(40), 5)];
        };
        // Quiet system: shard 1 idle-but-present.
        let mut quiet = window(&[5_000_000, 5_000_000, 5_000_000, 5_000_000]);
        healthy(&mut quiet);
        // Flooded system: shard 1 drops at its port bounds and dominates
        // busy time with two steal-eligible ports.
        for sh in &mut quiet.shards {
            sh.shed_threshold = usize::MAX;
        }
        let mut noisy = window(&[5_000_000, 60_000_000, 5_000_000, 5_000_000]);
        healthy(&mut noisy);
        for sh in &mut noisy.shards {
            sh.shed_threshold = usize::MAX;
        }
        noisy.shards[1].delivered = 10_000;
        noisy.shards[1].port_queue_drops = 5_000;
        noisy.shards[1].queue_depth_hwm = 50_000;
        noisy.shards[1].hot_ports =
            vec![(Handle::from_raw(50), 2_000), (Handle::from_raw(51), 1_500)];

        let on_shard0 = |s: &Signals| {
            let mut p = DefaultPolicy::default();
            let mut acts = Vec::new();
            for _ in 0..4 {
                p.observe(s);
                acts.extend(p.adjust(s));
            }
            acts.retain(|a| match a {
                Action::StealPort { port, .. } => *port == Handle::from_raw(40),
                Action::SetShedThreshold { shard, .. } => *shard == 0,
            });
            acts
        };
        assert_eq!(
            on_shard0(&quiet),
            on_shard0(&noisy),
            "shard 0's treatment is independent of shard 1's flood"
        );
        assert!(
            on_shard0(&noisy).is_empty(),
            "a healthy shard is left alone entirely"
        );
    }

    #[test]
    fn drops_tighten_the_shed_threshold_and_clean_windows_relax_it() {
        let mut p = DefaultPolicy::default();
        let mut s = window(&[10_000_000, 10_000_000]);
        for sh in &mut s.shards {
            sh.shed_threshold = usize::MAX;
        }
        // Shard 0 drops at its port bound with a deep backlog: tighten
        // to half the observed peak.
        s.shards[0].port_queue_drops = 100;
        s.shards[0].queue_depth_hwm = 4_000;
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(actions.contains(&Action::SetShedThreshold {
            shard: 0,
            threshold: 2_000,
        }));
        assert!(
            !actions
                .iter()
                .any(|a| matches!(a, Action::SetShedThreshold { shard: 1, .. })),
            "the clean shard's threshold stays at MAX (no relax action needed)"
        );
        // Clean windows double the threshold back up, then disable
        // shedding past the ceiling.
        s.shards[0].port_queue_drops = 0;
        s.shards[0].shed_threshold = 2_000;
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(actions.contains(&Action::SetShedThreshold {
            shard: 0,
            threshold: 4_000,
        }));
        s.shards[0].shed_threshold = DEFAULT_SHED_CEILING;
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(actions.contains(&Action::SetShedThreshold {
            shard: 0,
            threshold: usize::MAX,
        }));
    }

    #[test]
    fn shed_threshold_never_tightens_below_the_floor() {
        let mut p = DefaultPolicy::default();
        let mut s = window(&[10_000_000, 10_000_000]);
        s.shards[0].shed_threshold = usize::MAX;
        s.shards[0].port_queue_drops = 10;
        // A shallow backlog (hwm 20 → half is 10) clamps to the floor.
        s.shards[0].queue_depth_hwm = 20;
        p.observe(&s);
        let actions = p.adjust(&s);
        assert!(actions.contains(&Action::SetShedThreshold {
            shard: 0,
            threshold: DEFAULT_SHED_FLOOR,
        }));
    }
}
