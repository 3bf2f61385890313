//! The OKWS repeated-tuple workload, shared by the perf benches.
//!
//! One parameterized builder models the Figure 9 regime — a pool of
//! per-user senders, each carrying a distinct multi-entry taint label
//! (the per-user `uT`/`uG` handles OKWS accumulates), repeatedly
//! bursting at its own long-lived service port. Every user's delivery
//! tuple repeats exactly (§5.6's observation that labels are highly
//! repetitive).
//!
//! Each user's sink is placed either on the sender's shard or
//! deliberately one shard away. `scale_shards` and `autotune` share this
//! builder, which keeps their numbers comparable and prevents the
//! workloads from silently diverging.

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, Payload, Value};

/// What each burst message carries.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum PayloadMode {
    /// Control-plane tuples only (`Value::U64`) — the original regime.
    None,
    /// Each send clones one pre-built shared payload of the given size:
    /// the refcount moves, the bytes stay put (the zero-copy hot path).
    Shared(usize),
    /// Each send materializes a fresh buffer of the given size — the
    /// per-send deep copy the zero-copy path removed, kept as the A/B
    /// baseline so the win stays measurable.
    Copied(usize),
}

/// Shape of one repeated-tuple deployment.
#[derive(Clone, Copy)]
pub struct TupleWorkload {
    /// Concurrent user sessions (distinct label tuples).
    pub users: usize,
    /// Explicit entries per user send label (per-user compartments).
    pub entries: u64,
    /// Messages per user per round.
    pub burst: usize,
    /// Base raw handle value for the synthetic taint compartments.
    pub handle_base: u64,
    /// Raw-handle stride between users' compartment ranges.
    pub handle_stride: u64,
    /// Place each user's sink one shard away from its sender so every
    /// message rides the cross-shard router.
    pub cross_shard: bool,
    /// Body carried by each burst message.
    pub payload: PayloadMode,
    /// Zipf skew over users: user `u` (rank `u+1`) sends a burst
    /// proportional to `1/(u+1)^s`, normalized so the total message
    /// count stays ~`users * burst`. `0.0` means uniform — every user
    /// sends exactly `burst`, bit-identical to the pre-skew workload.
    /// Since senders are pinned `user % shards`, low-numbered users (the
    /// heavy ranks) concentrate on shard 0: the hot-shard regime the
    /// tuner's work stealing targets.
    pub zipf_s: f64,
    /// Iterations of synthetic per-delivery service work each sink burns
    /// (0 = the pure-delivery regime every pre-autotune bench measures).
    /// Models the request-handling CPU an OKWS service spends per
    /// message; it runs on the *sink's* shard, so it is exactly the cost
    /// that migrates when the tuner steals a hot port.
    pub sink_spin: u32,
}

impl TupleWorkload {
    /// Messages user `u` sends per round under this workload's skew.
    ///
    /// Deterministic (pure IEEE arithmetic over the rank), so two runs
    /// of the same shape always produce identical per-user bursts.
    pub fn burst_for_user(&self, user: usize) -> usize {
        if self.zipf_s == 0.0 {
            return self.burst;
        }
        let total_weight: f64 = (0..self.users)
            .map(|u| 1.0 / ((u + 1) as f64).powf(self.zipf_s))
            .sum();
        let weight = 1.0 / ((user + 1) as f64).powf(self.zipf_s);
        let share = (self.users * self.burst) as f64 * weight / total_weight;
        (share.round() as usize).max(1)
    }

    /// Total messages per round across all users (skew-aware).
    pub fn total_burst(&self) -> usize {
        (0..self.users).map(|u| self.burst_for_user(u)).sum()
    }
}

/// Deploys the workload over `shards` shards; returns the kernel and the
/// senders' trigger ports.
///
/// Senders are pinned round-robin (`user % shards`); each user's sink is
/// placed per the workload's topology. Every
/// sink's receive label is opened to `{3}`, like a service that raised
/// its receive label for every registered user; every sender's send
/// label carries its `entries` disjoint compartments at level 2.
pub fn deploy_repeated_tuple(seed: u64, shards: usize, w: &TupleWorkload) -> (Kernel, Vec<Handle>) {
    let mut kernel = Kernel::new_sharded(seed, shards);

    let sink_spin = w.sink_spin;
    let spawn_sink = |kernel: &mut Kernel, shard: usize, name: &str, key: String| {
        let publish_key = key.clone();
        kernel.spawn_on(
            shard,
            name,
            Category::Okws,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                },
                move |_sys, _msg| {
                    // Synthetic per-request service work, charged to the
                    // shard that hosts the sink.
                    let mut x = 0x9E37_79B9u32;
                    for _ in 0..sink_spin {
                        x = std::hint::black_box(x.wrapping_mul(0x85EB_CA6B).rotate_left(13));
                    }
                },
            ),
        );
        let port = kernel.global_env(&key).unwrap().as_handle().unwrap();
        let pid = kernel.find_process(name).unwrap();
        kernel.set_process_labels(pid, None, Some(Label::top()));
        port
    };

    let mut trigger_ports = Vec::new();
    for user in 0..w.users {
        let send_shard = user % shards;
        let sink_shard = if w.cross_shard {
            (user + 1) % shards
        } else {
            send_shard
        };
        let sink = spawn_sink(
            &mut kernel,
            sink_shard,
            &format!("sink{user}"),
            format!("user{user}.sink"),
        );

        let trig_key = format!("user{user}.trigger");
        let publish_key = trig_key.clone();
        let burst = w.burst_for_user(user);
        let mode = w.payload;
        // Built once per user, outside the send loop: the Shared mode's
        // whole point is that steady-state sends touch no bytes.
        let template: Option<Payload> = match mode {
            PayloadMode::None => None,
            PayloadMode::Shared(size) | PayloadMode::Copied(size) => Some(vec![0xA5; size].into()),
        };
        kernel.spawn_on(
            send_shard,
            &format!("user{user}"),
            Category::Okws,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                },
                move |sys, _msg| {
                    for i in 0..burst {
                        let body = match (&mode, &template) {
                            (PayloadMode::Shared(_), Some(t)) => Value::Bytes(t.clone()),
                            (PayloadMode::Copied(_), Some(t)) => {
                                Value::Bytes(Payload::copy_from_slice(t))
                            }
                            _ => Value::U64(i as u64),
                        };
                        sys.send(sink, body).unwrap();
                    }
                },
            ),
        );
        trigger_ports.push(kernel.global_env(&trig_key).unwrap().as_handle().unwrap());

        // The user's session taint: `entries` distinct compartment
        // handles.
        let pid = kernel.find_process(&format!("user{user}")).unwrap();
        let pairs: Vec<(Handle, Level)> = (0..w.entries)
            .map(|j| {
                (
                    Handle::from_raw(w.handle_base + user as u64 * w.handle_stride + j),
                    Level::L2,
                )
            })
            .collect();
        kernel.set_process_labels(pid, Some(Label::from_pairs(Level::L1, &pairs)), None);
    }
    (kernel, trigger_ports)
}

/// One round: every user bursts at its sink; runs to idle.
pub fn trigger_round(kernel: &mut Kernel, triggers: &[Handle]) {
    for &port in triggers {
        kernel.inject(port, Value::Unit);
    }
    kernel.run();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_and_cross_shard_sinks_deliver_every_burst() {
        let w = TupleWorkload {
            users: 4,
            entries: 3,
            burst: 5,
            handle_base: 0x1000,
            handle_stride: 0x100,
            cross_shard: false,
            payload: PayloadMode::None,
            zipf_s: 0.0,
            sink_spin: 0,
        };
        let (mut kernel, triggers) = deploy_repeated_tuple(1, 1, &w);
        trigger_round(&mut kernel, &triggers);
        // 4 triggers + 4×5 burst messages, none dropped.
        assert_eq!(kernel.stats().delivered, 4 + 20);
        assert_eq!(kernel.stats().dropped_total(), 0);

        let w2 = TupleWorkload {
            cross_shard: true,
            ..w
        };
        let (mut kernel, triggers) = deploy_repeated_tuple(1, 2, &w2);
        trigger_round(&mut kernel, &triggers);
        assert_eq!(kernel.stats().delivered, 4 + 20);
        assert_eq!(kernel.stats().dropped_total(), 0);
    }

    #[test]
    fn payload_modes_differ_only_in_materializations() {
        let base = TupleWorkload {
            users: 2,
            entries: 3,
            burst: 4,
            handle_base: 0x1000,
            handle_stride: 0x100,
            cross_shard: true,
            payload: PayloadMode::Shared(256),
            zipf_s: 0.0,
            sink_spin: 0,
        };
        // Shared: one template materialization per user at deploy time,
        // zero per send.
        let (mut kernel, triggers) = deploy_repeated_tuple(1, 2, &base);
        let before = Payload::deep_copies();
        trigger_round(&mut kernel, &triggers);
        assert_eq!(kernel.stats().delivered, 2 + 8);
        assert_eq!(
            Payload::deep_copies(),
            before,
            "shared mode must not copy bytes per send"
        );

        // Copied: same deliveries, one materialization per send.
        let copied = TupleWorkload {
            payload: PayloadMode::Copied(256),
            ..base
        };
        let (mut kernel, triggers) = deploy_repeated_tuple(1, 2, &copied);
        let before = Payload::deep_copies();
        trigger_round(&mut kernel, &triggers);
        assert_eq!(kernel.stats().delivered, 2 + 8);
        assert_eq!(
            Payload::deep_copies(),
            before + 8,
            "copied mode deep-copies once per send"
        );
    }

    #[test]
    fn zipf_bursts_are_skewed_normalized_and_deterministic() {
        let w = TupleWorkload {
            users: 16,
            entries: 3,
            burst: 32,
            handle_base: 0x1000,
            handle_stride: 0x100,
            cross_shard: false,
            payload: PayloadMode::None,
            zipf_s: 1.2,
            sink_spin: 0,
        };
        let bursts: Vec<usize> = (0..w.users).map(|u| w.burst_for_user(u)).collect();
        // Monotone non-increasing in rank, genuinely skewed at the head,
        // floored at 1 in the tail.
        assert!(bursts.windows(2).all(|p| p[0] >= p[1]));
        assert!(bursts[0] > 4 * bursts[w.users - 1]);
        assert!(*bursts.last().unwrap() >= 1);
        // Normalization keeps the round total near users*burst.
        let total = w.total_burst();
        let target = w.users * w.burst;
        assert!(
            total >= target * 9 / 10 && total <= target * 11 / 10,
            "total {total} strays from target {target}"
        );
        // s = 0 is exactly the uniform workload.
        let uniform = TupleWorkload { zipf_s: 0.0, ..w };
        assert!((0..16).all(|u| uniform.burst_for_user(u) == 32));
        assert_eq!(uniform.total_burst(), 16 * 32);

        // The deployed kernel actually sends the skewed counts.
        let (mut kernel, triggers) = deploy_repeated_tuple(1, 2, &w);
        trigger_round(&mut kernel, &triggers);
        assert_eq!(kernel.stats().delivered as usize, w.users + total);
        assert_eq!(kernel.stats().dropped_total(), 0);
    }
}
