//! The OKWS repeated-tuple workload behind the `scale_shards` bench.
//!
//! One parameterized builder models the Figure 9 regime — a pool of
//! per-user senders, each carrying a distinct multi-entry taint label
//! (the per-user `uT`/`uG` handles OKWS accumulates), repeatedly
//! bursting at its own long-lived service port. Every user's delivery
//! tuple repeats exactly (§5.6's observation that labels are highly
//! repetitive).
//!
//! Each user's sink is placed either on the sender's shard or
//! deliberately one shard away. The `scale_shards` bench runs every one
//! of its rows (shard counts, placements, payload modes) on this builder,
//! which keeps them comparable.

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
                |_sys, _msg| {},
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
        let burst = w.burst;
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
}
