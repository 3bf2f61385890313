//! Multi-shard delivery semantics.
//!
//! The sharded engine must be an *invisible* parallelization: label
//! evaluation always runs on the destination shard against the same state
//! the monolithic engine would have read, per-sender-per-port FIFO order
//! survives routing, and independent traffic chains produce exactly the
//! same deliveries and drops no matter how the kernel is partitioned.
//!
//! The CI shard matrix sets `ASBESTOS_TEST_SHARDS`; the property tests
//! here always compare shard counts {1, 2, 3, 4} and additionally include
//! the matrix value when present.

use std::sync::{Arc, Mutex};

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, DropReason, Handle, Kernel, Label, Level, SendArgs, Value};
use proptest::test_runner::TestRng;

/// Shard counts exercised by every test, plus the CI matrix value.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 3, 4];
    if let Ok(v) = std::env::var("ASBESTOS_TEST_SHARDS") {
        if let Ok(n) = v.parse::<usize>() {
            if !counts.contains(&n) {
                counts.push(n);
            }
        }
    }
    counts
}

// ---------------------------------------------------------------------
// Smoke: explicit cross-shard request/reply.
// ---------------------------------------------------------------------

#[test]
fn cross_shard_request_reply() {
    for shards in shard_counts() {
        let mut kernel = Kernel::new_sharded(7, shards);
        let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        // Echo server pinned to the last shard.
        kernel.spawn_on(
            shards - 1,
            "echo",
            Category::Other,
            service_with_start(
                |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env("echo.port", Value::Handle(p));
                },
                |sys, msg| {
                    if let Value::List(items) = &msg.body {
                        let reply_to = items[0].as_handle().unwrap();
                        let n = items[1].as_u64().unwrap();
                        sys.send(reply_to, Value::U64(n * 10)).unwrap();
                    }
                },
            ),
        );
        let echo = kernel.global_env("echo.port").unwrap().as_handle().unwrap();

        // Client pinned to shard 0: fires 5 requests, logs 5 replies.
        let l2 = log.clone();
        kernel.spawn_on(
            0,
            "client",
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env("client.port", Value::Handle(p));
                    for n in 1..=5u64 {
                        sys.send(echo, Value::List(vec![Value::Handle(p), Value::U64(n)]))
                            .unwrap();
                    }
                },
                move |_sys, msg| {
                    l2.lock().unwrap().push(msg.body.as_u64().unwrap());
                },
            ),
        );

        kernel.run();
        assert_eq!(
            *log.lock().unwrap(),
            vec![10, 20, 30, 40, 50],
            "{shards}-shard request/reply"
        );
        assert_eq!(kernel.stats().delivered, 10);
        assert_eq!(kernel.queue_len(), 0);
    }
}

/// Regression: a message parked in a shard outbox by a coordinator-phase
/// send (here: a handler running inside `spawn`'s on_start) must be
/// routed — and delivered — by the sequential `step()` scheduler, not
/// reported as Idle and silently stranded.
#[test]
fn step_routes_outbox_messages_before_reporting_idle() {
    let mut kernel = Kernel::new_sharded(13, 2);
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    let l2 = log.clone();
    kernel.spawn_on(
        1,
        "receiver",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("r.port", Value::Handle(p));
            },
            move |_sys, msg| l2.lock().unwrap().push(msg.body.as_u64().unwrap()),
        ),
    );
    let target = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    // The sender's on_start runs during spawn (coordinator phase) and
    // sends cross-shard: the message lands in shard 0's outbox while
    // every mailbox is empty.
    kernel.spawn_on(
        0,
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(target, Value::U64(77)).unwrap();
            },
            |_, _| {},
        ),
    );
    assert_eq!(kernel.queue_len(), 1, "message parked in the outbox");

    // Drive with the sequential debug scheduler only.
    let mut steps = 0;
    while kernel.step() {
        steps += 1;
        assert!(steps < 100, "step() livelocked");
    }
    assert_eq!(*log.lock().unwrap(), vec![77], "outbox message delivered");
    assert_eq!(kernel.stats().delivered, 1);
    assert_eq!(kernel.queue_len(), 0);
}

// ---------------------------------------------------------------------
// Property: any shard count delivers/drops the same multiset as one.
// ---------------------------------------------------------------------

/// One chain's script: the sender performs these steps, in order, against
/// its dedicated receiver. Per-sender-per-port FIFO order is preserved by
/// the router, so each chain's outcome is independent of sharding — which
/// is exactly what the test pins.
#[derive(Clone)]
enum Step {
    /// Send tagged `n`, contaminated with sender handle `h` at level 3.
    /// Delivers iff the receiver's `Q_R(h)` has been raised first.
    Tainted { handle: usize, tag: u64 },
    /// Send carrying `D_R = {h at 3}`: raises the receiver's `Q_R(h)`
    /// (the sender holds ⋆ for its own handles, so Figure 4 permits it).
    RaiseRecv { handle: usize, tag: u64 },
    /// Plain untainted send; always delivers.
    Plain { tag: u64 },
}

/// Builds a deterministic randomized workload: `chains` independent
/// sender→receiver pairs, each with a scripted mix of tainted sends,
/// receive-label raises, and plain sends.
fn random_scripts(chains: usize, rng: &mut TestRng) -> Vec<Vec<Step>> {
    (0..chains)
        .map(|chain| {
            let steps = 4 + rng.below(20) as usize;
            let mut tag = (chain as u64) << 32;
            (0..steps)
                .map(|_| {
                    tag += 1;
                    match rng.below(3) {
                        0 => Step::Tainted {
                            handle: rng.below(3) as usize,
                            tag,
                        },
                        1 => Step::RaiseRecv {
                            handle: rng.below(3) as usize,
                            tag,
                        },
                        _ => Step::Plain { tag },
                    }
                })
                .collect()
        })
        .collect()
}

/// Everything a chain test needs to drive the workload by hand: the
/// kernel, per-chain receiver logs, and the senders' trigger ports.
struct ChainRig {
    kernel: Kernel,
    logs: Vec<Arc<Mutex<Vec<u64>>>>,
    /// Every receiver's deliveries in the order the kernel made them.
    order: Arc<Mutex<Vec<u64>>>,
    triggers: Vec<Handle>,
}

/// Runs the chain workload on `shards` shards; returns per-chain receiver
/// logs plus (delivered, label drops, sent) counters.
fn run_chains(scripts: &[Vec<Step>], shards: usize, seed: u64) -> (Vec<Vec<u64>>, (u64, u64, u64)) {
    let mut rig = setup_chains(scripts, shards, seed);
    rig.fire();
    assert_eq!(rig.kernel.queue_len(), 0);
    rig.outcome()
}

impl ChainRig {
    /// Triggers every chain's sender and runs the kernel to idle.
    fn fire(&mut self) {
        for &port in &self.triggers {
            self.kernel.inject(port, Value::Unit);
        }
        self.kernel.run();
    }

    fn outcome(&self) -> (Vec<Vec<u64>>, (u64, u64, u64)) {
        let stats = self.kernel.stats();
        let traces = self
            .logs
            .iter()
            .map(|l| l.lock().unwrap().clone())
            .collect();
        (
            traces,
            (stats.delivered, stats.dropped_label_check, stats.sent),
        )
    }
}

/// Spawns the chain workload without injecting the triggers, so tests
/// can interleave injection, partial draining, and `run()`.
fn setup_chains(scripts: &[Vec<Step>], shards: usize, seed: u64) -> ChainRig {
    let mut kernel = Kernel::new_sharded(seed, shards);
    let logs: Vec<Arc<Mutex<Vec<u64>>>> = scripts
        .iter()
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let order: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut trigger_ports = Vec::new();

    for (chain, script) in scripts.iter().enumerate() {
        // Receiver and sender deliberately land on *different* shards
        // (when there are several) so most chains route cross-shard.
        let recv_shard = chain % shards;
        let send_shard = (chain + 1) % shards;

        let l2 = logs[chain].clone();
        let o2 = order.clone();
        let recv_key = format!("chain{chain}.recv");
        let publish_key = recv_key.clone();
        kernel.spawn_on(
            recv_shard,
            &format!("recv{chain}"),
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                },
                move |_sys, msg| {
                    let tag = msg.body.as_u64().unwrap();
                    l2.lock().unwrap().push(tag);
                    o2.lock().unwrap().push(tag);
                },
            ),
        );
        let target = kernel.global_env(&recv_key).unwrap().as_handle().unwrap();

        let script = script.clone();
        let send_key = format!("chain{chain}.send");
        let publish_key = send_key.clone();
        kernel.spawn_on(
            send_shard,
            &format!("send{chain}"),
            Category::Other,
            service_with_start(
                move |sys| {
                    let handles = [sys.new_handle(), sys.new_handle(), sys.new_handle()];
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                    sys.set_env("h0", Value::Handle(handles[0]));
                    sys.set_env("h1", Value::Handle(handles[1]));
                    sys.set_env("h2", Value::Handle(handles[2]));
                },
                move |sys, _msg| {
                    let h = |sys: &asbestos_kernel::Sys<'_>, i: usize| {
                        sys.env(&format!("h{i}")).unwrap().as_handle().unwrap()
                    };
                    for step in &script {
                        match *step {
                            Step::Tainted { handle, tag } => {
                                let taint =
                                    Label::from_pairs(Level::Star, &[(h(sys, handle), Level::L3)]);
                                sys.send_args(
                                    target,
                                    Value::U64(tag),
                                    &SendArgs::new().contaminate(taint),
                                )
                                .unwrap();
                            }
                            Step::RaiseRecv { handle, tag } => {
                                let dr =
                                    Label::from_pairs(Level::Star, &[(h(sys, handle), Level::L3)]);
                                sys.send_args(
                                    target,
                                    Value::U64(tag),
                                    &SendArgs::new().raise_recv(dr),
                                )
                                .unwrap();
                            }
                            Step::Plain { tag } => {
                                sys.send(target, Value::U64(tag)).unwrap();
                            }
                        }
                    }
                },
            ),
        );
        trigger_ports.push(kernel.global_env(&send_key).unwrap().as_handle().unwrap());
    }

    ChainRig {
        kernel,
        logs,
        order,
        triggers: trigger_ports,
    }
}

#[test]
fn sharded_delivery_matches_single_shard() {
    let mut rng = TestRng::deterministic("sharding::multiset");
    for case in 0..12 {
        let scripts = random_scripts(6, &mut rng);
        let (base_traces, base_counts) = run_chains(&scripts, 1, 0x5A5A + case);
        for shards in shard_counts() {
            if shards == 1 {
                continue;
            }
            let (traces, counts) = run_chains(&scripts, shards, 0x5A5A + case);
            // Per-chain traces are *identical* (not just same multiset):
            // chains are independent and per-sender-per-port FIFO holds.
            assert_eq!(
                traces, base_traces,
                "case {case}: {shards}-shard per-chain delivery traces"
            );
            assert_eq!(
                counts, base_counts,
                "case {case}: {shards}-shard delivered/dropped/sent counters"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Sub-round routing: cross-shard hops no longer cost a round each.
// ---------------------------------------------------------------------

/// A 4-hop relay across shards 0→1→2→3: with sub-round routing the run
/// loop completes the whole chain in a single sweep, every hop picked up
/// mid-sweep through the inbound channels.
#[test]
fn forward_relay_completes_in_one_round() {
    let mut kernel = Kernel::new_sharded(21, 4);
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    // Stage i forwards to stage i+1; the last stage logs. Spawn in
    // reverse so each stage can resolve its successor's port at start.
    let l2 = log.clone();
    kernel.spawn_on(
        3,
        "stage3",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("stage3.port", Value::Handle(p));
            },
            move |_sys, msg| l2.lock().unwrap().push(msg.body.as_u64().unwrap()),
        ),
    );
    for stage in (0..3).rev() {
        let next = kernel
            .global_env(&format!("stage{}.port", stage + 1))
            .unwrap()
            .as_handle()
            .unwrap();
        let key = format!("stage{stage}.port");
        let publish_key = key.clone();
        kernel.spawn_on(
            stage,
            &format!("stage{stage}"),
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                },
                move |sys, msg| {
                    sys.send(next, Value::U64(msg.body.as_u64().unwrap() + 1))
                        .unwrap();
                },
            ),
        );
    }
    let head = kernel
        .global_env("stage0.port")
        .unwrap()
        .as_handle()
        .unwrap();

    kernel.inject(head, Value::U64(0));
    kernel.run();

    assert_eq!(*log.lock().unwrap(), vec![3], "relay value walked 3 hops");
    let stats = kernel.stats();
    assert_eq!(
        stats.rounds, 1,
        "sub-round routing resolves a forward chain in one sweep"
    );
    assert_eq!(
        stats.xshard_subround, 3,
        "every hop was picked up mid-round"
    );
    assert_eq!(stats.xshard_barrier, 0, "no hop waited for the next run");
}

// ---------------------------------------------------------------------
// Sharded runs are repeatable without asking.
// ---------------------------------------------------------------------

/// The rig built and run twice with one seed — and no scheduler call of
/// any kind — yields the identical *ordered* kernel-wide delivery trace,
/// `Stats`, per-shard clocks and memory report: the schedule is a
/// function of the inputs, not just the per-chain outcomes.
#[test]
fn sharded_runs_repeat_exactly() {
    let mut rng = TestRng::deterministic("sharding::reproducible");
    let scripts = random_scripts(8, &mut rng);
    for shards in [4, 8] {
        let observe = || {
            let mut rig = setup_chains(&scripts, shards, 99);
            rig.fire();
            let order = rig.order.lock().unwrap().clone();
            (
                order,
                format!("{:?}", rig.kernel.stats()),
                rig.kernel.per_shard_elapsed_cycles(),
                rig.kernel.kmem_report(),
            )
        };
        assert_eq!(observe(), observe(), "{shards}-shard run must repeat");
    }
}

// ---------------------------------------------------------------------
// Per-port backpressure (the new queue bound).
// ---------------------------------------------------------------------

#[test]
fn per_port_queue_limit_drops_only_the_hot_port() {
    for shards in shard_counts() {
        let mut kernel = Kernel::new_sharded(11, shards);
        kernel.set_port_queue_limit(3);

        let seen: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        for (name, key) in [("hot", "hot.port"), ("cold", "cold.port")] {
            let s2 = seen.clone();
            kernel.spawn(
                name,
                Category::Other,
                service_with_start(
                    move |sys| {
                        let p = sys.new_port(Label::top());
                        sys.set_port_label(p, Label::top()).unwrap();
                        sys.publish_env(key, Value::Handle(p));
                    },
                    move |_sys, _msg| s2.lock().unwrap().push(name),
                ),
            );
        }
        let hot = kernel.global_env("hot.port").unwrap().as_handle().unwrap();
        let cold = kernel.global_env("cold.port").unwrap().as_handle().unwrap();

        // A single flooder bursts 10 at the hot port, then 2 at the cold
        // one, all within one handler activation (so nothing drains in
        // between). Only the hot port may drop.
        kernel.spawn(
            "flooder",
            Category::Other,
            service_with_start(
                |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env("flood.port", Value::Handle(p));
                },
                move |sys, _msg| {
                    for i in 0..10u64 {
                        sys.send(hot, Value::U64(i)).unwrap();
                    }
                    sys.send(cold, Value::U64(100)).unwrap();
                    sys.send(cold, Value::U64(101)).unwrap();
                },
            ),
        );
        let flood = kernel
            .global_env("flood.port")
            .unwrap()
            .as_handle()
            .unwrap();
        kernel.inject(flood, Value::Unit);
        kernel.run();

        let stats = kernel.stats();
        assert_eq!(
            stats.dropped_port_queue_full, 7,
            "{shards}-shard: 10 sends at bound 3 drop 7"
        );
        assert_eq!(stats.dropped_queue_full, 0, "shard-wide bound untouched");
        assert_eq!(stats.dropped_total(), 7);
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.iter().filter(|s| **s == "hot").count(),
            3,
            "{shards}-shard: hot port delivers up to its bound"
        );
        assert_eq!(
            seen.iter().filter(|s| **s == "cold").count(),
            2,
            "{shards}-shard: cold port never starves"
        );
    }
}

/// `DropReason::PortQueueFull` is part of the public vocabulary.
#[test]
fn port_queue_full_is_a_distinct_drop_reason() {
    assert_ne!(DropReason::PortQueueFull, DropReason::QueueFull);
    let _ = Handle::from_raw(1); // keep the import exercised on all paths
}

// ---------------------------------------------------------------------
// Mixed schedules: partial `step()` draining interleaved with `run()`.
// ---------------------------------------------------------------------

/// The debug scheduler (`step()`: route, then one delivery round-robin
/// across shards) and the sweep (`run()`) are two schedules over the
/// same queues. Inject everything, take a random number of single
/// steps so queues are left mid-drain, then run to idle: the per-chain
/// traces — not just the multiset — and the counters must match the
/// 1-shard baseline at every shard count.
#[test]
fn partial_step_drains_then_run_match_single_shard() {
    let mut rng = TestRng::deterministic("sharding::partial-drain");
    for case in 0..8u64 {
        let scripts = random_scripts(6, &mut rng);
        let (base_traces, base_counts) = run_chains(&scripts, 1, 0xBEEF + case);
        for shards in shard_counts() {
            if shards == 1 {
                continue;
            }
            let mut rig = setup_chains(&scripts, shards, 0xBEEF + case);
            for &port in &rig.triggers {
                rig.kernel.inject(port, Value::Unit);
            }
            let stepped = 1 + rng.below(48);
            for _ in 0..stepped {
                if !rig.kernel.step() {
                    break;
                }
            }
            rig.kernel.run();
            assert_eq!(rig.kernel.queue_len(), 0);
            let (traces, counts) = rig.outcome();
            assert_eq!(
                traces, base_traces,
                "case {case}: {shards}-shard traces after up to {stepped} single steps"
            );
            assert_eq!(
                counts, base_counts,
                "case {case}: {shards}-shard counters after up to {stepped} single steps"
            );
        }
    }
}
