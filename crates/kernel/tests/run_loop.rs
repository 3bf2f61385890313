//! The run loop's contracts, at one shard and at four: a handler panic
//! propagates out of `run()` and the kernel keeps delivering; a
//! single-shard kernel never routes and counts no rounds; and
//! `run_limited(limit)` bounds the deliveries of the *whole run*,
//! whatever the shard count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Value};

const LIMIT: u64 = 10_000;

/// One bouncer name per shard; a bouncer publishes its port under it.
const KEYS: [&str; 4] = ["b0", "b1", "b2", "b3"];

/// Spawns a bouncer on `shard` and returns its port. Every delivery is
/// counted; on `U64(n)` with `n > 0` it sends `U64(n - 1)` to whatever
/// port `peer_key` names, so `U64(0)` is a plain sink message and
/// `U64(u64::MAX)` bounces forever for every practical purpose.
fn spawn_bouncer(
    kernel: &mut Kernel,
    shard: usize,
    key: &'static str,
    peer_key: &'static str,
    delivered: &Arc<AtomicU64>,
) -> Handle {
    let delivered = delivered.clone();
    kernel.spawn_on(
        shard,
        key,
        Category::Other,
        service_with_start(
            move |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env(key, Value::Handle(p));
            },
            move |sys, msg| {
                delivered.fetch_add(1, Ordering::Relaxed);
                let left = msg.body.as_u64().unwrap();
                if left > 0 {
                    let peer = sys.env(peer_key).unwrap().as_handle().unwrap();
                    sys.send(peer, Value::U64(left - 1)).unwrap();
                }
            },
        ),
    );
    kernel.global_env_handle(key).unwrap()
}

/// A kernel with one bouncer per shard, each its own peer: a message to
/// one never leaves its shard.
fn local_bouncers(shards: usize) -> (Kernel, Vec<Handle>, Arc<AtomicU64>) {
    let mut kernel = Kernel::new_sharded(0x11FE, shards);
    let delivered = Arc::new(AtomicU64::new(0));
    let ports = (0..shards)
        .map(|s| spawn_bouncer(&mut kernel, s, KEYS[s], KEYS[s], &delivered))
        .collect();
    (kernel, ports, delivered)
}

/// A ping-pong pair with `ping` on shard 0 and `pong` on `pong_shard`;
/// returns the kernel, ping's port and the delivery counter.
fn ping_pong(shards: usize, pong_shard: usize) -> (Kernel, Handle, Arc<AtomicU64>) {
    let mut kernel = Kernel::new_sharded(0x11FE, shards);
    let delivered = Arc::new(AtomicU64::new(0));
    let ping = spawn_bouncer(&mut kernel, 0, "ping", "pong", &delivered);
    spawn_bouncer(&mut kernel, pong_shard, "pong", "ping", &delivered);
    (kernel, ping, delivered)
}

#[test]
fn handler_panic_propagates_and_the_kernel_keeps_delivering() {
    for shards in [1, 4] {
        let (mut kernel, ports, delivered) = local_bouncers(shards);
        kernel.spawn_on(
            1 % shards,
            "bomb",
            Category::Other,
            service_with_start(
                |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env("bomb.port", Value::Handle(p));
                },
                |_sys, _msg| panic!("bomb handler detonated"),
            ),
        );
        let bomb = kernel.global_env_handle("bomb.port").unwrap();

        for &port in &ports {
            kernel.inject(port, Value::U64(0));
        }
        kernel.inject(bomb, Value::Unit);
        let payload = catch_unwind(AssertUnwindSafe(|| kernel.run()))
            .expect_err("handler panic must propagate out of run()");
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "bomb handler detonated", "panic payload survives");

        // Whatever the interrupted run left queued rides along with the
        // batch injected after the panic; all of it is delivered.
        for &port in &ports {
            kernel.inject(port, Value::U64(0));
        }
        kernel.run();
        assert_eq!(
            delivered.load(Ordering::Relaxed),
            2 * shards as u64,
            "{shards}-shard: both batches delivered on every shard"
        );
        assert_eq!(kernel.queue_len(), 0);
    }
}

#[test]
fn single_shard_never_routes_or_rounds() {
    let (mut kernel, ports, _) = local_bouncers(1);
    kernel.inject(ports[0], Value::U64(0));
    kernel.run();
    let stats = kernel.stats();
    assert_eq!(
        (stats.rounds, stats.xshard_subround, stats.xshard_barrier),
        (0, 0, 0),
        "single-shard kernels never route or round"
    );
    assert_eq!(kernel.kmem_report().xshard_bytes, 0);

    let (mut kernel, ports, delivered) = local_bouncers(4);
    for &port in &ports {
        kernel.inject(port, Value::U64(0));
    }
    kernel.run();
    assert_eq!(delivered.load(Ordering::Relaxed), 4);
    assert!(kernel.stats().rounds >= 1, "sweeps count as rounds");
}

#[test]
#[should_panic(expected = "livelock")]
fn same_shard_ping_pong_trips_the_livelock_bound() {
    let (mut kernel, ping, _) = ping_pong(1, 0);
    kernel.inject(ping, Value::U64(u64::MAX));
    kernel.run_limited(LIMIT);
}

#[test]
#[should_panic(expected = "livelock")]
fn cross_shard_ping_pong_trips_the_livelock_bound() {
    let (mut kernel, ping, _) = ping_pong(4, 2);
    kernel.inject(ping, Value::U64(u64::MAX));
    kernel.run_limited(LIMIT);
}

/// The bound is `limit` deliveries for the whole run, not per shard: four
/// shards that each livelock locally still stop after `LIMIT` in total.
#[test]
fn livelock_bound_covers_the_whole_run_not_each_shard() {
    let (mut kernel, ports, delivered) = local_bouncers(4);
    for &port in &ports {
        kernel.inject(port, Value::U64(u64::MAX));
    }
    let result = catch_unwind(AssertUnwindSafe(|| kernel.run_limited(LIMIT)));
    assert!(result.is_err(), "four local livelocks must trip the bound");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        LIMIT,
        "the run stops after exactly `limit` deliveries"
    );
}

#[test]
fn finite_chain_under_the_limit_returns_its_exact_step_count() {
    for (shards, pong_shard) in [(1, 0), (4, 2)] {
        let (mut kernel, ping, delivered) = ping_pong(shards, pong_shard);
        // U64(8_999) counts down to 0: 9,000 deliveries, then idle.
        kernel.inject(ping, Value::U64(8_999));
        assert_eq!(kernel.run_limited(LIMIT), 9_000, "{shards}-shard chain");
        assert_eq!(delivered.load(Ordering::Relaxed), 9_000);
        assert_eq!(kernel.queue_len(), 0);
    }
}
