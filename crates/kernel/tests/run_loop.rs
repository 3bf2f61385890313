//! The run loop's contracts: a handler panic propagates out of `run()`
//! and the kernel keeps delivering, and `run_limited(limit)` bounds the
//! deliveries of the *whole run*, however many services are busy.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Value};

const LIMIT: u64 = 10_000;

/// The bouncers of `local_bouncers`; each publishes its port under its
/// name.
const KEYS: [&str; 4] = ["b0", "b1", "b2", "b3"];

/// Spawns a bouncer and returns its port. Every delivery is
/// counted; on `U64(n)` with `n > 0` it sends `U64(n - 1)` to whatever
/// port `peer_key` names, so `U64(0)` is a plain sink message and
/// `U64(u64::MAX)` bounces forever for every practical purpose.
fn spawn_bouncer(
    kernel: &mut Kernel,
    key: &'static str,
    peer_key: &'static str,
    delivered: &Arc<AtomicU64>,
) -> Handle {
    let delivered = delivered.clone();
    kernel.spawn(
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

/// A kernel with four bouncers, each its own peer.
fn local_bouncers() -> (Kernel, Vec<Handle>, Arc<AtomicU64>) {
    let mut kernel = Kernel::new(0x11FE);
    let delivered = Arc::new(AtomicU64::new(0));
    let ports = KEYS
        .iter()
        .map(|&key| spawn_bouncer(&mut kernel, key, key, &delivered))
        .collect();
    (kernel, ports, delivered)
}

/// A ping-pong pair; returns the kernel, ping's port and the delivery
/// counter.
fn ping_pong() -> (Kernel, Handle, Arc<AtomicU64>) {
    let mut kernel = Kernel::new(0x11FE);
    let delivered = Arc::new(AtomicU64::new(0));
    let ping = spawn_bouncer(&mut kernel, "ping", "pong", &delivered);
    spawn_bouncer(&mut kernel, "pong", "ping", &delivered);
    (kernel, ping, delivered)
}

#[test]
fn handler_panic_propagates_and_the_kernel_keeps_delivering() {
    let (mut kernel, ports, delivered) = local_bouncers();
    kernel.spawn(
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
        2 * KEYS.len() as u64,
        "both batches delivered to every bouncer"
    );
    assert_eq!(kernel.queue_len(), 0);
}

#[test]
#[should_panic(expected = "livelock")]
fn same_shard_ping_pong_trips_the_livelock_bound() {
    let (mut kernel, ping, _) = ping_pong();
    kernel.inject(ping, Value::U64(u64::MAX));
    kernel.run_limited(LIMIT);
}

/// The bound is `limit` deliveries for the whole run, not per chain: four
/// bouncers that each livelock on their own still stop after `LIMIT` in
/// total.
#[test]
fn livelock_bound_covers_the_whole_run_not_each_shard() {
    let (mut kernel, ports, delivered) = local_bouncers();
    for &port in &ports {
        kernel.inject(port, Value::U64(u64::MAX));
    }
    let result = catch_unwind(AssertUnwindSafe(|| kernel.run_limited(LIMIT)));
    assert!(result.is_err(), "four livelocks must trip the bound");
    assert_eq!(
        delivered.load(Ordering::Relaxed),
        LIMIT,
        "the run stops after exactly `limit` deliveries"
    );
}

#[test]
fn finite_chain_under_the_limit_returns_its_exact_step_count() {
    let (mut kernel, ping, delivered) = ping_pong();
    // U64(8_999) counts down to 0: 9,000 deliveries, then idle.
    kernel.inject(ping, Value::U64(8_999));
    assert_eq!(kernel.run_limited(LIMIT), 9_000);
    assert_eq!(delivered.load(Ordering::Relaxed), 9_000);
    assert_eq!(kernel.queue_len(), 0);
}
