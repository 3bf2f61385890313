//! Lifecycle of the persistent shard worker pool.
//!
//! Three contracts, each of which `std::thread::scope` gave the old
//! engine for free and the pool must reproduce:
//!
//! * a panicking service handler propagates out of `run()` (via
//!   `resume_unwind`) without deadlocking the other workers, and the
//!   pool keeps serving later `run()` calls;
//! * dropping a kernel — even mid-workload, with messages still queued —
//!   joins every worker thread;
//! * back-to-back `run()` calls reuse the same parked workers instead of
//!   spawning fresh threads (observed through the monotone wakeup
//!   counter, which a rebuilt pool would reset, and through the host's
//!   thread count).
//!
//! Thread counts are read from `/proc/self/task`, counting only the
//! pool's own (named) workers: the test harness starts and retires its
//! threads whenever it likes, so a count of *all* tasks races with it. A
//! file-local lock serializes these tests so only one pool is alive at a
//! time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Value};

static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Live pool workers in this process: tasks in `/proc/self/task` whose
/// name is the pool's (`asbestos-shard-worker-N`, which the kernel cuts to
/// 15 bytes).
fn live_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .filter(|name| name.starts_with("asbestos-shard"))
        .count()
}

/// Waits (briefly) for the thread count to settle at `expected`.
fn assert_threads_settle_at(expected: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = live_threads();
        if now == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: thread count stuck at {now}, expected {expected}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Deploys one counting sink per shard; returns the kernel, the sinks'
/// ports (index = shard), and the shared delivery log.
fn deploy_sinks(
    seed: u64,
    shards: usize,
    workers: usize,
) -> (Kernel, Vec<Handle>, Arc<Mutex<Vec<u64>>>) {
    let mut kernel = Kernel::new_sharded(seed, shards);
    kernel.set_worker_threads(workers);
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut ports = Vec::new();
    for shard in 0..shards {
        let key = format!("sink{shard}.port");
        let publish_key = key.clone();
        let l2 = log.clone();
        kernel.spawn_on(
            shard,
            &format!("sink{shard}"),
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&publish_key, Value::Handle(p));
                },
                move |_sys, msg| {
                    if let Value::U64(n) = msg.body {
                        l2.lock().unwrap().push(n);
                    }
                },
            ),
        );
        ports.push(kernel.global_env(&key).unwrap().as_handle().unwrap());
    }
    (kernel, ports, log)
}

#[test]
fn worker_panic_propagates_without_deadlock_and_pool_survives() {
    let _guard = serial();
    let (mut kernel, ports, log) = deploy_sinks(0xB00, 4, 2);

    // A bomb on shard 1: panics the pool worker draining that shard.
    kernel.spawn_on(
        1,
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
    let bomb = kernel.global_env("bomb.port").unwrap().as_handle().unwrap();

    // Every shard gets work, so both workers are mid-round when the
    // panic fires on one of them.
    for &port in &ports {
        kernel.inject(port, Value::U64(7));
    }
    kernel.inject(bomb, Value::Unit);

    // Expected panic: silence the default hook for the duration.
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| kernel.run()));
    let _ = std::panic::take_hook();

    let payload = result.expect_err("handler panic must propagate out of run()");
    let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(message, "bomb handler detonated", "panic payload survives");

    // No worker deadlocked: the pool serves the next run and delivers.
    // (The aborted round's stragglers may ride along; only the tag-8
    // batch injected *after* the panic is asserted.)
    let wakeups_before = kernel.pool_wakeups();
    for &port in &ports {
        kernel.inject(port, Value::U64(8));
    }
    kernel.run();
    assert_eq!(
        log.lock().unwrap().iter().filter(|&&n| n == 8).count(),
        ports.len(),
        "post-panic run delivers on every shard"
    );
    assert!(
        kernel.pool_wakeups() > wakeups_before,
        "the same pool handled the post-panic run"
    );
}

#[test]
fn back_to_back_runs_reuse_the_same_pool() {
    let _guard = serial();
    let (mut kernel, ports, log) = deploy_sinks(0xBEE, 4, 3);

    for &port in &ports {
        kernel.inject(port, Value::U64(1));
    }
    kernel.run();
    let wakeups_first = kernel.pool_wakeups();
    assert!(
        wakeups_first >= 3,
        "every worker woke for the first parallel round (saw {wakeups_first})"
    );
    let threads_with_pool = live_threads();

    for &port in &ports {
        kernel.inject(port, Value::U64(2));
    }
    kernel.run();
    // The wakeup counter lives in the pool: growth across runs proves the
    // pool object (and its parked threads) survived; a rebuilt pool
    // restarts the counter.
    let wakeups_second = kernel.pool_wakeups();
    assert!(
        wakeups_second > wakeups_first,
        "second run woke the same pool ({wakeups_first} → {wakeups_second})"
    );
    assert_eq!(
        live_threads(),
        threads_with_pool,
        "second run spawned no new threads"
    );
    assert_eq!(log.lock().unwrap().len(), 2 * ports.len());

    // The counters surface through the merged god-mode stats.
    let stats = kernel.stats();
    assert_eq!(stats.worker_wakeups, wakeups_second);
    assert!(stats.rounds >= 2, "each run executed at least one round");
}

#[test]
fn drop_mid_workload_joins_all_workers() {
    let _guard = serial();
    let base_threads = live_threads();
    let (mut kernel, ports, _log) = deploy_sinks(0xDEAD, 4, 4);

    for &port in &ports {
        kernel.inject(port, Value::U64(1));
    }
    kernel.run();
    assert_threads_settle_at(base_threads + 4, "pool of 4 parked workers is live");

    // Mid-workload: new messages queued, never drained.
    for &port in &ports {
        kernel.inject(port, Value::U64(2));
    }
    assert!(kernel.queue_len() > 0, "workload genuinely pending");
    drop(kernel);
    assert_threads_settle_at(base_threads, "drop joined every worker");
}

#[test]
fn sequential_and_single_shard_configurations_spawn_no_threads() {
    let _guard = serial();
    let base_threads = live_threads();

    // Multi-shard with a worker budget of 1: the sweep scheduler.
    let (mut kernel, ports, log) = deploy_sinks(0x5E0, 4, 1);
    for &port in &ports {
        kernel.inject(port, Value::U64(3));
    }
    kernel.run();
    assert_eq!(
        live_threads(),
        base_threads,
        "sweep scheduler is threadless"
    );
    assert_eq!(kernel.pool_wakeups(), 0);
    assert_eq!(log.lock().unwrap().len(), ports.len());
    assert!(kernel.stats().rounds >= 1, "sweeps still count as rounds");
    drop(kernel);

    // Single shard: the monolithic engine, no pool, no channels.
    let (mut kernel, ports, _log) = deploy_sinks(0x51, 1, 4);
    kernel.inject(ports[0], Value::U64(4));
    kernel.run();
    assert_eq!(live_threads(), base_threads);
    assert_eq!(kernel.pool_wakeups(), 0);
    let stats = kernel.stats();
    assert_eq!(
        (stats.rounds, stats.xshard_subround, stats.xshard_barrier),
        (0, 0, 0),
        "single-shard kernels never route or round"
    );
    assert_eq!(kernel.kmem_report().pool_bytes, 0);
}
