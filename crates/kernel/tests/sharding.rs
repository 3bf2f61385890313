//! The per-port queue bound.
//!
//! Besides the kernel-wide queue bound, each port's mailbox has a bound
//! of its own, so one flooded port cannot starve another. Drops at that
//! bound are counted under `DropReason::PortQueueFull`.

use std::sync::{Arc, Mutex};

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, DropReason, Handle, Kernel, Label, Sys, Value};

fn open_port(sys: &mut Sys<'_>, key: &str) -> Handle {
    let p = sys.new_port(Label::top());
    sys.set_port_label(p, Label::top()).unwrap();
    sys.publish_env(key, Value::Handle(p));
    p
}

/// The per-port bound drops only at the hot port: one flooder cannot
/// starve another port's mailbox.
#[test]
fn per_port_queue_limit_drops_only_the_hot_port() {
    let mut kernel = Kernel::new(11);
    kernel.set_port_queue_limit(3);

    let seen: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
    for (name, key) in [("hot", "hot.port"), ("cold", "cold.port")] {
        let s2 = seen.clone();
        kernel.spawn(
            name,
            Category::Other,
            service_with_start(
                move |sys| {
                    open_port(sys, key);
                },
                move |_sys, _msg| s2.lock().unwrap().push(name),
            ),
        );
    }
    let hot = kernel.global_env_handle("hot.port").unwrap();
    let cold = kernel.global_env_handle("cold.port").unwrap();

    // A single flooder bursts 10 at the hot port, then 2 at the cold
    // one, all within one handler activation (so nothing drains in
    // between). Only the hot port may drop.
    kernel.spawn(
        "flooder",
        Category::Other,
        service_with_start(
            |sys| {
                open_port(sys, "flood.port");
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
    kernel.inject(kernel.global_env_handle("flood.port").unwrap(), Value::Unit);
    kernel.run();

    let stats = kernel.stats();
    assert_eq!(
        stats.dropped_port_queue_full, 7,
        "10 sends at bound 3 drop 7"
    );
    assert_eq!(stats.dropped_queue_full, 0, "kernel-wide bound untouched");
    assert_eq!(stats.dropped_total(), 7);
    let seen = seen.lock().unwrap();
    let count = |name| seen.iter().filter(|s| **s == name).count();
    assert_eq!(count("hot"), 3, "hot port delivers up to its bound");
    assert_eq!(count("cold"), 2, "cold port never starves");
}

/// `DropReason::PortQueueFull` is part of the public vocabulary, apart
/// from the kernel-wide `QueueFull`.
#[test]
fn port_queue_full_is_a_distinct_drop_reason() {
    assert_ne!(DropReason::PortQueueFull, DropReason::QueueFull);
}
