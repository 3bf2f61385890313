//! §8 covert channels: tests that *demonstrate* the storage channels the
//! paper enumerates (they are inherent to run-time label checking), and
//! verify the mitigations Asbestos does implement.
//!
//! These tests document attack constructions; the channels working as
//! described is the expected (paper-faithful) behaviour.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::{service_with_start, Recorder};
use asbestos_kernel::{Category, Kernel, Label, Level, SendArgs, Value};

#[test]
fn contamination_heartbeat_storage_channel() {
    // The §8 construction: tainted process A leaks a bit to untainted C by
    // selectively contaminating one of two heartbeat relays B0/B1. "Such
    // storage channels are inherent to any system with run-time checking of
    // dynamic labels."
    //
    // Setup uses taint at level 2 (the paper's partial-taint model) so that
    // A can contaminate the B's through their default receive labels, and C
    // voluntarily lowers its own receive label to distinguish tainted from
    // untainted heartbeats.
    let mut kernel = Kernel::new(81);

    // C: the untainted receiver, logging which relays still reach it.
    let heard = Arc::new(Mutex::new(Vec::<String>::new()));
    let h2 = heard.clone();
    kernel.spawn(
        "C",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("c.port", Value::Handle(p));
            },
            move |_sys, msg| {
                h2.lock()
                    .unwrap()
                    .push(msg.body.as_str().unwrap_or("?").into());
            },
        ),
    );
    let c_port = kernel.global_env("c.port").unwrap().as_handle().unwrap();

    // B0 and B1: untainted relays that heartbeat to C when poked.
    for name in ["B0", "B1"] {
        let label = format!("{name}.port");
        let beat = name.to_string();
        kernel.spawn(
            name,
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&label, Value::Handle(p));
                },
                move |sys, _msg| {
                    sys.send(c_port, Value::Str(beat.clone().into())).unwrap();
                },
            ),
        );
    }
    let b0 = kernel.global_env("B0.port").unwrap().as_handle().unwrap();
    let b1 = kernel.global_env("B1.port").unwrap().as_handle().unwrap();

    // The compartment owner hands A its taint; C pre-emptively refuses it.
    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            |sys| {
                let t = sys.new_handle();
                sys.publish_env("t", Value::Handle(t));
            },
            |_, _| {},
        ),
    );
    let t = kernel.global_env("t").unwrap().as_handle().unwrap();

    // A: tainted with t 2; leaks the bit "1" by contaminating B1.
    kernel.spawn(
        "A",
        Category::Other,
        service_with_start(
            move |sys| {
                // A saw secret data in compartment t (partial taint t 2).
                sys.self_contaminate(&Label::from_pairs(Level::Star, &[(t, Level::L2)]));
                // Leak bit = 1: contaminate B1 (its default receive {2}
                // accepts level-2 taint — no cooperation needed from B1).
                let _ = sys.send(b1, Value::Str("contaminate".into()));
            },
            |_, _| {},
        ),
    );

    kernel.run();

    // Now C lowers its receive label for t and both B's heartbeat.
    // (Do the lowering through a driver message to C — processes may only
    // lower their own labels.)
    let heard_clear = heard.lock().unwrap().len();
    let _ = heard_clear;
    heard.lock().unwrap().clear();

    // Drive: poke both relays; C must hear only B0.
    // First, C lowers its own receive label (free, voluntary restriction).
    kernel.spawn(
        "driver",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(b0, Value::Str("beat".into())).unwrap();
                sys.send(b1, Value::Str("beat".into())).unwrap();
            },
            |_, _| {},
        ),
    );
    // God-mode stand-in for C's own lower_recv_label call (same effect;
    // lowering one's own receive label needs no privilege).
    // C is pid 0 (first spawn).
    kernel.run();

    // Without C's restriction, both heartbeats arrive (t 2 ≤ default 2):
    assert!(heard.lock().unwrap().contains(&"B0".to_string()));
    assert!(heard.lock().unwrap().contains(&"B1".to_string()));
    heard.lock().unwrap().clear();

    // With the restriction, B1's heartbeat is dropped — the bit leaks.
    // Apply C's voluntary restriction out of band (equivalent to C calling
    // lower_recv_label in its own handler).
    let c_proc = kernel.find_process("C").unwrap();
    let restricted = kernel
        .process(c_proc)
        .recv_label
        .glb(&Label::from_pairs(Level::L3, &[(t, Level::L1)]));
    kernel.set_process_labels(c_proc, None, Some(restricted));

    kernel.spawn(
        "driver2",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(b0, Value::Str("beat".into())).unwrap();
                sys.send(b1, Value::Str("beat".into())).unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();

    // C decodes the bit: B0 present, B1 missing ⇒ bit = 1.
    assert_eq!(*heard.lock().unwrap(), vec!["B0"]);
    assert!(kernel.stats().dropped_label_check >= 1);
}

#[test]
fn send_success_reveals_nothing() {
    // §4: reliable delivery notification would let label changes modulate
    // an observable success/failure bit, and a full-queue signal (§8) would
    // let other senders modulate one. Verify send returns the same success
    // when delivery will succeed, when the label check will drop the
    // message, and when the destination port is already full.
    let mut kernel = Kernel::new(82);
    // One pending message fills a port.
    kernel.set_port_queue_limit(1);
    let (rec, log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    let outcomes = Arc::new(Mutex::new(Vec::new()));
    let (o_start, o_tick) = (outcomes.clone(), outcomes.clone());
    kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                let tick = sys.new_port(Label::top());
                sys.set_port_label(tick, Label::top()).unwrap();
                sys.publish_env("sender.tick", Value::Handle(tick));
                // Will be delivered:
                o_start.lock().unwrap().push(sys.send(rport, Value::U64(1)));
                // Will be dropped (the first send holds the port at its
                // bound), but the syscall result is indistinguishable:
                o_start.lock().unwrap().push(sys.send(rport, Value::U64(3)));
            },
            move |sys, _msg| {
                // Will be dropped (tainted beyond the receiver's label),
                // but the syscall result is indistinguishable:
                let t = sys.new_handle();
                let args =
                    SendArgs::new().contaminate(Label::from_pairs(Level::Star, &[(t, Level::L3)]));
                o_tick
                    .lock()
                    .unwrap()
                    .push(sys.send_args(rport, Value::U64(2), &args));
            },
        ),
    );
    kernel.run();
    let tick = kernel.global_env_handle("sender.tick").unwrap();
    kernel.inject(tick, Value::Unit);
    kernel.run();
    assert_eq!(*outcomes.lock().unwrap(), vec![Ok(()), Ok(()), Ok(())]);
    assert_eq!(
        log.lock().unwrap().len(),
        1,
        "only the untainted message landed"
    );
    let stats = kernel.stats();
    assert_eq!(stats.dropped_port_queue_full, 1);
    assert_eq!(stats.dropped_label_check, 1);
}

#[test]
fn handles_do_not_reveal_allocation_count() {
    // §8: "Handles are generated by incrementing a 61-bit counter, which is
    // a storage channel. However, since the kernel encrypts the counter
    // value to produce handles, the user-visible sequence of handles does
    // not convey exploitable information."
    let mut kernel = Kernel::new(83);
    let observed = Arc::new(Mutex::new(Vec::<u64>::new()));
    let o2 = observed.clone();
    kernel.spawn(
        "prober",
        Category::Other,
        service_with_start(
            move |sys| {
                for _ in 0..64 {
                    o2.lock().unwrap().push(sys.new_handle().raw());
                }
            },
            |_, _| {},
        ),
    );
    kernel.run();
    let vals = observed.lock().unwrap();
    // Not sequential, not monotonic, spread over the 61-bit space.
    let monotonic_pairs = vals.windows(2).filter(|w| w[1] == w[0] + 1).count();
    assert_eq!(monotonic_pairs, 0, "handles look like a raw counter");
    let increasing = vals.windows(2).filter(|w| w[1] > w[0]).count();
    assert!(
        increasing < 55,
        "handle sequence is suspiciously ordered ({increasing}/63 increasing)"
    );
}

#[test]
fn port_names_are_unpredictable() {
    // §4: "When asked to create a port, the kernel returns a new port with
    // an unpredictable name. This is necessary because the ability to
    // create a port with a specific name would be a covert channel."
    // Two kernels with different seeds must produce different port names
    // for identical workloads.
    let names: Vec<Vec<u64>> = [84u64, 85u64]
        .iter()
        .map(|&seed| {
            let mut kernel = Kernel::new(seed);
            let observed = Arc::new(Mutex::new(Vec::<u64>::new()));
            let o2 = observed.clone();
            kernel.spawn(
                "creator",
                Category::Other,
                service_with_start(
                    move |sys| {
                        for _ in 0..8 {
                            o2.lock().unwrap().push(sys.new_port(Label::top()).raw());
                        }
                    },
                    |_, _| {},
                ),
            );
            kernel.run();
            let v = observed.lock().unwrap().clone();
            v
        })
        .collect();
    assert_ne!(names[0], names[1]);
}
