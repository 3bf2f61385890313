//! What one delivery does to the labels it touches.
//!
//! 1. Figure 4 effects that change nothing re-install the `Arc`s the
//!    receiver already holds: no label clone, no chunk allocation, and no
//!    per-delivery state retained anywhere in the kernel.
//! 2. The §8 heartbeat construction drops the tainted relay's beat on
//!    every round, not just the first.
//! 3. A receiver that restricts its receive label stops a flow that was
//!    delivered a moment earlier.

use std::sync::{Arc, Mutex};

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Kernel, Label, Level, SendArgs, Value, PAGE_SIZE};
use asbestos_labels::Handle;

/// The §8 heartbeat construction: tainted A contaminates relay B0, C
/// refuses the taint, so C hears B1 but not B0. The *set of drops* is the
/// information flow, and it must be the same on every round: repeating a
/// label tuple never changes its verdict.
#[test]
fn heartbeat_drops_the_tainted_relay_every_round() {
    let mut kernel = Kernel::new(81);

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

    for name in ["B0", "B1"] {
        let key = format!("{name}.port");
        let beat = name.to_string();
        kernel.spawn(
            name,
            Category::Other,
            service_with_start(
                move |sys| {
                    let p = sys.new_port(Label::top());
                    sys.set_port_label(p, Label::top()).unwrap();
                    sys.publish_env(&key, Value::Handle(p));
                },
                move |sys, _msg| {
                    sys.send(c_port, Value::Str(beat.clone().into())).unwrap();
                },
            ),
        );
    }
    let b0 = kernel.global_env("B0.port").unwrap().as_handle().unwrap();
    let b1 = kernel.global_env("B1.port").unwrap().as_handle().unwrap();

    // Out-of-band taint: B0 carries t at 3; C refuses anything above 1.
    let t = Handle::from_raw(0x77);
    let b0_pid = kernel.find_process("B0").unwrap();
    kernel.set_process_labels(
        b0_pid,
        Some(Label::from_pairs(Level::L1, &[(t, Level::L3)])),
        None,
    );
    let c_pid = kernel.find_process("C").unwrap();
    kernel.set_process_labels(
        c_pid,
        None,
        Some(Label::from_pairs(Level::L2, &[(t, Level::L1)])),
    );

    for _ in 0..8 {
        kernel.inject(b0, Value::Unit);
        kernel.inject(b1, Value::Unit);
        kernel.run();
    }
    assert_eq!(
        kernel.stats().dropped_label_check,
        8,
        "B0's tainted beat must drop every round"
    );
    assert_eq!(*heard.lock().unwrap(), vec!["B1"; 8]);
}

#[test]
fn restricting_recv_label_stops_a_previously_delivered_flow() {
    // C hears B while permissive, then voluntarily restricts its receive
    // label. The earlier delivery must not carry the flow forward: the
    // check reads C's labels as they are at receive time.
    let mut kernel = Kernel::new(7);
    let heard = Arc::new(Mutex::new(0u32));
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
            move |_sys, _msg| {
                *h2.lock().unwrap() += 1;
            },
        ),
    );
    let c_port = kernel.global_env("c.port").unwrap().as_handle().unwrap();
    let c_pid = kernel.find_process("C").unwrap();

    let t = Handle::from_raw(0x5);
    kernel.spawn(
        "B",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("b.port", Value::Handle(p));
            },
            move |sys, _msg| {
                sys.send(c_port, Value::Unit).unwrap();
            },
        ),
    );
    let b_port = kernel.global_env("b.port").unwrap().as_handle().unwrap();
    let b_pid = kernel.find_process("B").unwrap();
    kernel.set_process_labels(
        b_pid,
        Some(Label::from_pairs(Level::L1, &[(t, Level::L2)])),
        None,
    );

    // B's partially tainted beat reaches default C.
    kernel.inject(b_port, Value::Unit);
    kernel.run();
    assert_eq!(*heard.lock().unwrap(), 1);

    // C restricts; the same send must now drop.
    let restricted = kernel
        .process(c_pid)
        .recv_label
        .glb(&Label::from_pairs(Level::L3, &[(t, Level::L1)]));
    kernel.set_process_labels(c_pid, None, Some(restricted));
    let drops_before = kernel.stats().dropped_label_check;
    kernel.inject(b_port, Value::Unit);
    kernel.run();
    assert_eq!(
        *heard.lock().unwrap(),
        1,
        "restricted C must not hear the beat"
    );
    assert_eq!(kernel.stats().dropped_label_check, drops_before + 1);
}

/// A delivery whose Figure 4 effects change nothing re-installs the
/// `Arc`s the receiver already holds: the full evaluation runs, but no
/// label is cloned, no chunk allocated and nothing retained, however
/// large the receiver's labels.
#[test]
fn unchanged_effects_clone_and_allocate_nothing() {
    use asbestos_labels::chunk::Chunk;

    let mut kernel = Kernel::new(7);
    let sink = kernel.spawn(
        "sink",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("sink.port", Value::Handle(p));
            },
            |_sys, _msg| {},
        ),
    );
    let port = kernel.global_env("sink.port").unwrap().as_handle().unwrap();
    // A front-end-sized send label: the sink controls 774 compartments, so
    // contamination in any of them leaves it where it is (§5.3).
    let held: Vec<Handle> = (0..774)
        .map(|i| Handle::from_raw(0x9000 + 37 * i))
        .collect();
    let stars: Vec<(Handle, Level)> = held.iter().map(|&h| (h, Level::Star)).collect();
    kernel.set_process_labels(
        sink,
        Some(Label::from_pairs(Level::L1, &stars)),
        Some(Label::top()),
    );
    // Each message is contaminated in a different one of them: a new E_S
    // every time.
    kernel.spawn(
        "source",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("source.port", Value::Handle(p));
            },
            move |sys, msg| {
                let taint = Handle::from_raw(msg.body.as_u64().unwrap());
                let args = SendArgs::new()
                    .contaminate(Label::from_pairs(Level::Star, &[(taint, Level::L3)]));
                sys.send_args(port, Value::Unit, &args).unwrap();
            },
        ),
    );
    let source = kernel
        .global_env("source.port")
        .unwrap()
        .as_handle()
        .unwrap();

    let mut bytes_after_first = None;
    for &taint in &held[..256] {
        kernel.inject(source, Value::U64(taint.raw()));
        assert!(kernel.step(), "source runs and sends");
        let before = (Label::clone_count(), Chunk::alloc_count());
        assert!(kernel.step(), "sink receives");
        assert_eq!((Label::clone_count(), Chunk::alloc_count()), before);
        bytes_after_first.get_or_insert_with(|| kernel.kmem_report().total_bytes());
    }
    assert_eq!(kernel.stats().delivered, 512);
    assert_eq!(kernel.stats().dropped_total(), 0);
    // Nothing retains per-delivery state: 255 more distinct E_S later the
    // kernel holds what it held after the first.
    let first = bytes_after_first.expect("the loop ran");
    let last = kernel.kmem_report().total_bytes();
    assert!(
        last.abs_diff(first) <= PAGE_SIZE,
        "kmem grew from {first} to {last} bytes over 255 deliveries"
    );
}
