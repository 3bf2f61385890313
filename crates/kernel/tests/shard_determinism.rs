//! Pins the delivery engine bit-for-bit.
//!
//! The golden values below were recorded from the pre-sharding delivery
//! engine (PR 1) on a canonical workload that exercises every delivery
//! path: plain delivery, event-process forking and exit, label-check
//! drops, missing-port drops, queue-limit drops, and memory
//! copy-on-write. The kernel must reproduce the identical delivery trace,
//! `Stats`, `KmemReport`, and cycle clock: neither the sharded engine
//! that came after it nor that engine's removal may perturb the
//! paper-figure configuration in any observable way.
//!
//! The clock was re-recorded once, when the delivery-decision cache was
//! removed, from the previous engine run with the cache at capacity 0:
//! every delivery is now charged §5.6's linear label work.

use asbestos_kernel::util::{ep_service_fn, service_with_start, Recorder};
use asbestos_kernel::{Category, Handle, Kernel, KmemReport, Label, Level, Stats, Value};

/// FNV-1a over the delivery trace, so the test pins order and content
/// without listing hundreds of entries.
fn trace_hash(entries: &[(u64, String)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for (port, body) in entries {
        eat(&port.to_le_bytes());
        eat(body.as_bytes());
    }
    h
}

/// The canonical workload, parameterized over the kernel construction so
/// the same function drives the golden run and any future configuration.
fn run_workload(mut kernel: Kernel) -> (Kernel, u64, usize) {
    // A sink that records every delivery (the trace).
    let (rec, log) = Recorder::new("sink.port");
    kernel.spawn("sink", Category::Other, Box::new(rec));
    let sink = kernel.global_env("sink.port").unwrap().as_handle().unwrap();

    // An event-process worker: per-message it stores session state in
    // simulated memory (forcing COW frames) and replies to the sink.
    kernel.spawn_ep_service(
        "worker",
        Category::Okws,
        ep_service_fn(
            move |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("worker.port", Value::Handle(p));
                sys.mem_write_u64(0x1000, 7).unwrap();
            },
            move |sys, msg| {
                let n = match msg.body {
                    Value::U64(n) => n,
                    _ => 0,
                };
                let base = sys.mem_read_u64(0x1000).unwrap();
                sys.mem_write_u64(0x2000 + 8 * n, base + n).unwrap();
                sys.send(sink, Value::U64(base + n)).unwrap();
                if n % 3 == 0 {
                    sys.ep_exit().unwrap();
                }
            },
        ),
    );
    let worker = kernel
        .global_env("worker.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // A tainted chatter: its sends carry a compartment at level 3 that
    // default receivers reject, so every send drops at the label check.
    kernel.spawn(
        "tainted",
        Category::Other,
        service_with_start(
            |sys| {
                let t = sys.new_handle();
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("tainted.port", Value::Handle(p));
                sys.self_contaminate(&Label::from_pairs(Level::Star, &[(t, Level::L3)]));
            },
            move |sys, _msg| {
                sys.send(sink, Value::Str("leak?".into())).unwrap();
            },
        ),
    );
    let tainted = kernel
        .global_env("tainted.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // A burster used to exercise the queue limit.
    kernel.spawn(
        "burster",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("burster.port", Value::Handle(p));
            },
            move |sys, _msg| {
                for i in 0..10u64 {
                    sys.send(sink, Value::U64(1000 + i)).unwrap();
                }
            },
        ),
    );
    let burster = kernel
        .global_env("burster.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // Phase 1: repeated worker traffic interleaved with tainted sends and
    // a dead-port probe.
    for round in 0..6u64 {
        for n in 0..4u64 {
            kernel.inject(worker, Value::U64(round * 4 + n));
        }
        kernel.inject(tainted, Value::Unit);
        kernel.inject(Handle::from_raw(0x0dead), Value::Unit);
        kernel.run();
    }

    // Phase 2: a burst against a tiny queue bound (silent QueueFull drops).
    kernel.set_queue_limit(4);
    kernel.inject(burster, Value::Unit);
    kernel.run();
    kernel.set_queue_limit(1 << 20);

    // Phase 3: one more pass over the same worker traffic.
    for n in 0..4u64 {
        kernel.inject(worker, Value::U64(n));
    }
    kernel.run();

    let entries: Vec<(u64, String)> = log
        .lock()
        .unwrap()
        .iter()
        .map(|r| (r.port.raw(), format!("{:?}", r.body)))
        .collect();
    let hash = trace_hash(&entries);
    let count = entries.len();
    (kernel, hash, count)
}

/// Golden values recorded from the pre-sharding engine (PR 1) at seed
/// 0xA5BE. The kernel must match them forever.
#[test]
fn single_shard_matches_pre_refactor_engine() {
    let (kernel, hash, count) = run_workload(Kernel::new(0xA5BE));

    assert_eq!(count, 32, "delivered-to-sink trace length");
    assert_eq!(hash, 0xB927_D831_1B62_50B7, "delivery trace hash");

    let expected_stats = Stats {
        sent: 38,
        injected: 41,
        delivered: 67,
        dropped_label_check: 6,
        dropped_no_port: 6,
        dropped_queue_full: 6,
        eps_created: 28,
        eps_exited: 10,
        context_switches: 44,
        ep_switches: 7,
        // The deepest the mailboxes ever got during this workload —
        // deterministic like every other counter here.
        queue_depth_hwm: 6,
        ..Stats::default()
    };
    assert_eq!(kernel.stats(), expected_stats);

    let expected_kmem = KmemReport {
        process_bytes: 3680,
        ep_bytes: 11592,
        handle_bytes: 1520,
        queue_bytes: 0,
        user_frame_bytes: 77824,
    };
    assert_eq!(kernel.kmem_report(), expected_kmem);

    assert_eq!(kernel.now(), 1_202_142, "virtual clock");
    assert_eq!(kernel.ep_count(), 28);
    assert_eq!(kernel.process_count(), 4);
    assert_eq!(kernel.handle_table().allocator().allocated(), 5);
    assert_eq!(kernel.queue_len(), 0);
}
