//! The delivery-decision cache must be semantically invisible.
//!
//! Three pins:
//!
//! 1. A property test: for random label tuples — including duplicates that
//!    provoke cache hits, and a capacity-1 cache that forces evictions —
//!    the cached kernel delivers, drops, and relabels *bitwise identically*
//!    to an uncached kernel running the same workload.
//! 2. A covert-channel regression: the §8 heartbeat construction drops
//!    exactly the same messages with the cache on, off, and when replayed
//!    hot (every decision served from cache).
//! 3. The O(1) promise: a cache-hit delivery performs zero `Label::clone`
//!    calls (measured by the labels crate's global clone counter).

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Kernel, Label, Level, SendArgs, Value};
use asbestos_labels::Handle;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Strategies: small handle domain so tuples repeat and interact.
// ---------------------------------------------------------------------

fn arb_level() -> impl Strategy<Value = Level> {
    prop_oneof![
        Just(Level::Star),
        Just(Level::L0),
        Just(Level::L1),
        Just(Level::L2),
        Just(Level::L3),
    ]
}

prop_compose! {
    fn arb_label()(
        default in arb_level(),
        pairs in prop::collection::vec((0u64..12, arb_level()), 0..6),
    ) -> Label {
        let pairs: Vec<(Handle, Level)> =
            pairs.into_iter().map(|(h, l)| (Handle::from_raw(h), l)).collect();
        Label::from_pairs(default, &pairs)
    }
}

#[derive(Clone, Debug)]
struct SendPlan {
    contaminate: Label,
    verify: Label,
    decont_send: Label,
    decont_recv: Label,
}

prop_compose! {
    fn arb_send_plan()(
        contaminate in arb_label(),
        verify in arb_label(),
        decont_send in arb_label(),
        decont_recv in arb_label(),
    ) -> SendPlan {
        SendPlan { contaminate, verify, decont_send, decont_recv }
    }
}

#[derive(Clone, Debug)]
struct Plan {
    /// Sender send label; all-star senders can use decontamination labels.
    ps: Label,
    /// Receiver labels.
    qs: Label,
    qr: Label,
    /// Destination port label `p_R`.
    pr: Label,
    /// The messages, sent in order. Duplicates are common by construction
    /// (small domains), and the workload is sent twice to guarantee the
    /// cached kernel serves hits.
    sends: Vec<SendPlan>,
}

prop_compose! {
    fn arb_plan()(
        all_star in any::<bool>(),
        ps in arb_label(),
        qs in arb_label(),
        qr in arb_label(),
        pr in arb_label(),
        sends in prop::collection::vec(arb_send_plan(), 1..6),
    ) -> Plan {
        let ps = if all_star { Label::bottom() } else { ps };
        Plan { ps, qs, qr, pr, sends }
    }
}

// ---------------------------------------------------------------------
// The workload driver.
// ---------------------------------------------------------------------

/// Everything observable about one run, compared bitwise across cache
/// configurations.
#[derive(Debug, PartialEq)]
struct Observed {
    received: Vec<Value>,
    sent: u64,
    delivered: u64,
    dropped_label: u64,
    dropped_port_decont: u64,
    dropped_total: u64,
    recv_send_label: Label,
    recv_recv_label: Label,
    recv_send_fp: u64,
    recv_recv_fp: u64,
    sender_send_label: Label,
}

/// Runs `plan` on a kernel with the given delivery-cache capacity and
/// returns every observable effect. The whole send list is replayed twice
/// so identical tuples recur within one run.
fn run_plan(plan: &Plan, cache_capacity: usize) -> Observed {
    let mut kernel = Kernel::new(1234);
    kernel.set_delivery_cache_capacity(cache_capacity);

    let received = Arc::new(Mutex::new(Vec::<Value>::new()));
    let log = received.clone();
    let pr = plan.pr.clone();
    kernel.spawn(
        "recv",
        Category::Other,
        service_with_start(
            move |sys| {
                let port = sys.new_port(Label::top());
                sys.set_port_label(port, pr.clone()).unwrap();
                sys.publish_env("recv.port", Value::Handle(port));
            },
            move |_sys, msg| {
                log.lock().unwrap().push(msg.body.clone());
            },
        ),
    );
    let recv_port = kernel.global_env("recv.port").unwrap().as_handle().unwrap();
    let recv_pid = kernel.find_process("recv").unwrap();
    kernel.set_process_labels(recv_pid, Some(plan.qs.clone()), Some(plan.qr.clone()));

    let sends = plan.sends.clone();
    kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            |sys| {
                let port = sys.new_port(Label::top());
                sys.set_port_label(port, Label::top()).unwrap();
                sys.publish_env("sender.port", Value::Handle(port));
            },
            move |sys, _msg| {
                for (i, s) in sends.iter().enumerate() {
                    let args = SendArgs::new()
                        .contaminate(s.contaminate.clone())
                        .verify(s.verify.clone())
                        .grant(s.decont_send.clone())
                        .raise_recv(s.decont_recv.clone());
                    // Privilege violations surface at send; both kernels
                    // must agree, so just ignore them here.
                    let _ = sys.send_args(recv_port, Value::U64(i as u64), &args);
                }
            },
        ),
    );
    let sender_port = kernel
        .global_env("sender.port")
        .unwrap()
        .as_handle()
        .unwrap();
    let sender_pid = kernel.find_process("sender").unwrap();
    kernel.set_process_labels(sender_pid, Some(plan.ps.clone()), None);

    // Two rounds: the second replays tuples the first warmed the cache
    // with (interleaved with whatever relabeling round one caused).
    kernel.inject(sender_port, Value::Unit);
    kernel.run();
    kernel.inject(sender_port, Value::Unit);
    kernel.run();

    let stats = kernel.stats();
    let received = received.lock().unwrap().clone();
    let recv = kernel.process(recv_pid);
    let sender = kernel.process(sender_pid);
    Observed {
        received,
        sent: stats.sent,
        delivered: stats.delivered,
        dropped_label: stats.dropped_label_check,
        dropped_port_decont: stats.dropped_port_decont,
        dropped_total: stats.dropped_total(),
        recv_send_label: (*recv.send_label).clone(),
        recv_recv_label: (*recv.recv_label).clone(),
        recv_send_fp: recv.send_label.fingerprint(),
        recv_recv_fp: recv.recv_label.fingerprint(),
        sender_send_label: (*sender.send_label).clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decision *and* effect labels must be bitwise-identical between the
    /// cached and uncached paths, across random tuples and evictions.
    #[test]
    fn cached_delivery_is_bitwise_identical(plan in arb_plan()) {
        let uncached = run_plan(&plan, 0);
        let cached = run_plan(&plan, 1 << 16);
        // A capacity-1 cache evicts on almost every insertion, exercising
        // the miss → insert → evict → re-miss interleavings.
        let evicting = run_plan(&plan, 1);
        prop_assert_eq!(&cached, &uncached);
        prop_assert_eq!(&evicting, &uncached);
    }
}

// ---------------------------------------------------------------------
// Covert-channel regression.
// ---------------------------------------------------------------------

/// The §8 heartbeat construction: tainted A contaminates relay B0, C
/// refuses the taint, so C hears B1 but not B0. The *set of drops* is the
/// information flow — the cache must reproduce it exactly.
fn run_heartbeat(cache_capacity: usize, rounds: usize) -> (Vec<String>, u64) {
    let mut kernel = Kernel::new(81);
    kernel.set_delivery_cache_capacity(cache_capacity);

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
                    sys.send(c_port, Value::Str(beat.clone())).unwrap();
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

    for _ in 0..rounds {
        kernel.inject(b0, Value::Unit);
        kernel.inject(b1, Value::Unit);
        kernel.run();
    }
    let heard = heard.lock().unwrap().clone();
    (heard, kernel.stats().dropped_label_check)
}

#[test]
fn covert_channel_unchanged_by_cache() {
    // 8 rounds: round one misses, rounds two through eight are pure cache
    // hits in the cached kernel — and every round must drop B0's beat and
    // deliver B1's, in both kernels.
    let (heard_off, drops_off) = run_heartbeat(0, 8);
    let (heard_on, drops_on) = run_heartbeat(1 << 16, 8);
    assert_eq!(heard_off, heard_on, "cache changed which messages arrive");
    assert_eq!(drops_off, drops_on, "cache changed which messages drop");
    assert_eq!(drops_on, 8, "B0's tainted beat must drop every round");
    assert_eq!(heard_on, vec!["B1"; 8]);
}

#[test]
fn relabeling_invalidates_by_fingerprint() {
    // C hears B1 while permissive, then voluntarily restricts its receive
    // label. The earlier cached "deliver" decision must not resurrect the
    // flow: the restricted Q_R has a different fingerprint, hence a
    // different key.
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

    // Warm the cache: B's partially tainted beat reaches default C.
    kernel.inject(b_port, Value::Unit);
    kernel.run();
    assert_eq!(*heard.lock().unwrap(), 1);
    assert!(kernel.stats().cache_misses > 0);

    // C restricts; the same send must now drop even though the cache holds
    // a hot "deliver" entry for the old label tuple.
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

// ---------------------------------------------------------------------
// The O(1) hot path.
// ---------------------------------------------------------------------

#[test]
fn cache_hit_delivery_does_zero_label_clones() {
    let mut kernel = Kernel::new(99);
    kernel.spawn(
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

    // Warm: the first delivery misses and pays the full Figure 4 walk.
    kernel.inject(port, Value::Unit);
    assert!(kernel.step());
    let warm_hits = kernel.stats().cache_hits;

    // Hot: identical tuple. The delivery must be clone-free end to end.
    kernel.inject(port, Value::Unit);
    let clones_before = Label::clone_count();
    assert!(kernel.step());
    let clones_after = Label::clone_count();
    assert_eq!(
        clones_after - clones_before,
        0,
        "cache-hit delivery must not clone labels"
    );
    assert_eq!(kernel.stats().cache_hits, warm_hits + 1);
    assert_eq!(kernel.stats().delivered, 2);
}

/// A *miss* whose Figure 4 effects change nothing re-installs the `Arc`s
/// the receiver already holds: the full evaluation runs, but no label is
/// cloned and no chunk allocated, however large the receiver's labels.
#[test]
fn unchanged_effects_on_a_miss_clone_and_allocate_nothing() {
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
    // Each message is contaminated in a different one of them: a new E_S,
    // so a new cache key, every time.
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

    for &taint in &held[..5] {
        kernel.inject(source, Value::U64(taint.raw()));
        assert!(kernel.step(), "source runs and sends");
        let before = (
            kernel.stats().cache_misses,
            Label::clone_count(),
            Chunk::alloc_count(),
        );
        assert!(kernel.step(), "sink receives");
        let after = (
            kernel.stats().cache_misses,
            Label::clone_count(),
            Chunk::alloc_count(),
        );
        assert_eq!(after, (before.0 + 1, before.1, before.2));
    }
    assert_eq!(kernel.stats().delivered, 10);
    assert_eq!(kernel.stats().dropped_total(), 0);
}

#[test]
fn cache_memory_is_accounted() {
    let mut kernel = Kernel::new(3);
    kernel.spawn(
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
    assert_eq!(kernel.kmem_report().delivery_cache_bytes, 0);
    kernel.inject(port, Value::Unit);
    kernel.run();
    let report = kernel.kmem_report();
    assert!(
        report.delivery_cache_bytes > 0,
        "cached decision not billed"
    );
    assert!(report.total_bytes() >= report.delivery_cache_bytes);
    // Disabling the cache releases the memory.
    kernel.set_delivery_cache_capacity(0);
    assert_eq!(kernel.kmem_report().delivery_cache_bytes, 0);
}
