//! End-to-end federation semantics: messages and labels across the wire,
//! with the Figure 4 verdict always derived on the destination kernel.

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_kernel::{Category, Kernel, Label, Level, Message, Service, Sys, Value};
use asbestos_okws::logic::EchoStore;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

/// Publishes `echo.port` and answers every `Handle` body with "pong".
struct Echo;

impl Service for Echo {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let port = sys.new_port(Label::top());
        // Open the port: new_port applies p_R(p) ← 0 (§4 bootstrap).
        sys.set_port_label(port, Label::top()).unwrap();
        sys.publish_env("echo.port", Value::Handle(port));
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        if let Some(reply) = msg.body.as_handle() {
            let _ = sys.send(reply, Value::Str("pong".into()));
        }
    }
}

/// Sends its reply port to `echo.port` and publishes whatever comes back.
struct Pinger;

impl Service for Pinger {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let target = sys
            .env("echo.port")
            .and_then(|v| v.as_handle())
            .expect("echo.port replicated before the pinger boots");
        let reply = sys.new_port(Label::top());
        sys.set_port_label(reply, Label::top()).unwrap();
        let _ = sys.send(target, Value::Handle(reply));
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        sys.publish_env("ping.result", msg.body.clone());
    }
}

/// Self-contaminates with a fresh taint handle at 3, then sends to
/// `echo.port` — a send the receiver's default `{2}` label must refuse.
struct TaintedSender;

impl Service for TaintedSender {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let taint = sys.new_handle();
        sys.self_contaminate(&Label::from_pairs(Level::L1, &[(taint, Level::L3)]));
        let target = sys
            .env("echo.port")
            .and_then(|v| v.as_handle())
            .expect("echo.port replicated");
        let _ = sys.send(target, Value::Str("secret".into()));
    }

    fn on_message(&mut self, _sys: &mut Sys<'_>, _msg: &Message) {}
}

fn two_kernel_cluster_with_echo() -> Cluster {
    let mut cluster = Cluster::new(42, 2, 1);
    cluster.nodes[1]
        .kernel
        .spawn("echo", Category::Other, Box::new(Echo));
    cluster.run();
    cluster
}

#[test]
fn request_and_reply_cross_the_wire() {
    let mut cluster = two_kernel_cluster_with_echo();
    // The env binding — and the port handle inside it — replicated.
    assert!(cluster.nodes[0]
        .kernel
        .global_env("echo.port")
        .and_then(|v| v.as_handle())
        .is_some());

    cluster.nodes[0]
        .kernel
        .spawn("pinger", Category::Other, Box::new(Pinger));
    cluster.run();

    assert_eq!(
        cluster.nodes[0].kernel.global_env("ping.result"),
        Some(Value::Str("pong".into()))
    );
    // Two Forwards crossed: the ping (0→1) and the pong (1→0).
    assert_eq!(cluster.switch().forwarded, 2);
    assert_eq!(cluster.nodes[0].gateway.forwarded_out, 1);
    assert_eq!(cluster.nodes[0].gateway.forwarded_in, 1);
    assert_eq!(cluster.nodes[1].gateway.forwarded_out, 1);
    assert_eq!(cluster.nodes[1].gateway.forwarded_in, 1);
    // Each kernel delivered exactly the message addressed to it.
    assert_eq!(cluster.nodes[0].kernel.stats().delivered, 1);
    assert_eq!(cluster.nodes[1].kernel.stats().delivered, 1);
}

#[test]
fn figure4_verdict_derives_from_destination_kernel_state() {
    let mut cluster = two_kernel_cluster_with_echo();
    cluster.nodes[0]
        .kernel
        .spawn("tainted", Category::Other, Box::new(TaintedSender));
    cluster.run();

    // The contaminated send crossed the wire and was *dropped on the
    // destination kernel*: echo's default receive label {2} refuses the
    // taint-at-3 the serialized E_S carries. The source kernel records
    // nothing — §4's silent drop, across machines.
    let k0 = cluster.nodes[0].kernel.stats();
    let k1 = cluster.nodes[1].kernel.stats();
    assert_eq!(k1.dropped_label_check, 1);
    assert_eq!(k0.dropped_label_check, 0);
    assert_eq!(k1.delivered, 0);
    // The message was accepted into kernel 1's queues (counted there,
    // not at the source), then refused at delivery time.
    assert_eq!(k1.sent, 1);
    assert_eq!(k0.sent, 0);
    assert_eq!(cluster.switch().forwarded, 1);
}

/// The same workload on one kernel and on a two-kernel federation yields
/// the same merged message accounting: federation changes placement, not
/// semantics.
#[test]
fn merged_stats_match_a_single_kernel_run() {
    // Single kernel: echo, pinger, and the tainted sender side by side.
    let mut single = Kernel::new(42);
    single.spawn("echo", Category::Other, Box::new(Echo));
    single.run();
    single.spawn("pinger", Category::Other, Box::new(Pinger));
    single.run();
    single.spawn("tainted", Category::Other, Box::new(TaintedSender));
    single.run();
    let want = single.stats();

    // Federated: echo on kernel 1, senders on kernel 0.
    let mut cluster = two_kernel_cluster_with_echo();
    cluster.nodes[0]
        .kernel
        .spawn("pinger", Category::Other, Box::new(Pinger));
    cluster.run();
    cluster.nodes[0]
        .kernel
        .spawn("tainted", Category::Other, Box::new(TaintedSender));
    cluster.run();
    let got = cluster.stats();

    assert_eq!(got.sent, want.sent);
    assert_eq!(got.delivered, want.delivered);
    assert_eq!(got.dropped_label_check, want.dropped_label_check);
    assert_eq!(got.dropped_total(), want.dropped_total());
}

#[test]
fn environment_replicates_without_echo_storms() {
    let mut cluster = Cluster::new(7, 3, 1);
    cluster.run();
    cluster.nodes[2]
        .kernel
        .set_global_env("cluster.motd", Value::Str("hello".into()));
    cluster.run();
    for node in &cluster.nodes {
        assert_eq!(
            node.kernel.global_env("cluster.motd"),
            Some(Value::Str("hello".into()))
        );
    }
    // Quiescent means quiescent: a settled cluster exchanges nothing.
    let before = cluster.wire_stats();
    cluster.run();
    let after = cluster.wire_stats();
    assert_eq!(before.frames_out, after.frames_out);
    assert_eq!(before.bytes_in, after.bytes_in);
}

/// §5.1 across the cluster: kernels mint handles from disjoint cipher
/// lanes, so no two kernels can ever produce the same handle value —
/// which is what makes a serialized handle unambiguous on arrival.
#[test]
fn handles_are_unique_cluster_wide() {
    struct Minter;
    impl Service for Minter {
        fn on_start(&mut self, sys: &mut Sys<'_>) {
            let minted: Vec<Value> = (0..64)
                .map(|_| Value::U64(sys.new_handle().raw()))
                .collect();
            sys.publish_env("minted", Value::List(minted));
        }

        fn on_message(&mut self, _sys: &mut Sys<'_>, _msg: &Message) {}
    }

    let mut cluster = Cluster::new(99, 4, 2);
    let mut seen = std::collections::HashSet::new();
    for node in &mut cluster.nodes {
        node.kernel
            .spawn("minter", Category::Other, Box::new(Minter));
        let Some(Value::List(minted)) = node.kernel.global_env("minted") else {
            panic!("minter published");
        };
        for v in minted {
            assert!(seen.insert(v.as_u64().unwrap()), "handle collision");
        }
    }
    assert_eq!(seen.len(), 4 * 64);
}

/// An 8-user store deployment at `shards` × `shards`.
fn store_config(shards: usize) -> OkwsConfig {
    let mut config = OkwsConfig::new(80).sharded(shards).lanes(shards);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    for u in 0..8 {
        config.users.push((format!("u{u}"), format!("p{u}")));
    }
    config
}

/// Issues request `i` of a fixed list (per user: writes, a read, a
/// logout) on `kernel`.
fn issue(client: &mut OkwsClient, kernel: &mut Kernel, i: usize) -> usize {
    let (user, pw, data) = (
        format!("u{}", i % 8),
        format!("p{}", i % 8),
        format!("d{i}"),
    );
    let extra: &[(&str, &str)] = match i / 8 % 4 {
        3 => &[("logout", "1")],
        2 => &[],
        _ => &[("data", &data)],
    };
    client.request(kernel, "store", &user, &pw, extra)
}

/// Slot 0 of 1 is bit-for-bit the ordinary kernel constructor, and with
/// one member `deploy_okws` places every worker where `Okws::start`
/// would — so a one-kernel federation serves a request list exactly as
/// the bare kernel does: same bytes, same counters, same clock, nothing
/// relayed.
#[test]
fn one_kernel_federation_matches_the_plain_engine() {
    for shards in [1, 4] {
        let (mut kernel, okws) = Okws::deploy(0x0501, store_config(shards));
        let mut plain = OkwsClient::new(&okws);
        let mut cluster = Cluster::new(0x0501, 1, shards);
        let okws = deploy_okws(&mut cluster, store_config(shards));
        let mut fed = OkwsClient::new(&okws);

        for i in 0..64 {
            let a = issue(&mut plain, &mut kernel, i);
            kernel.run();
            plain.driver.poll(&kernel);
            let b = issue(&mut fed, &mut cluster.nodes[0].kernel, i);
            cluster.run();
            fed.driver.poll(&cluster.nodes[0].kernel);
            assert_eq!(
                fed.parse_response(b).expect("federated request answered"),
                plain.parse_response(a).expect("plain request answered"),
                "{shards} shards: response {i}"
            );
        }
        assert_eq!(
            format!("{:?}", cluster.stats()),
            format!("{:?}", kernel.stats()),
            "{shards} shards: kernel counters"
        );
        assert_eq!(cluster.elapsed_cycles(), kernel.elapsed_cycles());
        // Nothing to federate: the switch relayed no cross-kernel traffic.
        assert_eq!(cluster.switch().forwarded, 0);
    }
}
