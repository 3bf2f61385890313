//! OKWS across the federation: the §7 web server with its front end on
//! kernel 0 and worker processes on other kernels, plus the golden pin —
//! a two-kernel deployment's Figure 4 verdict trace must be bit-identical
//! to the single-kernel run of the same workload — a hostile worker
//! against federated routing, the workers' privileges at every placement,
//! and workers on another kernel that try to become idd's binding party
//! or to rewire a trusted process over the wire.

#[path = "../../okws/tests/hostile/mod.rs"]
mod hostile;

use std::rc::Rc;

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_db::DB_ADMIN_VERIFY_ENV;
use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, Stats, Value};
use asbestos_okws::idd::{IDD_DEMUX_VERIFY_ENV, LAUNCHER_VERIFY_ENV};
use asbestos_okws::logic::{EchoStore, ParamLength};
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use hostile::{BindingSquatter, Loot, Rewirer};

fn store_config(users: &[(&str, &str)]) -> OkwsConfig {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    for (u, p) in users {
        config.users.push((u.to_string(), p.to_string()));
    }
    config
}

/// One federated request: issue on kernel 0, run the cluster (not just
/// the kernel — the worker lives elsewhere), then poll the driver.
fn fed_request(
    cluster: &mut Cluster,
    client: &mut OkwsClient,
    service: &str,
    user: &str,
    password: &str,
    extra: &[(&str, &str)],
) -> Option<(u16, Vec<u8>)> {
    let idx = client.request(&mut cluster.nodes[0].kernel, service, user, password, extra);
    cluster.run();
    client.driver.poll(&cluster.nodes[0].kernel);
    client.parse_response(idx)
}

#[test]
fn federated_okws_serves_the_figure5_flow() {
    let mut cluster = Cluster::new(301, 2, 1);
    let okws = deploy_okws(&mut cluster, store_config(&[("alice", "pw-a")]));
    let mut client = OkwsClient::new(&okws);

    // The worker really lives on kernel 1; the front end on kernel 0.
    assert!(cluster.nodes[1]
        .kernel
        .find_process("worker-store")
        .is_some());
    assert!(cluster.nodes[0]
        .kernel
        .find_process("worker-store")
        .is_none());
    assert!(cluster.nodes[0].kernel.find_process("ok-demux").is_some());

    // First request: authenticates, forks W[alice] on kernel 1, stores.
    let (status, body) = fed_request(
        &mut cluster,
        &mut client,
        "store",
        "alice",
        "pw-a",
        &[("data", "first-secret")],
    )
    .expect("response crosses the wire");
    assert_eq!(status, 200);
    assert!(body.is_empty(), "no previous data");

    // Second request: the cached session returns the stored state (§7.3).
    let (status, body) = fed_request(&mut cluster, &mut client, "store", "alice", "pw-a", &[])
        .expect("response crosses the wire");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"first-secret"));
    assert_eq!(body.len(), 1024, "§9.1's ~1K response");

    // The session state lives in an event process on the worker kernel.
    let worker = cluster.nodes[1]
        .kernel
        .find_process("worker-store")
        .unwrap();
    assert_eq!(cluster.nodes[1].kernel.live_eps(worker).len(), 1);

    // Request and response traffic genuinely crossed the wire.
    assert!(cluster.switch().forwarded >= 4);
    let wire = cluster.wire_stats();
    assert!(wire.frames_out > 0 && wire.bytes_out > 0);
}

#[test]
fn federated_authentication_still_gates() {
    let mut cluster = Cluster::new(302, 2, 1);
    let okws = deploy_okws(&mut cluster, store_config(&[("alice", "pw-a")]));
    let mut client = OkwsClient::new(&okws);

    let (status, _) = fed_request(&mut cluster, &mut client, "store", "alice", "wrong", &[])
        .expect("error response still arrives");
    assert_eq!(status, 403);
    let (status, _) = fed_request(&mut cluster, &mut client, "nosuch", "alice", "pw-a", &[])
        .expect("unknown service responds");
    assert_eq!(status, 404);
}

/// The verdict-relevant counters after each request, merged across the
/// whole deployment: one entry per request, cumulative.
fn verdict_entry(stats: &Stats) -> (u64, u64, u64, u64, u64, u64, u64) {
    (
        stats.sent,
        stats.delivered,
        stats.dropped_label_check,
        stats.dropped_port_decont,
        stats.dropped_no_port,
        stats.dropped_no_owner,
        stats.eps_created,
    )
}

/// Runs the golden workload against a cluster of `kernels` kernels and
/// returns the full observable trace: per request, the HTTP status, the
/// body, and the cumulative merged Figure 4 verdict counters.
#[allow(clippy::type_complexity)]
fn golden_trace(kernels: usize) -> Vec<(u16, Vec<u8>, (u64, u64, u64, u64, u64, u64, u64))> {
    let mut cluster = Cluster::new(303, kernels, 1);
    let okws = deploy_okws(
        &mut cluster,
        store_config(&[("alice", "pw-a"), ("bob", "pw-b")]),
    );
    let mut client = OkwsClient::new(&okws);
    let workload: &[(&str, &str, &str, &[(&str, &str)])] = &[
        ("store", "alice", "pw-a", &[("data", "alice-secret")]),
        ("store", "bob", "pw-b", &[("data", "bob-secret")]),
        ("store", "alice", "pw-a", &[]),
        ("store", "bob", "pw-b", &[]),
        ("store", "alice", "wrong", &[]),
        ("store", "mallory", "pw-a", &[]),
        ("nosuch", "alice", "pw-a", &[]),
        ("store", "alice", "pw-a", &[("logout", "1")]),
        ("store", "alice", "pw-a", &[]),
    ];
    let mut trace = Vec::new();
    for (service, user, pw, extra) in workload {
        let (status, body) = fed_request(&mut cluster, &mut client, service, user, pw, extra)
            .expect("every request gets a response");
        trace.push((status, body, verdict_entry(&cluster.stats())));
    }
    trace
}

/// The golden pin: federation changes *placement*, never *semantics*.
/// Every status, every body byte, and every cumulative verdict counter
/// of the two-kernel deployment matches the single-kernel run exactly —
/// remote sends are counted once, on the kernel that rules on them.
#[test]
fn two_kernel_verdict_trace_is_bit_identical_to_single_kernel() {
    let single = golden_trace(1);
    let double = golden_trace(2);
    assert_eq!(single.len(), double.len());
    for (i, (s, d)) in single.iter().zip(double.iter()).enumerate() {
        assert_eq!(s.0, d.0, "request {i}: status diverged");
        assert_eq!(s.1, d.1, "request {i}: body diverged");
        assert_eq!(s.2, d.2, "request {i}: verdict counters diverged");
    }
    // And the workload is non-trivial: successes, auth failures, and at
    // least one label-check drop are all represented.
    assert!(single.iter().any(|(s, ..)| *s == 200));
    assert!(single.iter().any(|(s, ..)| *s == 403));
    assert!(single.iter().any(|(s, ..)| *s == 404));
}

/// §7's adversary — compromised worker code — against federated routing.
/// A port's home is computed from its value, so a worker on kernel 1 can
/// name anything: a handle no kernel minted, kernel 0's compartment,
/// kernel 0's dissociated port. Each send ends as exactly one `NoSuchPort`
/// drop in the cluster and puts at most one frame on the wire, and the
/// bystander's session — status, body and the verdicts reached serving
/// each request — is bit-identical to a run without the attacker. Runs at
/// `ASBESTOS_KERNELS` kernels (at least 2) of `ASBESTOS_TEST_SHARDS` shards
/// (default 1).
#[test]
fn hostile_routing_costs_one_drop_and_leaves_a_bystander_untouched() {
    let count = |key| std::env::var(key).ok().and_then(|k| k.trim().parse().ok());
    let (kernels, shards) = (count("ASBESTOS_KERNELS"), count("ASBESTOS_TEST_SHARDS"));
    let bystander_trace = |attack: bool| {
        let mut cluster = Cluster::new(304, kernels.unwrap_or(2).max(2), shards.unwrap_or(1));
        let okws = deploy_okws(&mut cluster, store_config(&[("alice", "pw-a")]));
        let mut client = OkwsClient::new(&okws);
        if attack {
            let minter = service_with_start(
                |sys| {
                    let (dead, compartment) = (sys.new_port(Label::top()), sys.new_handle());
                    sys.dissociate_port(dead).unwrap();
                    sys.publish_env("dead", Value::Handle(dead));
                    sys.publish_env("compartment", Value::Handle(compartment));
                },
                |_, _| {},
            );
            let attacker = service_with_start(
                |sys| {
                    let trigger = sys.new_port(Label::top());
                    sys.set_port_label(trigger, Label::top()).unwrap();
                    sys.publish_env("attacker", Value::Handle(trigger));
                },
                |sys, msg| sys.send(msg.body.as_handle().unwrap(), "x".into()).unwrap(),
            );
            let (front, workers) = cluster.nodes.split_at_mut(1);
            front[0].kernel.spawn("minter", Category::Other, minter);
            workers[0]
                .kernel
                .spawn("attacker", Category::Okws, attacker);
            cluster.run();
        }
        let env = |c: &Cluster, key| c.nodes[1].kernel.global_env_handle(key).unwrap();
        let verdicts = |c: &Cluster| <[u64; 7]>::from(verdict_entry(&c.stats()));
        let mut trace = Vec::new();
        let (write, logout) = ([("data", "a")], [("logout", "1")]);
        let workload: [&[_]; 6] = [&write, &[], &write, &[], &logout, &[]];
        for (i, extra) in workload.into_iter().enumerate() {
            if attack {
                let target = match i % 3 {
                    0 => Handle::from_raw(0x0BAD_0000_0000_0001), // never minted
                    1 => env(&cluster, "compartment"),
                    _ => env(&cluster, "dead"),
                };
                let (before, frames) = (cluster.stats(), cluster.wire_stats().frames_out);
                let forwarded = cluster.switch().forwarded;
                let (trigger, body) = (env(&cluster, "attacker"), Value::Handle(target));
                cluster.nodes[1].kernel.inject(trigger, body);
                cluster.run();
                let after = cluster.stats();
                let no_port = after.dropped_no_port - before.dropped_no_port;
                assert_eq!(no_port, 1, "{target:?}");
                assert_eq!(after.dropped_total() - before.dropped_total(), 1);
                assert_eq!(after.delivered - before.delivered, 1, "only the trigger");
                let sent = cluster.wire_stats().frames_out - frames;
                assert!(sent <= 1, "{target:?}");
                assert!(cluster.switch().forwarded - forwarded <= 1, "{target:?}");
            }
            let before = verdicts(&cluster);
            let served = fed_request(&mut cluster, &mut client, "store", "alice", "pw-a", extra);
            let (status, body) = served.expect("the bystander is served");
            let after = verdicts(&cluster);
            trace.push((
                status,
                body,
                std::array::from_fn::<_, 7, _>(|v| after[v] - before[v]),
            ));
        }
        trace
    };
    let attacked = bystander_trace(true);
    assert_eq!(attacked, bystander_trace(false));
    assert!(attacked.iter().all(|(status, ..)| *status == 200));
}

/// Asserts that no `worker-*` process on any of `kernels` holds `⋆` on a
/// verification handle the launcher minted: a service's, ok-demux's, the
/// launcher's own or the admin port's. `kernels[0]` hosts the front end.
fn assert_no_worker_holds_a_verification_star(kernels: &[&Kernel], services: &[&str]) {
    let keys = services.iter().map(|s| format!("okws.svc.{s}.verify"));
    let trusted = [
        IDD_DEMUX_VERIFY_ENV,
        LAUNCHER_VERIFY_ENV,
        DB_ADMIN_VERIFY_ENV,
    ];
    let keys: Vec<String> = keys.chain(trusted.map(String::from)).collect();
    let mut workers = 0;
    for kernel in kernels {
        for service in services {
            let Some(pid) = kernel.find_process(&format!("worker-{service}")) else {
                continue;
            };
            workers += 1;
            for key in &keys {
                let handle = kernels[0].global_env_handle(key).expect("published");
                let level = kernel.process(pid).send_label.get(handle);
                assert_ne!(level, Level::Star, "worker-{service} holds {key} at ⋆");
            }
        }
    }
    assert_eq!(workers, services.len(), "every worker was placed");
}

/// §7.1 gives each process its own verification handle, and a worker
/// gets only its own, at activation: no worker base process holds `⋆` on
/// any verification handle, on a bare kernel at 1 and 4 shards and
/// through [`deploy_okws`] at 1 and `ASBESTOS_KERNELS` (default 2)
/// kernels of `ASBESTOS_TEST_SHARDS` (default 1) shards.
#[test]
fn no_worker_holds_a_verification_handle_at_star() {
    let services = ["store", "bench"];
    let config = || {
        let mut config = store_config(&[("alice", "pw-a")]);
        config
            .services
            .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
        config
    };
    for shards in [1, 4] {
        let (kernel, _okws) = Okws::deploy(305, config().sharded(shards));
        assert_no_worker_holds_a_verification_star(&[&kernel], &services);
    }
    let count = |key| std::env::var(key).ok().and_then(|k| k.trim().parse().ok());
    let shards = count("ASBESTOS_TEST_SHARDS").unwrap_or(1);
    for kernels in [1, count("ASBESTOS_KERNELS").unwrap_or(2)] {
        let mut cluster = Cluster::new(305, kernels, shards);
        deploy_okws(&mut cluster, config().sharded(shards));
        let members: Vec<&Kernel> = cluster.nodes.iter().map(|n| &n.kernel).collect();
        assert_no_worker_holds_a_verification_star(&members, &services);
    }
}

/// A squatting worker on another kernel publishes its own port as the
/// admin port; the write reaches kernel 0 as an `EnvSet`, and its `Bind`
/// and `Exec` reach the real admin port as `Forward`s, which the port's
/// label drops. Alice's first login is still answered, and the squatter
/// receives nothing. Runs through [`deploy_okws`] at 2 and
/// `ASBESTOS_KERNELS` kernels.
#[test]
fn a_worker_cannot_become_a_binding_party() {
    let kernels = std::env::var("ASBESTOS_KERNELS").ok();
    let kernels = kernels.and_then(|k| k.trim().parse().ok());
    for kernels in [2].into_iter().chain(kernels) {
        let loot = Rc::new(Loot::default());
        let mut config = store_config(&[("alice", "pw-a")]);
        config.services.push(BindingSquatter::spec(&loot));
        let mut cluster = Cluster::new(306, kernels, 1);
        let okws = deploy_okws(&mut cluster, config);
        assert!(cluster.nodes[0]
            .kernel
            .find_process("worker-squat")
            .is_none());
        let mut client = OkwsClient::new(&okws);
        let data = [("data", "a")];
        let served = fed_request(&mut cluster, &mut client, "store", "alice", "pw-a", &data);
        let (status, _) = served.unwrap_or_else(|| panic!("{kernels} kernels: no response"));
        assert_eq!(status, 200, "{kernels} kernels");
        assert_eq!(*loot.received.borrow(), [""; 0], "{kernels} kernels");
    }
}

/// Two rewiring workers (see [`Rewirer`]) on kernel 1, listed before and
/// after `store`, overwrite every key a trusted process on kernel 0
/// reads; their writes reach kernel 0 as `EnvSet`s. Alice's two requests
/// are answered, the second with her first data, and each attacker
/// receives nothing but its own `Activate`. Runs through [`deploy_okws`]
/// at 2 and `ASBESTOS_KERNELS` kernels of `ASBESTOS_TEST_SHARDS` (default
/// 1) shards.
#[test]
fn no_worker_can_rewire_a_trusted_process() {
    let count = |key| std::env::var(key).ok().and_then(|k| k.trim().parse().ok());
    let shards = count("ASBESTOS_TEST_SHARDS").unwrap_or(1);
    for kernels in [2].into_iter().chain(count("ASBESTOS_KERNELS")) {
        let at = format!("{kernels} kernels");
        let loot = Rc::new(Loot::default());
        let mut config = OkwsConfig::new(80);
        config.services.push(Rewirer::spec("evil-a", &loot));
        config
            .services
            .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
        config.services.push(Rewirer::spec("evil-z", &loot));
        config.users.push(("alice".into(), "pw-a".into()));
        let mut cluster = Cluster::new(307, kernels, shards);
        let okws = deploy_okws(&mut cluster, config.sharded(shards));
        for attacker in ["worker-evil-a", "worker-evil-z"] {
            let kernel = &cluster.nodes[1].kernel;
            assert!(kernel.find_process(attacker).is_some(), "{at}: {attacker}");
        }
        let mut client = OkwsClient::new(&okws);
        let data = [("data", "alice-1")];
        let served = fed_request(&mut cluster, &mut client, "store", "alice", "pw-a", &data);
        let (status, _) = served.unwrap_or_else(|| panic!("{at}: no response"));
        assert_eq!(status, 200, "{at}");
        let served = fed_request(&mut cluster, &mut client, "store", "alice", "pw-a", &[]);
        let (status, body) = served.unwrap_or_else(|| panic!("{at}: no second response"));
        assert_eq!(status, 200, "{at}");
        assert!(body.starts_with(b"alice-1"), "{at}");
        assert_eq!(*loot.received.borrow(), [""; 0], "{at}");
    }
}
