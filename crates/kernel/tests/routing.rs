//! Where a message goes at a federated kernel's boundary, checked on
//! cluster slot 0 of N with no gateway. A send to a port another kernel
//! minted leaves through egress whole, parked with that kernel as its
//! home, and queues nothing here; a send to a handle this kernel's lanes
//! minted (a dissociated port, a compartment another shard minted) drops
//! `NoSuchPort` here; an unfederated kernel sends nothing out; and a
//! message injected off the wire never leaves again.
//! Runs at 1 and 4 shards plus `ASBESTOS_TEST_SHARDS`, with N from
//! `ASBESTOS_KERNELS` (default 2).

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{
    Category, CostModel, Handle, Kernel, Label, Level, RemoteSend, SendArgs, Value,
};

const SEED: u64 = 0x7E40;
/// Never minted here; the sender holds `⋆` for both.
const GRANT: Handle = Handle::from_raw(0x0EED_0000_0000_0002);
const TAINT: Handle = Handle::from_raw(0x0EED_0000_0000_0003);

fn env_count(key: &str) -> Option<usize> {
    std::env::var(key).ok().and_then(|v| v.trim().parse().ok())
}

/// `(shards, kernels)` to run at.
fn sizes() -> impl Iterator<Item = (usize, usize)> {
    let kernels = env_count("ASBESTOS_KERNELS").unwrap_or(2).max(2);
    let shards = [1, 4].into_iter().chain(env_count("ASBESTOS_TEST_SHARDS"));
    shards.map(move |s| (s, kernels))
}

/// A send with every optional label set, so each can be seen intact.
fn args() -> SendArgs {
    SendArgs::new()
        .contaminate(Label::from_pairs(Level::Star, &[(TAINT, Level::L3)]))
        .grant(Label::from_pairs(Level::L3, &[(GRANT, Level::Star)]))
        .raise_recv(Label::from_pairs(Level::Star, &[(GRANT, Level::L3)]))
        .verify(Label::from_pairs(Level::L3, &[(GRANT, Level::L0)]))
}

fn sender_label() -> Label {
    Label::from_pairs(Level::L1, &[(GRANT, Level::Star), (TAINT, Level::Star)])
}

/// Slot `slot` of `slots`. Shard 0 publishes a live port, a dissociated
/// port and a compartment; the last shard runs a sender that sends
/// "hello" under [`args`] to each handle its trigger port is sent.
fn kernel(shards: usize, slot: usize, slots: usize) -> Kernel {
    let mut k = Kernel::with_cluster_slot(SEED, CostModel::default(), shards, 0, slot, slots);
    let minter = service_with_start(
        |sys| {
            let live = sys.new_port(Label::top());
            let dead = sys.new_port(Label::top());
            sys.dissociate_port(dead).unwrap();
            let compartment = sys.new_handle();
            for (key, h) in [("live", live), ("dead", dead), ("compartment", compartment)] {
                sys.publish_env(key, Value::Handle(h));
            }
        },
        |_, _| {},
    );
    k.spawn_on(0, "minter", Category::Other, minter);
    let sent = args();
    let sender = service_with_start(
        |sys| {
            let trigger = sys.new_port(Label::top());
            sys.set_port_label(trigger, Label::top()).unwrap();
            sys.publish_env("trigger", Value::Handle(trigger));
        },
        move |sys, msg| {
            let target = msg.body.as_handle().unwrap();
            sys.send_args(target, "hello".into(), &sent).unwrap();
        },
    );
    let pid = k.spawn_on(shards - 1, "sender", Category::Other, sender);
    k.set_process_labels(pid, Some(sender_label()), None);
    k
}

/// Has the sender send to `target`: what was queued right after the
/// send, what left, and the `NoSuchPort` drops once the kernel idled.
fn send_to(k: &mut Kernel, target: Handle) -> (usize, Vec<(usize, RemoteSend)>, u64) {
    let before = k.stats().dropped_no_port;
    k.inject(
        k.global_env_handle("trigger").unwrap(),
        Value::Handle(target),
    );
    assert!(k.step(), "the trigger is delivered");
    let queued = k.queue_len();
    k.run();
    let no_port = k.stats().dropped_no_port - before;
    (queued, k.take_remote_egress(), no_port)
}

#[test]
fn a_send_leaves_only_for_a_handle_another_kernel_minted() {
    for (shards, n) in sizes() {
        let remote = kernel(shards, 1, n).global_env_handle("live").unwrap();
        let mut home = kernel(shards, 0, n);
        let (queued, left, no_port) = send_to(&mut home, remote);
        assert_eq!((queued, left.len(), no_port), (0, 1, 0), "{shards} shards");
        let ((to, out), args) = (&left[0], args());
        assert_eq!(*to, 1, "parked with the kernel that minted the port");
        assert_eq!((out.port, &out.body), (remote, &"hello".into()));
        assert_eq!(
            *out.es,
            *sender_label().join(&args.contaminate),
            "E_S = P_S ⊔ C_S"
        );
        assert_eq!(
            (&out.ds, &out.dr, &out.v),
            (&args.decont_send, &args.decont_recv, &args.verify)
        );

        // A handle minted here stays here; unfederated, nothing leaves.
        for key in ["dead", "compartment"] {
            let local = home.global_env_handle(key).unwrap();
            let (_, left, no_port) = send_to(&mut home, local);
            assert_eq!((left.len(), no_port), (0, 1), "{shards} shards, {key}");
        }
        let mut plain = kernel(shards, 0, 1);
        for target in [plain.global_env_handle("dead").unwrap(), remote] {
            let (_, left, no_port) = send_to(&mut plain, target);
            assert_eq!(
                (left.len(), no_port),
                (0, 1),
                "{shards} shards, unfederated"
            );
        }
    }
}

#[test]
fn an_injected_message_never_leaves() {
    for (shards, n) in sizes() {
        let remote = kernel(shards, 1, n).global_env_handle("live").unwrap();
        let mut home = kernel(shards, 0, n);
        for port in [remote, Handle::from_raw(0x0EED_0000_0000_0001)] {
            let before = home.stats().dropped_no_port;
            home.inject_remote(RemoteSend {
                port,
                body: Value::Unit,
                es: Label::bottom().into(),
                ds: Label::top(),
                dr: Label::bottom(),
                v: Label::top(),
            });
            home.run();
            assert!(home.take_remote_egress().is_empty(), "{shards} shards");
            assert_eq!(home.stats().dropped_no_port, before + 1, "{shards} shards");
        }
    }
}
