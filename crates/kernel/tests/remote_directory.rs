//! The remote directory at the kernel boundary: the surface a federation
//! gateway drives (`register_remote_port`, `take_remote_egress`,
//! `unregister_remote_port`), checked on one kernel with no gateway.
//!
//! A send to a port registered as remote leaves through the egress queue
//! with its body and its `E_S`, `D_S`, `D_R` and `V` intact, and queues
//! nothing locally. Once the port is unregistered the same send is routed
//! like any unknown handle and drops `NoSuchPort`; nothing leaves. Runs at
//! one and four shards, plus the CI matrix's `ASBESTOS_TEST_SHARDS`.

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs, Value};

#[test]
fn remote_sends_leave_whole_and_stop_at_unregister() {
    let remote = Handle::from_raw(0x0EED_0000_0000_0001);
    let grant = Handle::from_raw(0x0EED_0000_0000_0002);
    let taint = Handle::from_raw(0x0EED_0000_0000_0003);
    let args = SendArgs::new()
        .contaminate(Label::from_pairs(Level::Star, &[(taint, Level::L3)]))
        .grant(Label::from_pairs(Level::L3, &[(grant, Level::Star)]))
        .raise_recv(Label::from_pairs(Level::Star, &[(grant, Level::L3)]))
        .verify(Label::from_pairs(Level::L3, &[(grant, Level::L0)]));
    let matrix = std::env::var("ASBESTOS_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok());
    for shards in [1, 4].into_iter().chain(matrix) {
        let mut kernel = Kernel::new_sharded(0x7E40, shards);
        let sent = args.clone();
        let sender = kernel.spawn_on(
            shards - 1,
            "sender",
            Category::Other,
            service_with_start(
                |sys| {
                    let trigger = sys.new_port(Label::top());
                    sys.set_port_label(trigger, Label::top()).unwrap();
                    sys.publish_env("trigger", Value::Handle(trigger));
                },
                move |sys, _msg| {
                    sys.send_args(remote, Value::Str("hello".into()), &sent)
                        .unwrap();
                },
            ),
        );
        // Out of band: ⋆ for both handles, so every optional label is legal.
        let ps = Label::from_pairs(Level::L1, &[(grant, Level::Star), (taint, Level::Star)]);
        kernel.set_process_labels(sender, Some(ps.clone()), None);
        let trigger = kernel.global_env_handle("trigger").unwrap();
        assert!(!kernel.is_local_port(remote));
        kernel.register_remote_port(remote, 1);

        // One step delivers the trigger; its send resolves to the egress.
        kernel.inject(trigger, Value::Unit);
        assert!(kernel.step());
        assert_eq!(kernel.queue_len(), 0, "{shards}-shard: nothing queued");
        let egress = kernel.take_remote_egress();
        assert_eq!(egress.len(), 1, "{shards}-shard");
        let out = &egress[0];
        assert_eq!(out.port, remote);
        assert_eq!(out.body, Value::Str("hello".into()));
        assert_eq!(*out.es, *ps.join(&args.contaminate), "E_S = P_S ⊔ C_S");
        assert_eq!(out.ds, args.decont_send);
        assert_eq!(out.dr, args.decont_recv);
        assert_eq!(out.v, args.verify);
        assert!(kernel.take_remote_egress().is_empty(), "take drains");

        // Unregistered, the same send stays in this kernel and drops.
        kernel.unregister_remote_port(remote);
        let before = kernel.stats();
        kernel.inject(trigger, Value::Unit);
        assert!(kernel.step());
        assert_eq!(kernel.queue_len(), 1, "{shards}-shard: routed locally");
        kernel.run();
        let after = kernel.stats();
        assert_eq!(after.dropped_no_port, before.dropped_no_port + 1);
        assert_eq!(after.delivered, before.delivered + 1, "only the trigger");
        assert!(kernel.take_remote_egress().is_empty(), "{shards}-shard");
    }
}
