//! Edge-case tests for the syscall surface: error paths, privilege
//! boundaries, and environment semantics not covered by the scenario
//! suites.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::{ep_service_fn, service_with_start};
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SysError, Value};

/// Collects results of syscalls executed inside a one-shot process.
fn probe(
    seed: u64,
    body: impl FnOnce(&mut asbestos_kernel::Sys<'_>) -> Vec<(&'static str, Result<(), SysError>)>
        + 'static,
) -> Vec<(&'static str, Result<(), SysError>)> {
    let mut kernel = Kernel::new(seed);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = results.clone();
    let mut body = Some(body);
    kernel.spawn(
        "probe",
        Category::Other,
        service_with_start(
            move |sys| {
                let body = body.take().expect("start runs once");
                *r2.lock().unwrap() = body(sys);
            },
            |_, _| {},
        ),
    );
    kernel.run();
    Arc::try_unwrap(results)
        .expect("kernel dropped")
        .into_inner()
        .unwrap()
}

#[test]
fn raise_recv_requires_star() {
    let results = probe(401, |sys| {
        let foreign = Handle::from_raw(0x999);
        let mine = sys.new_handle();
        vec![
            ("raise-foreign", sys.raise_recv(foreign, Level::L3)),
            ("raise-own", sys.raise_recv(mine, Level::L3)),
            // Lowering (a no-op "raise" to a smaller level) never needs ⋆.
            ("raise-noop", sys.raise_recv(foreign, Level::L1)),
        ]
    });
    assert_eq!(
        results,
        vec![
            ("raise-foreign", Err(SysError::PrivilegeViolation)),
            ("raise-own", Ok(())),
            ("raise-noop", Ok(())),
        ]
    );
}

#[test]
fn port_operations_require_ownership() {
    let mut kernel = Kernel::new(402);
    // First process creates a port...
    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.publish_env("p", Value::Handle(p));
                // The owner can read and set its label.
                assert!(sys.port_label(p).is_ok());
                assert!(sys.set_port_label(p, Label::top()).is_ok());
            },
            |_, _| {},
        ),
    );
    // ...the second may not touch it.
    let errs = Arc::new(Mutex::new(Vec::new()));
    let e2 = errs.clone();
    kernel.spawn(
        "stranger",
        Category::Other,
        service_with_start(
            move |sys| {
                let p = sys.env("p").unwrap().as_handle().unwrap();
                e2.lock().unwrap().push(sys.port_label(p).err());
                e2.lock()
                    .unwrap()
                    .push(sys.set_port_label(p, Label::top()).err());
                e2.lock().unwrap().push(sys.dissociate_port(p).err());
                // Nonexistent handles are equally opaque.
                let ghost = Handle::from_raw(0x1234);
                e2.lock().unwrap().push(sys.port_label(ghost).err());
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(
        *errs.lock().unwrap(),
        vec![
            Some(SysError::NotPortOwner),
            Some(SysError::NotPortOwner),
            Some(SysError::NotPortOwner),
            Some(SysError::NotPortOwner),
        ]
    );
}

#[test]
fn memory_argument_validation() {
    let results = probe(403, |sys| {
        vec![
            ("write-empty", sys.mem_write(0, &[]).map(|_| ())),
            ("read-empty", sys.mem_read(0, 0).map(|_| ())),
            (
                "write-overflow",
                sys.mem_write(u64::MAX - 1, &[1, 2, 3]).map(|_| ()),
            ),
            ("write-ok", sys.mem_write(0x5000, &[1]).map(|_| ())),
        ]
    });
    assert_eq!(
        results,
        vec![
            ("write-empty", Err(SysError::InvalidArgument)),
            ("read-empty", Err(SysError::InvalidArgument)),
            ("write-overflow", Err(SysError::InvalidArgument)),
            ("write-ok", Ok(())),
        ]
    );
}

#[test]
fn spawning_inside_event_processes_is_forbidden() {
    let mut kernel = Kernel::new(404);
    let seen = Arc::new(Mutex::new(None));
    let s2 = seen.clone();
    kernel.spawn_ep_service(
        "w",
        Category::Other,
        ep_service_fn(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("w.port", Value::Handle(p));
            },
            move |sys, _msg| {
                let err = sys
                    .spawn(
                        "child",
                        Category::Other,
                        asbestos_kernel::util::service_fn(|_, _| {}),
                    )
                    .err();
                *s2.lock().unwrap() = err;
            },
        ),
    );
    let port = kernel.global_env("w.port").unwrap().as_handle().unwrap();
    kernel.inject(port, Value::Unit);
    kernel.run();
    assert_eq!(*seen.lock().unwrap(), Some(SysError::EventProcessForbidden));
}

#[test]
fn env_lookup_prefers_process_over_global() {
    let mut kernel = Kernel::new(405);
    kernel.set_global_env("key", Value::Str("global".into()));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen.clone();
    kernel.spawn(
        "p",
        Category::Other,
        service_with_start(
            move |sys| {
                s2.lock().unwrap().push(sys.env("key"));
                sys.set_env("key", Value::Str("local".into()));
                s2.lock().unwrap().push(sys.env("key"));
                s2.lock().unwrap().push(sys.env("missing"));
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            Some(Value::Str("global".into())),
            Some(Value::Str("local".into())),
            None,
        ]
    );
}

#[test]
fn children_inherit_process_env_snapshot() {
    let mut kernel = Kernel::new(406);
    kernel.spawn(
        "parent",
        Category::Other,
        service_with_start(
            |sys| {
                sys.set_env("inherited", Value::U64(7));
                sys.spawn(
                    "child",
                    Category::Other,
                    service_with_start(
                        |csys| {
                            assert_eq!(csys.env("inherited"), Some(Value::U64(7)));
                            // The child's changes do not flow back.
                            csys.set_env("inherited", Value::U64(8));
                        },
                        |_, _| {},
                    ),
                )
                .unwrap();
                assert_eq!(sys.env("inherited"), Some(Value::U64(7)));
            },
            |_, _| {},
        ),
    );
    kernel.run();
}

#[test]
fn self_contamination_discards_stars() {
    // §5.3: "Only a process itself can remove ⋆ levels from its send
    // label" — and it can, via plain self-contamination (max(⋆, ℓ) = ℓ).
    let results = probe(407, |sys| {
        let h = sys.new_handle();
        assert!(sys.has_star(h));
        sys.self_contaminate(&Label::from_pairs(Level::Star, &[(h, Level::L1)]));
        assert!(!sys.has_star(h));
        assert_eq!(sys.send_label().get(h), Level::L1);
        // Once dropped, privilege does not come back.
        sys.self_contaminate(&Label::bottom());
        assert_eq!(sys.send_label().get(h), Level::L1);
        vec![("done", Ok(()))]
    });
    assert_eq!(results, vec![("done", Ok(()))]);
}

#[test]
fn lower_recv_label_is_free_and_sticky() {
    let mut kernel = Kernel::new(408);
    let pid = kernel.spawn(
        "p",
        Category::Other,
        service_with_start(
            |sys| {
                let h = Handle::from_raw(0x77);
                sys.lower_recv_label(&Label::from_pairs(Level::L3, &[(h, Level::L0)]));
                assert_eq!(sys.recv_label().get(h), Level::L0);
                // Raising it back requires ⋆ we do not have.
                assert_eq!(
                    sys.raise_recv(h, Level::L2),
                    Err(SysError::PrivilegeViolation)
                );
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(
        kernel.process(pid).recv_label.get(Handle::from_raw(0x77)),
        Level::L0
    );
}

#[test]
fn queued_from_tracks_pending_sends() {
    let mut kernel = Kernel::new(409);
    let (rec, _log) = asbestos_kernel::util::Recorder::new("r");
    kernel.spawn("rec", Category::Other, Box::new(rec));
    let port = kernel.global_env("r").unwrap().as_handle().unwrap();
    let sender = kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(port, Value::Unit).unwrap();
                sys.send(port, Value::Unit).unwrap();
            },
            |_, _| {},
        ),
    );
    assert_eq!(kernel.queued_from(sender), 2);
    kernel.run();
    assert_eq!(kernel.queued_from(sender), 0);
}

#[test]
fn boot_epochs_mint_disjoint_handles() {
    // §5.1: handle values are unique since boot. With a durable store a
    // deployment actually reboots, so each boot epoch must key the handle
    // cipher differently — same seed, different epoch, different handles.
    let handles = |epoch: u64| -> Vec<u64> {
        let mut kernel = asbestos_kernel::Kernel::with_boot_epoch(
            42,
            asbestos_kernel::CostModel::default(),
            1,
            epoch,
        );
        assert_eq!(kernel.boot_epoch(), epoch);
        let minted = Arc::new(Mutex::new(Vec::new()));
        let m2 = minted.clone();
        kernel.spawn(
            "minter",
            Category::Other,
            service_with_start(
                move |sys| {
                    for _ in 0..32 {
                        m2.lock().unwrap().push(sys.new_handle().raw());
                    }
                },
                |_, _| {},
            ),
        );
        let out = minted.lock().unwrap().clone();
        out
    };
    let epoch1 = handles(1);
    let epoch2 = handles(2);
    let zero_a = handles(0);
    let zero_b = handles(0);
    // Epoch 0 is deterministic (the pre-durability configuration)...
    assert_eq!(zero_a, zero_b);
    // ...and distinct epochs share no handle values at all.
    assert!(epoch1.iter().all(|h| !epoch2.contains(h)));
    assert!(epoch1.iter().all(|h| !zero_a.contains(h)));
}

#[test]
fn teardown_runs_service_hooks_once() {
    struct Flushy {
        flushed: Arc<Mutex<u32>>,
    }
    impl asbestos_kernel::Service for Flushy {
        fn on_message(
            &mut self,
            _sys: &mut asbestos_kernel::Sys<'_>,
            _msg: &asbestos_kernel::Message,
        ) {
        }
        fn on_teardown(&mut self, _sys: &mut asbestos_kernel::Sys<'_>) {
            *self.flushed.lock().unwrap() += 1;
        }
    }
    let flushed = Arc::new(Mutex::new(0));
    let mut kernel = Kernel::new(411);
    for i in 0..3 {
        kernel.spawn(
            &format!("svc-{i}"),
            Category::Other,
            Box::new(Flushy {
                flushed: flushed.clone(),
            }),
        );
    }
    // Event-process services have no durable state; no hook, no panic.
    kernel.spawn_ep_service("epsvc", Category::Other, ep_service_fn(|_| {}, |_, _| {}));
    kernel.run();
    assert_eq!(*flushed.lock().unwrap(), 0, "teardown is explicit");
    kernel.teardown();
    assert_eq!(*flushed.lock().unwrap(), 3, "every plain service flushed");
}
