//! Integration tests for the Figure 4 IPC semantics: every rule in the
//! paper's `send`/`new_port`/`set_port_label` specification, exercised
//! through real processes on a running kernel.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::{ep_service_fn, service_with_start, Recorder};
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs, Sys, SysError, Value};

fn taint(h: Handle) -> Label {
    Label::from_pairs(Level::Star, &[(h, Level::L3)])
}

fn grant(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

fn raise(h: Handle) -> Label {
    Label::from_pairs(Level::Star, &[(h, Level::L3)])
}

// ---------------------------------------------------------------------
// Basic transport.
// ---------------------------------------------------------------------

#[test]
fn default_processes_can_communicate() {
    // Default send label {1} ⊑ default receive label {2}: ordinary
    // processes exchange messages freely once a port is open.
    let mut kernel = Kernel::new(1);
    let (rec, log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(rport, Value::Str("hello".into())).unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(log.lock().unwrap().len(), 1);
    assert_eq!(log.lock().unwrap()[0].body.as_str(), Some("hello"));
}

#[test]
fn fresh_ports_are_closed_until_granted() {
    // Figure 4: new_port sets p_R(p) ← 0 and P_S(p) ← ⋆; since every other
    // process has P_S(p) ≥ 1, nothing gets through until the creator acts.
    let mut kernel = Kernel::new(2);
    let received = Arc::new(Mutex::new(0u32));
    let r2 = received.clone();
    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.publish_env("closed.port", Value::Handle(p));
            },
            move |_, _| *r2.lock().unwrap() += 1,
        ),
    );
    let p = kernel
        .global_env("closed.port")
        .unwrap()
        .as_handle()
        .unwrap();

    kernel.spawn(
        "stranger",
        Category::Other,
        service_with_start(
            move |sys| {
                // send reports success; the drop is silent (§4).
                sys.send(p, Value::Unit).unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(*received.lock().unwrap(), 0);
    assert_eq!(kernel.stats().dropped_label_check, 1);
    assert_eq!(kernel.stats().delivered, 0);
}

#[test]
fn capability_grant_and_redistribution() {
    // §5.5: the creator grants send rights with D_S = {p ⋆, 3}; the grantee
    // can redistribute the right further — exactly like a capability.
    let mut kernel = Kernel::new(3);
    let received = Arc::new(Mutex::new(Vec::<String>::new()));

    // Owner: creates the protected port; counts what arrives.
    let r2 = received.clone();
    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.publish_env("cap.port", Value::Handle(p));
                // A command port the test drives (open to all).
                let cmd = sys.new_port(Label::top());
                sys.set_port_label(cmd, Label::top()).unwrap();
                sys.publish_env("owner.cmd", Value::Handle(cmd));
            },
            move |sys, msg| match msg.body.as_str() {
                Some("grant-to-alice") => {
                    let p = sys.env("cap.port").unwrap().as_handle().unwrap();
                    let alice = sys.env("alice.cmd").unwrap().as_handle().unwrap();
                    sys.send_args(
                        alice,
                        Value::Str("you-may-send".into()),
                        &SendArgs::new().grant(grant(p)),
                    )
                    .unwrap();
                }
                _ => r2.lock().unwrap().push(format!("{}", msg.body)),
            },
        ),
    );
    let cap_port = kernel.global_env("cap.port").unwrap().as_handle().unwrap();

    // Alice: when told, sends to the protected port and regrants to Bob.
    kernel.spawn(
        "alice",
        Category::Other,
        service_with_start(
            |sys| {
                let cmd = sys.new_port(Label::top());
                sys.set_port_label(cmd, Label::top()).unwrap();
                sys.publish_env("alice.cmd", Value::Handle(cmd));
            },
            move |sys, msg| {
                if msg.body.as_str() == Some("you-may-send") {
                    assert!(sys.has_star(cap_port), "grant should confer ⋆");
                    sys.send(cap_port, Value::Str("from-alice".into())).unwrap();
                    // Redistribute the capability to Bob.
                    let bob = sys.env("bob.cmd").unwrap().as_handle().unwrap();
                    sys.send_args(
                        bob,
                        Value::Str("you-may-send".into()),
                        &SendArgs::new().grant(grant(cap_port)),
                    )
                    .unwrap();
                }
            },
        ),
    );

    // Bob: sends upon receiving the regranted capability.
    kernel.spawn(
        "bob",
        Category::Other,
        service_with_start(
            |sys| {
                let cmd = sys.new_port(Label::top());
                sys.set_port_label(cmd, Label::top()).unwrap();
                sys.publish_env("bob.cmd", Value::Handle(cmd));
            },
            move |sys, msg| {
                if msg.body.as_str() == Some("you-may-send") {
                    sys.send(cap_port, Value::Str("from-bob".into())).unwrap();
                }
            },
        ),
    );

    let owner_cmd = kernel.global_env("owner.cmd").unwrap().as_handle().unwrap();
    kernel.inject(owner_cmd, Value::Str("grant-to-alice".into()));
    kernel.run();
    assert_eq!(
        *received.lock().unwrap(),
        vec!["\"from-alice\"", "\"from-bob\""]
    );
    assert_eq!(kernel.stats().dropped_label_check, 0);
}

#[test]
fn granting_without_star_is_rejected_at_send() {
    // Figure 4 requirement (2): D_S(h) < 3 requires P_S(h) = ⋆. This check
    // depends only on the sender's own labels, so it errors loudly.
    let mut kernel = Kernel::new(4);
    let (rec, _log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    let result = Arc::new(Mutex::new(None));
    let r2 = result.clone();
    kernel.spawn(
        "forger",
        Category::Other,
        service_with_start(
            move |sys| {
                let someone_elses = Handle::from_raw(0x123);
                let outcome = sys.send_args(
                    rport,
                    Value::Unit,
                    &SendArgs::new().grant(grant(someone_elses)),
                );
                *r2.lock().unwrap() = Some(outcome);
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(
        *result.lock().unwrap(),
        Some(Err(SysError::PrivilegeViolation))
    );
}

// ---------------------------------------------------------------------
// Contamination and information flow (§5.2).
// ---------------------------------------------------------------------

#[test]
fn contamination_propagates_and_blocks() {
    // A process that reads tainted data (via C_S) gets its send label
    // raised (Equation 4) and then cannot reach default receivers.
    let mut kernel = Kernel::new(5);
    let leaked = Arc::new(Mutex::new(0u32));

    // The would-be leak target: an ordinary open port.
    let l2 = leaked.clone();
    kernel.spawn(
        "public-sink",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("sink.port", Value::Handle(p));
            },
            move |_, _| *l2.lock().unwrap() += 1,
        ),
    );

    // The middleman: receives u's data, then tries to forward it.
    kernel.spawn(
        "middleman",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("mid.port", Value::Handle(p));
            },
            move |sys, msg| {
                // Forward whatever arrives to the public sink.
                let sink = sys.env("sink.port").unwrap().as_handle().unwrap();
                sys.send(sink, msg.body.clone()).unwrap();
            },
        ),
    );

    // The file server stand-in: holds u's taint handle, sends tainted data.
    kernel.spawn(
        "fileserver",
        Category::Other,
        service_with_start(
            |sys| {
                let ut = sys.new_handle();
                sys.publish_env("u.taint", Value::Handle(ut));
                let mid = sys.env("mid.port").unwrap().as_handle().unwrap();
                // Raise the middleman's receive label (we hold uT ⋆), then
                // send u's secret contaminated with uT 3.
                sys.send_args(
                    mid,
                    Value::Str("u-secret".into()),
                    &SendArgs::new().contaminate(taint(ut)).raise_recv(raise(ut)),
                )
                .unwrap();
            },
            |_, _| {},
        ),
    );

    kernel.run();
    // The secret reached the middleman but its forward was dropped: the
    // middleman's send label now carries uT 3 and the sink's receive label
    // does not accept it.
    assert_eq!(*leaked.lock().unwrap(), 0);
    assert_eq!(kernel.stats().dropped_label_check, 1);
}

#[test]
fn star_holders_resist_contamination() {
    // §5.3: if P_S(h) = ⋆, receiving h-tainted data leaves P_S(h) = ⋆ —
    // the declassifier pattern.
    let mut kernel = Kernel::new(6);
    let forwarded = Arc::new(Mutex::new(0u32));

    let f2 = forwarded.clone();
    kernel.spawn(
        "public-sink",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("sink.port", Value::Handle(p));
            },
            move |_, _| *f2.lock().unwrap() += 1,
        ),
    );

    // The compartment owner & declassifier.
    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            |sys| {
                let ut = sys.new_handle();
                sys.publish_env("u.taint", Value::Handle(ut));
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("owner.port", Value::Handle(p));
                // Allow tainted messages in.
                sys.raise_recv(ut, Level::L3).unwrap();
            },
            move |sys, msg| {
                // Tainted data arrived; because we hold uT ⋆ our send label
                // is unchanged and we can declassify by forwarding.
                let ut = sys.env("u.taint").unwrap().as_handle().unwrap();
                assert!(sys.has_star(ut), "⋆ must survive contamination");
                let sink = sys.env("sink.port").unwrap().as_handle().unwrap();
                sys.send(sink, msg.body.clone()).unwrap();
            },
        ),
    );
    let ut = kernel.global_env("u.taint").unwrap().as_handle().unwrap();
    let owner_port = kernel
        .global_env("owner.port")
        .unwrap()
        .as_handle()
        .unwrap();

    // A tainted process sends to the owner.
    kernel.spawn(
        "tainted",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.self_contaminate(&taint(ut));
                sys.send(owner_port, Value::Str("secret".into())).unwrap();
            },
            |_, _| {},
        ),
    );

    kernel.run();
    assert_eq!(*forwarded.lock().unwrap(), 1, "declassified data must flow");
}

#[test]
fn decontaminate_send_clears_taint() {
    // §5.3 decontamination: a ⋆-holder can lower another process's send
    // label with D_S, restoring its ability to talk to the system.
    let mut kernel = Kernel::new(7);
    let reached = Arc::new(Mutex::new(0u32));

    let r2 = reached.clone();
    kernel.spawn(
        "public-sink",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("sink.port", Value::Handle(p));
            },
            move |_, _| *r2.lock().unwrap() += 1,
        ),
    );

    kernel.spawn(
        "victim",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("victim.port", Value::Handle(p));
            },
            move |sys, msg| {
                if msg.body.as_str() == Some("try-send") {
                    let sink = sys.env("sink.port").unwrap().as_handle().unwrap();
                    sys.send(sink, Value::Str("am-i-clean".into())).unwrap();
                }
            },
        ),
    );
    let victim_port = kernel
        .global_env("victim.port")
        .unwrap()
        .as_handle()
        .unwrap();

    kernel.spawn(
        "owner",
        Category::Other,
        service_with_start(
            move |sys| {
                let ut = sys.new_handle();
                // Taint the victim: contaminate + raise its receive so the
                // taint can even be delivered.
                sys.send_args(
                    victim_port,
                    Value::Str("tainting-you".into()),
                    &SendArgs::new().contaminate(taint(ut)).raise_recv(raise(ut)),
                )
                .unwrap();
                // Tell it to try sending (it will fail: tainted).
                sys.send(victim_port, Value::Str("try-send".into()))
                    .unwrap();
                // Decontaminate it with D_S = {uT ⋆...}? No — D_S lowers the
                // level back to the default: {uT 1} entries in D_S need ⋆ too.
                let ds = Label::from_pairs(Level::L3, &[(ut, Level::L1)]);
                sys.send_args(
                    victim_port,
                    Value::Str("decontaminated".into()),
                    &SendArgs::new().grant(ds),
                )
                .unwrap();
                // Now it can send again.
                sys.send(victim_port, Value::Str("try-send".into()))
                    .unwrap();
            },
            |_, _| {},
        ),
    );

    kernel.run();
    assert_eq!(
        *reached.lock().unwrap(),
        1,
        "only the post-decontamination send lands"
    );
    assert_eq!(kernel.stats().dropped_label_check, 1);
}

#[test]
fn delivery_checks_happen_at_receive_time() {
    // §4: "the kernel cannot tell whether a message is deliverable until
    // the instant that the receiving process tries to receive it, since in
    // the meantime the process's labels can change."
    let mut kernel = Kernel::new(8);
    let got = Arc::new(Mutex::new(Vec::<String>::new()));

    let g2 = got.clone();
    kernel.spawn(
        "receiver",
        Category::Other,
        service_with_start(
            |sys| {
                let ut = sys.new_handle();
                sys.publish_env("t", Value::Handle(ut));
                sys.raise_recv(ut, Level::L3).unwrap();
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("recv.port", Value::Handle(p));
            },
            move |sys, msg| {
                g2.lock()
                    .unwrap()
                    .push(msg.body.as_str().unwrap_or("?").to_string());
                // After the first message, refuse all taint for t.
                let t = sys.env("t").unwrap().as_handle().unwrap();
                let restrict = Label::from_pairs(Level::L3, &[(t, Level::L2)]);
                sys.lower_recv_label(&restrict);
            },
        ),
    );
    let t = kernel.global_env("t").unwrap().as_handle().unwrap();
    let port = kernel.global_env("recv.port").unwrap().as_handle().unwrap();

    kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                // Both sends succeed; both are tainted identically. Between
                // their deliveries the receiver lowers its receive label, so
                // only the first lands.
                let args = SendArgs::new().contaminate(taint(t));
                sys.send_args(port, Value::Str("first".into()), &args)
                    .unwrap();
                sys.send_args(port, Value::Str("second".into()), &args)
                    .unwrap();
            },
            |_, _| {},
        ),
    );

    kernel.run();
    assert_eq!(*got.lock().unwrap(), vec!["first"]);
    assert_eq!(kernel.stats().dropped_label_check, 1);
}

// ---------------------------------------------------------------------
// Verification labels and integrity (§5.4).
// ---------------------------------------------------------------------

#[test]
fn verification_label_proves_identity() {
    // The §5.4 file-server write check: accept a write only when the sender
    // proves it speaks for u by supplying V with V(uG) ≤ 0.
    let mut kernel = Kernel::new(9);
    let accepted = Arc::new(Mutex::new(Vec::<String>::new()));

    // A process that will be granted the right to speak for u.
    kernel.spawn(
        "u-speaker",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("speaker.port", Value::Handle(p));
            },
            move |sys, msg| {
                if msg.body.as_str() == Some("you-speak-for-u") {
                    let ug = sys.env("u.grant").unwrap().as_handle().unwrap();
                    let fs = sys.env("fs.port").unwrap().as_handle().unwrap();
                    assert_eq!(sys.send_label().get(ug), Level::L0);
                    // Prove identity with V = {uG 0, 3} (§5.4: the sender
                    // explicitly names the credential it exercises — the
                    // confused-deputy countermeasure).
                    let v = Label::from_pairs(Level::L3, &[(ug, Level::L0)]);
                    sys.send_args(fs, Value::Str("u-write".into()), &SendArgs::new().verify(v))
                        .unwrap();
                }
            },
        ),
    );

    // The file server: creates uG, grants the speaker uG 0, checks writes.
    let a2 = accepted.clone();
    kernel.spawn(
        "fileserver",
        Category::Other,
        service_with_start(
            |sys| {
                let ug = sys.new_handle();
                sys.publish_env("u.grant", Value::Handle(ug));
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("fs.port", Value::Handle(p));
                // Grant uG 0 to the speaker (requires our ⋆, which we hold
                // as creator).
                let speaker = sys.env("speaker.port").unwrap().as_handle().unwrap();
                let ds = Label::from_pairs(Level::L3, &[(ug, Level::L0)]);
                sys.send_args(
                    speaker,
                    Value::Str("you-speak-for-u".into()),
                    &SendArgs::new().grant(ds),
                )
                .unwrap();
            },
            move |sys, msg| {
                let ug = sys.env("u.grant").unwrap().as_handle().unwrap();
                // §5.4: check V(uG) ≤ 0 before accepting the write.
                if msg.verify.get(ug) <= Level::L0 {
                    a2.lock()
                        .unwrap()
                        .push(msg.body.as_str().unwrap_or("?").to_string());
                }
            },
        ),
    );
    let ug = kernel.global_env("u.grant").unwrap().as_handle().unwrap();
    let fs = kernel.global_env("fs.port").unwrap().as_handle().unwrap();

    // An imposter: claiming uG 0 in V makes the kernel drop the message
    // (V must upper-bound E_S, and the imposter's E_S(uG) = 1 > 0), and
    // omitting V gets the message delivered but rejected by the app check.
    kernel.spawn(
        "imposter",
        Category::Other,
        service_with_start(
            move |sys| {
                let v = Label::from_pairs(Level::L3, &[(ug, Level::L0)]);
                sys.send_args(
                    fs,
                    Value::Str("forged-write".into()),
                    &SendArgs::new().verify(v),
                )
                .unwrap();
                sys.send(fs, Value::Str("unverified-write".into())).unwrap();
            },
            |_, _| {},
        ),
    );

    kernel.run();
    assert_eq!(*accepted.lock().unwrap(), vec!["u-write"]);
    assert_eq!(kernel.stats().dropped_label_check, 1, "forged V must drop");
}

#[test]
fn verification_label_is_delivered_to_receiver() {
    // §5.4: "Unlike the other optional labels ... the verification label is
    // also passed up to the receiving application."
    let mut kernel = Kernel::new(10);
    let (rec, log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    kernel.spawn(
        "sender",
        Category::Other,
        service_with_start(
            move |sys| {
                let mine = sys.new_handle(); // P_S(mine) = ⋆
                sys.publish_env("sender.handle", Value::Handle(mine));
                let v = Label::from_pairs(Level::L3, &[(mine, Level::L0)]);
                sys.send_args(rport, Value::Unit, &SendArgs::new().verify(v))
                    .unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    let mine = kernel
        .global_env("sender.handle")
        .unwrap()
        .as_handle()
        .unwrap();
    let entries = log.lock().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].verify.get(mine), Level::L0);
    assert_eq!(entries[0].verify.default_level(), Level::L3);
}

#[test]
fn mandatory_integrity_level_zero_is_fragile() {
    // §5.4: a process with P_S(uG) = 0 loses the privilege the moment it
    // receives from a process that does not speak for u — level 0 cannot be
    // re-disseminated and decays on contact with ordinary (level 1) input,
    // so it cannot launder low-integrity data into u's files.
    let mut kernel = Kernel::new(11);

    let trusted = kernel.spawn(
        "trusted",
        Category::Other,
        service_with_start(
            |sys| {
                let ug = sys.new_handle();
                sys.publish_env("ug", Value::Handle(ug));
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("trusted.port", Value::Handle(p));
                // Drop from ⋆ (creator privilege) to mandatory level 0:
                // self-contamination is a lub, and max(⋆, 0) = 0.
                sys.self_contaminate(&Label::from_pairs(Level::Star, &[(ug, Level::L0)]));
            },
            move |sys, _msg| {
                // After receiving plain input, P_S(uG) must have decayed to 1.
                let ug = sys.env("ug").unwrap().as_handle().unwrap();
                assert_eq!(
                    sys.send_label().get(ug),
                    Level::L1,
                    "level 0 must decay on ordinary input"
                );
            },
        ),
    );
    let tport = kernel
        .global_env("trusted.port")
        .unwrap()
        .as_handle()
        .unwrap();
    let ug = kernel.global_env("ug").unwrap().as_handle().unwrap();
    assert_eq!(kernel.process(trusted).send_label.get(ug), Level::L0);

    kernel.spawn(
        "ordinary",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.send(tport, Value::Str("low-integrity".into())).unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(kernel.stats().delivered, 1);
    assert_eq!(kernel.process(trusted).send_label.get(ug), Level::L1);
}

// ---------------------------------------------------------------------
// Port labels (§5.5).
// ---------------------------------------------------------------------

#[test]
fn port_label_blocks_taint_the_process_would_accept() {
    // The mail-reader pattern: the process receive label accepts taint, but
    // a specific port's label refuses it — kernel-side message filtering.
    let mut kernel = Kernel::new(12);
    let got = Arc::new(Mutex::new(Vec::<String>::new()));

    let g2 = got.clone();
    kernel.spawn(
        "mail-reader",
        Category::Other,
        service_with_start(
            |sys| {
                let t = sys.new_handle();
                sys.publish_env("attachment.taint", Value::Handle(t));
                // Process-wide: accept t-tainted messages.
                sys.raise_recv(t, Level::L3).unwrap();
                // But this port refuses them: p_R = {t 1, 3}.
                let p = sys.new_port(Label::from_pairs(Level::L3, &[(t, Level::L1)]));
                sys.set_port_label(p, Label::from_pairs(Level::L3, &[(t, Level::L1)]))
                    .unwrap();
                sys.publish_env("filtered.port", Value::Handle(p));
                // And an unfiltered port accepts everything.
                let open = sys.new_port(Label::top());
                sys.set_port_label(open, Label::top()).unwrap();
                sys.publish_env("open.port", Value::Handle(open));
            },
            move |_sys, msg| {
                g2.lock().unwrap().push(format!("{}", msg.body));
            },
        ),
    );
    let t = kernel
        .global_env("attachment.taint")
        .unwrap()
        .as_handle()
        .unwrap();
    let filtered = kernel
        .global_env("filtered.port")
        .unwrap()
        .as_handle()
        .unwrap();
    let open = kernel.global_env("open.port").unwrap().as_handle().unwrap();

    kernel.spawn(
        "attachment",
        Category::Other,
        service_with_start(
            move |sys| {
                sys.self_contaminate(&taint(t));
                // Tainted: filtered port refuses, open port accepts.
                sys.send(filtered, Value::Str("to-filtered".into()))
                    .unwrap();
                sys.send(open, Value::Str("to-open".into())).unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(*got.lock().unwrap(), vec!["\"to-open\""]);
    assert_eq!(kernel.stats().dropped_label_check, 1);
}

#[test]
fn port_label_bounds_decontamination() {
    // Figure 4 requirement (4): D_R ⊑ p_R — a port with a low label cannot
    // be used to force taint acceptance onto its owner.
    let mut kernel = Kernel::new(13);
    let got = Arc::new(Mutex::new(0u32));

    let g2 = got.clone();
    kernel.spawn(
        "careful-server",
        Category::Other,
        service_with_start(
            |sys| {
                let t = sys.new_handle();
                sys.publish_env("t", Value::Handle(t));
                // Port label {t 2, 3}: refuses decontamination above 2 for t.
                let label = Label::from_pairs(Level::L3, &[(t, Level::L2)]);
                let p = sys.new_port(label.clone());
                sys.set_port_label(p, label).unwrap();
                sys.publish_env("srv.port", Value::Handle(p));
            },
            move |_, _| *g2.lock().unwrap() += 1,
        ),
    );
    let t = kernel.global_env("t").unwrap().as_handle().unwrap();
    let srv = kernel.global_env("srv.port").unwrap().as_handle().unwrap();

    kernel.spawn(
        "contaminator",
        Category::Other,
        service_with_start(
            move |sys| {
                // We don't own t... create our own handle we DO own.
                let _ = t;
                let mine = sys.new_handle();
                sys.publish_env("mine", Value::Handle(mine));
                // Try to contaminate the server while raising its receive
                // label for our handle: D_R = {mine 3}; the port label says
                // p_R(mine) = 3 (default), so this one is fine.
                sys.send_args(
                    srv,
                    Value::Str("ok".into()),
                    &SendArgs::new()
                        .contaminate(taint(mine))
                        .raise_recv(raise(mine)),
                )
                .unwrap();
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(*got.lock().unwrap(), 1);

    // Now a ⋆-holder for t itself tries to force t-taint through the port:
    // D_R = {t 3} but p_R(t) = 2, so requirement (4) fails and the message
    // is dropped even though the sender holds the privilege.
    let holder = kernel.spawn(
        "t-holder",
        Category::Other,
        asbestos_kernel::util::service_with_start(
            move |sys| {
                // Acquire ⋆ for t is impossible (not creator); so simulate a
                // holder by creating a fresh handle and a fresh careful port
                // inside this test process instead.
                let t2 = sys.new_handle();
                let label = Label::from_pairs(Level::L3, &[(t2, Level::L2)]);
                let p2 = sys.new_port(label.clone());
                sys.set_port_label(p2, label).unwrap();
                // Self-send with D_R(t2) = 3 > p_R(t2) = 2: dropped (req 4).
                sys.send_args(
                    p2,
                    Value::Str("forced".into()),
                    &SendArgs::new().raise_recv(raise(t2)),
                )
                .unwrap();
            },
            |_, _| {},
        ),
    );
    let _ = holder;
    kernel.run();
    assert_eq!(kernel.stats().dropped_port_decont, 1);
}

#[test]
fn set_port_label_requires_receive_rights() {
    let mut kernel = Kernel::new(14);
    let (rec, _log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();

    let outcome = Arc::new(Mutex::new(None));
    let o2 = outcome.clone();
    kernel.spawn(
        "meddler",
        Category::Other,
        service_with_start(
            move |sys| {
                *o2.lock().unwrap() = Some(sys.set_port_label(rport, Label::top()));
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(*outcome.lock().unwrap(), Some(Err(SysError::NotPortOwner)));
}

#[test]
fn dissociated_port_drops_messages() {
    let mut kernel = Kernel::new(15);
    let got = Arc::new(Mutex::new(0u32));
    let g2 = got.clone();
    kernel.spawn(
        "server",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("p", Value::Handle(p));
            },
            move |sys, msg| {
                *g2.lock().unwrap() += 1;
                if msg.body.as_str() == Some("shut-down") {
                    let p = sys.env("p").unwrap().as_handle().unwrap();
                    sys.dissociate_port(p).unwrap();
                }
            },
        ),
    );
    let p = kernel.global_env("p").unwrap().as_handle().unwrap();
    kernel.inject(p, Value::Str("shut-down".into()));
    kernel.inject(p, Value::Str("after".into()));
    kernel.run();
    assert_eq!(*got.lock().unwrap(), 1);
    assert_eq!(
        kernel.stats().dropped_no_port + kernel.stats().dropped_no_owner,
        1
    );
}

// ---------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------

#[test]
fn exit_process_cleans_up() {
    let mut kernel = Kernel::new(16);
    kernel.spawn(
        "mortal",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("mortal.port", Value::Handle(p));
                sys.mem_write(0x1000, &[1, 2, 3]).unwrap();
            },
            |sys, _msg| {
                sys.exit_process();
            },
        ),
    );
    let p = kernel
        .global_env("mortal.port")
        .unwrap()
        .as_handle()
        .unwrap();
    kernel.inject(p, Value::Unit);
    kernel.inject(p, Value::Unit); // second message: no owner anymore
    kernel.run();
    assert_eq!(kernel.stats().delivered, 1);
    // Exit dissociates the port, so the second message finds no port.
    assert_eq!(kernel.stats().dropped_no_port, 1);
    // Page freed.
    assert_eq!(kernel.kmem_report().user_frame_bytes, 0);
}

/// Opens a port anyone may send to and publishes it under `key`.
fn open_port(sys: &mut Sys<'_>, key: &str) -> Handle {
    let p = sys.new_port(Label::top());
    sys.set_port_label(p, Label::top()).unwrap();
    sys.publish_env(key, Value::Handle(p));
    p
}

/// A process's exit dissociates exactly the ports it holds: another
/// process's ports and an event process's stay live.
#[test]
fn exit_dissociates_exactly_the_exiting_processs_ports() {
    for shards in [1, 3] {
        let mut kernel = Kernel::new_sharded(18, shards);
        let mortal = service_with_start(
            |sys| {
                open_port(sys, "mortal.a");
                let gone = open_port(sys, "mortal.gone");
                sys.dissociate_port(gone).unwrap();
                open_port(sys, "mortal.b");
            },
            |sys, _| sys.exit_process(),
        );
        let mortal = kernel.spawn_on(0, "mortal", Category::Other, mortal);
        let other = service_with_start(
            |sys| {
                open_port(sys, "other");
            },
            |_, _| {},
        );
        kernel.spawn_on(1 % shards, "other", Category::Other, other);
        let eps = ep_service_fn(
            |sys| {
                open_port(sys, "eps.base");
            },
            |sys, _| {
                open_port(sys, "eps.ep");
            },
        );
        kernel.spawn_ep_service_on(2 % shards, "eps", Category::Other, eps);
        let port = |k: &Kernel, key: &str| k.global_env_handle(key).unwrap();
        kernel.inject(port(&kernel, "eps.base"), Value::Unit);
        kernel.run();
        kernel.inject(port(&kernel, "mortal.a"), Value::Unit);
        kernel.run();

        // The table holds exactly the three live ports, none of the three
        // dissociated ones.
        let table = kernel.handle_table();
        for key in ["mortal.a", "mortal.b", "mortal.gone"] {
            let h = port(&kernel, key);
            assert!(
                table.port(h).is_none(),
                "{shards} shards: {key} dissociated"
            );
        }
        for key in ["other", "eps.base", "eps.ep"] {
            let live = table.port(port(&kernel, key));
            assert!(live.is_some(), "{shards} shards: {key} live");
        }
        assert_eq!(table.len(), 3, "{shards} shards: only live ports stored");
        assert!(kernel.process(mortal).ports.is_empty());
    }
}

#[test]
fn spawned_children_inherit_labels() {
    let mut kernel = Kernel::new(17);
    kernel.spawn(
        "parent",
        Category::Other,
        service_with_start(
            |sys| {
                let h = sys.new_handle();
                sys.publish_env("h", Value::Handle(h));
                sys.self_contaminate(&Label::from_pairs(
                    Level::Star,
                    &[(Handle::from_raw(1), Level::L2)],
                ));
                let child = sys
                    .spawn(
                        "child",
                        Category::Other,
                        service_with_start(
                            |csys| {
                                let h = csys.env("h").unwrap().as_handle().unwrap();
                                // Fork-style privilege distribution: child
                                // inherits ⋆ for the parent's handle.
                                assert!(csys.has_star(h));
                                assert_eq!(csys.send_label().get(Handle::from_raw(1)), Level::L2);
                            },
                            |_, _| {},
                        ),
                    )
                    .unwrap();
                let _ = child;
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(kernel.process_count(), 2);
}

#[test]
fn queue_limit_drops_silently() {
    let mut kernel = Kernel::new(18);
    let (rec, log) = Recorder::new("r.port");
    kernel.spawn("receiver", Category::Other, Box::new(rec));
    let rport = kernel.global_env("r.port").unwrap().as_handle().unwrap();
    // Tiny queue.
    kernel.set_queue_limit(2);
    kernel.spawn(
        "flooder",
        Category::Other,
        service_with_start(
            move |sys| {
                for i in 0..5u64 {
                    // All sends report success.
                    sys.send(rport, Value::U64(i)).unwrap();
                }
            },
            |_, _| {},
        ),
    );
    kernel.run();
    assert_eq!(log.lock().unwrap().len(), 2);
    assert_eq!(kernel.stats().dropped_queue_full, 3);
}
