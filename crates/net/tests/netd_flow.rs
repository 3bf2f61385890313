//! End-to-end netd tests: connection lifecycle, taint application, and the
//! port-label enforcement that §7.2 builds OKWS's isolation from.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs, Sys, Value};
use asbestos_net::{spawn_netd, ClientDriver, NetMsg, NETD_CONTROL_ENV};

fn star_grant(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

fn taint3(h: Handle) -> Label {
    Label::from_pairs(Level::Star, &[(h, Level::L3)])
}

/// A listener's start: a notify port, registered with netd for TCP port 80.
fn listen_on_80(sys: &mut Sys<'_>) {
    let notify = sys.new_port(Label::top());
    sys.set_port_label(notify, Label::top()).unwrap();
    let control = sys.env(NETD_CONTROL_ENV).unwrap().as_handle().unwrap();
    let listen = NetMsg::Listen {
        tcp_port: 80,
        notify,
    };
    sys.send(control, listen.to_value()).unwrap();
}

#[test]
fn connection_notify_read_write_roundtrip() {
    let mut kernel = Kernel::new(101);
    let netd = spawn_netd(&mut kernel);
    let mut driver = ClientDriver::new(&netd);

    // An echo listener: on NewConn, READ the request; on ReadR, WRITE it
    // back uppercased and close.
    let conn_port = Arc::new(Mutex::new(None::<Handle>));
    let cp = conn_port.clone();
    kernel.spawn(
        "echo-listener",
        Category::Other,
        service_with_start(
            |sys| {
                listen_on_80(sys);
                let reply = sys.new_port(Label::top());
                sys.set_port_label(reply, Label::top()).unwrap();
                sys.set_env("reply", Value::Handle(reply));
            },
            move |sys, msg| match NetMsg::from_value(&msg.body) {
                Some(NetMsg::NewConn { port }) => {
                    *cp.lock().unwrap() = Some(port);
                    let reply = sys.env("reply").unwrap().as_handle().unwrap();
                    // Grant netd ⋆ for the reply port alongside the READ.
                    sys.send_args(
                        port,
                        NetMsg::Read {
                            max: 4096,
                            reply,
                            peek: false,
                        }
                        .to_value(),
                        &SendArgs::new().grant(star_grant(reply)),
                    )
                    .unwrap();
                }
                Some(NetMsg::ReadR { bytes }) => {
                    let port = cp.lock().unwrap().expect("ReadR follows NewConn");
                    let upper: Vec<u8> = bytes.to_ascii_uppercase();
                    sys.send(
                        port,
                        NetMsg::Write {
                            bytes: upper.into(),
                        }
                        .to_value(),
                    )
                    .unwrap();
                    sys.send(port, NetMsg::Close.to_value()).unwrap();
                }
                _ => {}
            },
        ),
    );

    driver.open(&mut kernel, 80, b"hello asbestos");
    kernel.run();
    driver.poll(&kernel);

    assert_eq!(driver.completed(), 1);
    assert_eq!(driver.request(0).response, b"HELLO ASBESTOS");
    assert!(driver.request(0).latency_cycles().unwrap() > 0);
    assert_eq!(kernel.stats().dropped_label_check, 0);
}

#[test]
fn unlistened_port_refuses_connections() {
    let mut kernel = Kernel::new(102);
    let netd = spawn_netd(&mut kernel);
    let mut driver = ClientDriver::new(&netd);
    driver.open(&mut kernel, 9999, b"GET / HTTP/1.0\r\n\r\n");
    kernel.run();
    driver.poll(&kernel);
    assert_eq!(driver.completed(), 0);
    assert!(!netd.net.borrow().is_open(driver.request(0).conn));
}

#[test]
fn tainted_replies_contaminate_and_port_label_opens_for_owner() {
    // The §7.2 step-5 mechanics: after AddTaint(uT), netd replies are
    // contaminated uT 3, uC's port label becomes {uC 0, uT 3, 2} so the
    // tainted worker can still write its own connection, and a worker
    // carrying a *different* user's taint cannot.
    let mut kernel = Kernel::new(103);
    let netd = spawn_netd(&mut kernel);
    let mut driver = ClientDriver::new(&netd);

    let state: Arc<Mutex<Option<(Handle, Handle)>>> = Arc::new(Mutex::new(None));

    // The trusted front end (ok-demux stand-in): owns uT, tells netd to
    // taint the connection, then hands uC to the worker with uT
    // contamination, as ok-demux does in step 6.
    let st = state.clone();
    kernel.spawn(
        "frontend",
        Category::Other,
        service_with_start(listen_on_80, move |sys, msg| {
            if let Some(NetMsg::NewConn { port: uc }) = NetMsg::from_value(&msg.body) {
                let ut = sys.new_handle();
                *st.lock().unwrap() = Some((uc, ut));
                // Step 5: grant netd uT ⋆ and register the taint.
                sys.send_args(
                    uc,
                    NetMsg::AddTaint { taint: ut }.to_value(),
                    &SendArgs::new().grant(star_grant(ut)),
                )
                .unwrap();
                // Model a *compromised* worker for user v: it legitimately
                // holds the uC ⋆ capability (say, from a demux bug) but
                // carries v's taint. Send to it first so it attacks while
                // the connection is still open.
                let attacker = sys.env("attacker.port").unwrap().as_handle().unwrap();
                sys.send_args(
                    attacker,
                    Value::Handle(uc),
                    &SendArgs::new().grant(star_grant(uc)),
                )
                .unwrap();
                // Step 6: forward uC to the rightful worker, granting
                // uC ⋆ and contaminating it with uT 3 (raising its
                // receive label too).
                let worker = sys.env("worker.port").unwrap().as_handle().unwrap();
                sys.send_args(
                    worker,
                    Value::Handle(uc),
                    &SendArgs::new()
                        .grant(star_grant(uc))
                        .contaminate(taint3(ut))
                        .raise_recv(taint3(ut)),
                )
                .unwrap();
            }
        }),
    );

    // The per-user worker: writes the response for its own user.
    kernel.spawn(
        "worker",
        Category::Okws,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("worker.port", Value::Handle(p));
            },
            |sys, msg| {
                if let Some(uc) = msg.body.as_handle() {
                    sys.send(
                        uc,
                        NetMsg::Write {
                            bytes: b"users-own-data".to_vec().into(),
                        }
                        .to_value(),
                    )
                    .unwrap();
                    sys.send(uc, NetMsg::Close.to_value()).unwrap();
                }
            },
        ),
    );

    // The attacker: tainted with a different user's compartment; tries to
    // write onto u's connection.
    kernel.spawn(
        "attacker",
        Category::Okws,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("attacker.port", Value::Handle(p));
                let vt = sys.new_handle();
                sys.self_contaminate(&taint3(vt));
            },
            |sys, msg| {
                if let Some(uc) = msg.body.as_handle() {
                    // send succeeds; delivery must be dropped by uC's label.
                    sys.send(
                        uc,
                        NetMsg::Write {
                            bytes: b"stolen".to_vec().into(),
                        }
                        .to_value(),
                    )
                    .unwrap();
                }
            },
        ),
    );

    driver.open(&mut kernel, 80, b"request-bytes");
    kernel.run();
    driver.poll(&kernel);

    // Only the rightful worker's bytes made it out.
    assert_eq!(driver.completed(), 1);
    assert_eq!(driver.request(0).response, b"users-own-data");
    assert!(
        kernel.stats().dropped_label_check >= 1,
        "attacker write dropped"
    );

    // And netd is still untainted for uT (it holds ⋆): its send label shows
    // uT at ⋆, so future users are unaffected.
    let (_uc, ut) = state.lock().unwrap().unwrap();
    let netd_proc = kernel.process(netd.lanes[0].pid);
    assert_eq!(netd_proc.send_label.get(ut), Level::Star);
}

#[test]
fn tainted_read_contaminates_reader() {
    // §7.7: "netd contaminates all data read from user u's connection with
    // uT 3" — a reader without uT ⋆ becomes tainted by the ReadR.
    let mut kernel = Kernel::new(104);
    let netd = spawn_netd(&mut kernel);
    let mut driver = ClientDriver::new(&netd);

    let reader_label = Arc::new(Mutex::new(None::<Level>));
    let rl = reader_label.clone();
    let reader = kernel.spawn(
        "reader",
        Category::Okws,
        service_with_start(listen_on_80, move |sys, msg| {
            match NetMsg::from_value(&msg.body) {
                Some(NetMsg::NewConn { port: uc }) => {
                    // Taint our own connection, then read from it. We create
                    // uT ourselves (so we can AddTaint) but then *drop* the
                    // privilege to model an unprivileged reader.
                    let ut = sys.new_handle();
                    sys.set_env("ut", Value::Handle(ut));
                    sys.send_args(
                        uc,
                        NetMsg::AddTaint { taint: ut }.to_value(),
                        &SendArgs::new().grant(star_grant(ut)),
                    )
                    .unwrap();
                    // Keep the right to receive uT-tainted replies, then
                    // renounce declassification privilege: ⋆ → 1.
                    sys.raise_recv(ut, Level::L3).unwrap();
                    sys.self_contaminate(&Label::from_pairs(Level::Star, &[(ut, Level::L1)]));
                    let reply = sys.new_port(Label::top());
                    sys.set_port_label(reply, Label::top()).unwrap();
                    sys.send_args(
                        uc,
                        NetMsg::Read {
                            max: 4096,
                            reply,
                            peek: false,
                        }
                        .to_value(),
                        &SendArgs::new().grant(star_grant(reply)),
                    )
                    .unwrap();
                }
                Some(NetMsg::ReadR { .. }) => {
                    let ut = sys.env("ut").unwrap().as_handle().unwrap();
                    *rl.lock().unwrap() = Some(sys.send_label().get(ut));
                }
                _ => {}
            }
        }),
    );

    driver.open(&mut kernel, 80, b"secret");
    kernel.run();

    assert_eq!(
        *reader_label.lock().unwrap(),
        Some(Level::L3),
        "reader got tainted"
    );
    let _ = reader;
}

#[test]
fn an_ungranted_add_taint_is_dropped_and_the_connection_still_serves() {
    // ok-demux grants every worker session `uC ⋆`, so any worker can send
    // AddTaint on its connection — including for a handle it never
    // granted netd at ⋆. netd must drop that message the way a label
    // check drops one, not panic the whole system, and the connection
    // must keep working untainted.
    let mut kernel = Kernel::new(105);
    let netd = spawn_netd(&mut kernel);
    let mut driver = ClientDriver::new(&netd);

    let fresh = Arc::new(Mutex::new(None::<Handle>));
    let f = fresh.clone();
    kernel.spawn(
        "listener",
        Category::Okws,
        service_with_start(listen_on_80, move |sys, msg| {
            if let Some(NetMsg::NewConn { port: uc }) = NetMsg::from_value(&msg.body) {
                let taint = sys.new_handle();
                *f.lock().unwrap() = Some(taint);
                // No `grant(star_grant(taint))` alongside.
                sys.send(uc, NetMsg::AddTaint { taint }.to_value()).unwrap();
                let bytes = b"still-served".to_vec().into();
                sys.send(uc, NetMsg::Write { bytes }.to_value()).unwrap();
                sys.send(uc, NetMsg::Close.to_value()).unwrap();
            }
        }),
    );
    driver.open(&mut kernel, 80, b"request-bytes");
    kernel.run();
    driver.poll(&kernel);

    assert_eq!(driver.completed(), 1);
    assert_eq!(driver.request(0).response, b"still-served");
    // netd neither raised its receive label for the handle nor gained it.
    let taint = fresh
        .lock()
        .unwrap()
        .expect("the listener saw the connection");
    let netd_proc = kernel.process(netd.lanes[0].pid);
    assert_eq!(netd_proc.recv_label.get(taint), Level::L2);
    assert_eq!(netd_proc.send_label.get(taint), Level::L1);
}
