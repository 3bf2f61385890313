//! End-to-end OKWS tests: the Figure 5 request flow, session caching
//! (§7.3), user isolation under worker compromise (§7.8), and decentralized
//! declassification (§7.6).

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Kernel, Label, Level, Value};
use asbestos_net::NetMsg;
use asbestos_okws::logic::{EchoStore, ParamLength, Profile};
use asbestos_okws::proto::OkwsMsg;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

fn store_deployment(seed: u64, users: &[(&str, &str)]) -> (Kernel, Okws, OkwsClient) {
    let mut kernel = Kernel::new(seed);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    for (u, p) in users {
        config.users.push((u.to_string(), p.to_string()));
    }
    let okws = Okws::start(&mut kernel, config);
    let client = OkwsClient::new(&okws);
    (kernel, okws, client)
}

#[test]
fn figure5_request_flow_and_session_cache() {
    let (mut kernel, _okws, mut client) = store_deployment(201, &[("alice", "pw-a")]);

    // First request: authenticates, forks W[alice], stores data.
    let (status, body) = client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "pw-a",
            &[("data", "first-secret")],
        )
        .expect("response arrives");
    assert_eq!(status, 200);
    assert!(body.is_empty(), "no previous data");
    let eps_after_first = kernel.stats().eps_created;

    // Second request: served by the *same* cached event process, which
    // returns the stored state (§7.3).
    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[("data", "second")])
        .expect("response arrives");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"first-secret"));
    assert_eq!(body.len(), 1024, "§9.1's ~1K response");
    assert_eq!(
        kernel.stats().eps_created,
        eps_after_first,
        "no new event process for a cached session"
    );
}

#[test]
fn authentication_gates() {
    let (mut kernel, _okws, mut client) = store_deployment(202, &[("alice", "pw-a")]);

    let (status, _) = client
        .request_sync(&mut kernel, "store", "alice", "wrong", &[])
        .expect("error response still arrives");
    assert_eq!(status, 403);

    let (status, _) = client
        .request_sync(&mut kernel, "store", "mallory", "pw-a", &[])
        .expect("unknown user responds");
    assert_eq!(status, 403);

    let (status, _) = client
        .request_sync(&mut kernel, "nosuch", "alice", "pw-a", &[])
        .expect("unknown service responds");
    assert_eq!(status, 404);

    // Missing credentials entirely.
    let idx = client.driver.get(&mut kernel, 80, "/store");
    kernel.run();
    client.driver.poll(&kernel);
    let (status, _) = client.parse_response(idx).expect("401 response");
    assert_eq!(status, 401);
}

#[test]
fn sessions_are_isolated_between_users() {
    let (mut kernel, _okws, mut client) =
        store_deployment(203, &[("alice", "pw-a"), ("bob", "pw-b")]);

    client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "pw-a",
            &[("data", "alice-secret")],
        )
        .unwrap();
    client
        .request_sync(
            &mut kernel,
            "store",
            "bob",
            "pw-b",
            &[("data", "bob-secret")],
        )
        .unwrap();

    // Each user gets exactly their own state back.
    let (_, alice_body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[])
        .unwrap();
    assert!(alice_body.starts_with(b"alice-secret"));
    let (_, bob_body) = client
        .request_sync(&mut kernel, "store", "bob", "pw-b", &[])
        .unwrap();
    assert!(bob_body.starts_with(b"bob-secret"));

    // Two distinct event processes exist, one per session.
    let worker = kernel.find_process("worker-store").unwrap();
    assert_eq!(kernel.live_eps(worker).len(), 2);

    // Their labels carry different user taints (§7.2's security argument).
    let eps = kernel.live_eps(worker);
    let l0 = &kernel.event_process(eps[0]).send_label;
    let l1 = &kernel.event_process(eps[1]).send_label;
    assert_ne!(l0, l1, "per-user taints must differ");
}

#[test]
fn logout_ends_the_session() {
    let (mut kernel, _okws, mut client) = store_deployment(204, &[("alice", "pw-a")]);

    client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "pw-a",
            &[("data", "persisted")],
        )
        .unwrap();
    let worker = kernel.find_process("worker-store").unwrap();
    assert_eq!(kernel.live_eps(worker).len(), 1);

    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[("logout", "1")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"goodbye");
    assert!(
        kernel.live_eps(worker).is_empty(),
        "ep_exit freed the session"
    );

    // A new request forks a fresh event process with empty state.
    let (_, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[])
        .unwrap();
    assert!(body.is_empty(), "state did not survive logout");
    assert_eq!(kernel.live_eps(worker).len(), 1);
}

/// A compromised worker: ships every user's session data to an external
/// collaborator and tries to launder it through the database. §7.8's claim
/// is that *none* of this can violate user isolation, because the kernel —
/// not worker code — enforces the policy.
struct EvilEcho;

impl asbestos_okws::WorkerLogic for EvilEcho {
    fn on_request(
        &self,
        session: &mut dyn asbestos_okws::SessionStore,
        req: &asbestos_net::HttpRequest,
    ) -> asbestos_okws::Action {
        // Store the user's secret like the honest service would.
        if let Some(data) = req.param("data") {
            let bytes = data.as_bytes();
            session.write(0, &(bytes.len() as u32).to_le_bytes());
            session.write(4, bytes);
            // Exfiltration attempt #1: write the secret into the shared
            // database table, hoping other users can read it.
            return asbestos_okws::Action::DbExec {
                sql: "INSERT INTO loot VALUES (?)".into(),
                params: vec![asbestos_db::SqlValue::Text(data.to_string())],
            };
        }
        // Retrieval: read whatever loot the DB will give us.
        asbestos_okws::Action::DbQuery {
            sql: "SELECT stolen FROM loot".into(),
            params: vec![],
        }
    }

    fn on_db_exec(
        &self,
        _session: &mut dyn asbestos_okws::SessionStore,
        _req: &asbestos_net::HttpRequest,
        ok: bool,
        _affected: u64,
    ) -> asbestos_okws::Action {
        asbestos_okws::Action::ok(if ok { &b"stored"[..] } else { &b"refused"[..] })
    }

    fn on_db_rows(
        &self,
        _session: &mut dyn asbestos_okws::SessionStore,
        _req: &asbestos_net::HttpRequest,
        rows: &[Vec<asbestos_db::SqlValue>],
    ) -> asbestos_okws::Action {
        let mut body = String::new();
        for row in rows {
            if let Some(t) = row.first().and_then(|v| v.as_text()) {
                body.push_str(t);
                body.push('\n');
            }
        }
        asbestos_okws::Action::ok(body.into_bytes())
    }
}

#[test]
fn compromised_worker_cannot_leak_across_users() {
    let mut kernel = Kernel::new(205);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("evil", || Box::new(EvilEcho)));
    config
        .worker_tables
        .push("CREATE TABLE loot (stolen)".into());
    config.users.push(("alice".into(), "pw-a".into()));
    config.users.push(("mallory".into(), "pw-m".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    // Alice uses the (compromised) service; her secret lands in the DB —
    // but in a row owned by alice.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "evil",
            "alice",
            "pw-a",
            &[("data", "alice-card-number")],
        )
        .unwrap();
    assert_eq!(body, b"stored");

    // Mallory asks the same compromised service to dump the loot table.
    // The proxy sends alice's row tainted aT 3; the kernel drops it at
    // mallory's event process. Mallory sees nothing.
    let drops_before = kernel.stats().dropped_label_check;
    let (status, body) = client
        .request_sync(&mut kernel, "evil", "mallory", "pw-m", &[])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"", "mallory must not see alice's data");
    assert!(
        kernel.stats().dropped_label_check > drops_before,
        "the leak attempt was dropped by label checks"
    );

    // Alice, by contrast, can read her own row back.
    let (_, body) = client
        .request_sync(&mut kernel, "evil", "alice", "pw-a", &[])
        .unwrap();
    assert_eq!(body, b"alice-card-number\n");
}

/// A deeply compromised worker that bypasses the logic API entirely: raw
/// event-process code that fires the session contents at an external sink.
struct RawEvil;

impl asbestos_kernel::EpService for RawEvil {
    fn on_base_start(&mut self, sys: &mut asbestos_kernel::Sys<'_>) {
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top()).unwrap();
        sys.publish_env("okws.worker.rawevil.port", Value::Handle(port));
    }

    fn on_event(&self, sys: &mut asbestos_kernel::Sys<'_>, msg: &asbestos_kernel::Message) {
        if let Some(OkwsMsg::Activate { service, verify }) = OkwsMsg::from_value(&msg.body) {
            let demux = sys.env("okws.demux.reg").unwrap().as_handle().unwrap();
            let port = sys
                .env("okws.worker.rawevil.port")
                .unwrap()
                .as_handle()
                .unwrap();
            let v = Label::from_pairs(Level::L3, &[(verify, Level::L0)]);
            let _ = sys.send_args(
                demux,
                OkwsMsg::Register { service, port }.to_value(),
                &asbestos_kernel::SendArgs::new().verify(v),
            );
            let _ = sys.ep_exit();
            return;
        }
        if let Some(OkwsMsg::ConnHandoff { conn, user, .. }) = OkwsMsg::from_value(&msg.body) {
            // Leak attempt: raw send of the user's name to the evil sink.
            if let Some(sink) = sys.env("evil.sink").and_then(|v| v.as_handle()) {
                let _ = sys.send(sink, Value::Str(format!("stolen from {user}")));
            }
            // Still answer the request so the connection completes.
            let response = asbestos_net::http::ok_response(b"served");
            let _ = sys.send(conn, NetMsg::Write { bytes: response }.to_value());
            let _ = sys.send(conn, NetMsg::Close.to_value());
            let _ = sys.ep_exit();
        }
    }
}

#[test]
fn raw_compromise_cannot_reach_external_sink() {
    // §7.8's threat model at full strength: the worker's *code* is
    // attacker-controlled (not just its logic callbacks), legitimately
    // installed through the launcher, and tries a raw IPC exfiltration to
    // an untainted collaborator. The kernel's label check on the sink's
    // receive label must stop it.
    let mut kernel = Kernel::new(206);

    // The external collaborator: an ordinary untainted process.
    let received = Arc::new(Mutex::new(0u32));
    let r2 = received.clone();
    kernel.spawn(
        "evil-sink",
        Category::Other,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("evil.sink", Value::Handle(p));
            },
            move |_, _| *r2.lock().unwrap() += 1,
        ),
    );

    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::raw("rawevil", || Box::new(RawEvil)));
    config.users.push(("alice".into(), "pw-a".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    let drops_before = kernel.stats().dropped_label_check;
    let (status, body) = client
        .request_sync(&mut kernel, "rawevil", "alice", "pw-a", &[])
        .expect("the compromised worker still answers its own user");
    assert_eq!(status, 200);
    assert_eq!(body, b"served");
    // The exfiltration send happened — and was dropped by the kernel.
    assert_eq!(
        *received.lock().unwrap(),
        0,
        "sink must never hear from tainted workers"
    );
    assert!(kernel.stats().dropped_label_check > drops_before);
}

/// A compromised worker logged in as mallory that rewrites *alice's*
/// entry in ok-demux's session table (§7.3) over the open control port,
/// proving — truthfully — that it speaks for mallory.
#[derive(Clone, Copy)]
enum SessionSpoof {
    /// `SessionEnd` for alice: her cached session would be forgotten.
    End,
    /// `SessionNew` for alice naming mallory's own port: alice's next
    /// connection, with its uC ⋆, would be handed to mallory.
    New,
}

impl asbestos_kernel::EpService for SessionSpoof {
    fn on_base_start(&mut self, sys: &mut asbestos_kernel::Sys<'_>) {
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top()).unwrap();
        sys.publish_env("okws.worker.spoof.port", Value::Handle(port));
    }

    fn on_event(&self, sys: &mut asbestos_kernel::Sys<'_>, msg: &asbestos_kernel::Message) {
        if let Some(OkwsMsg::Activate { service, verify }) = OkwsMsg::from_value(&msg.body) {
            let demux = sys.env("okws.demux.reg").unwrap().as_handle().unwrap();
            let port = sys
                .env("okws.worker.spoof.port")
                .unwrap()
                .as_handle()
                .unwrap();
            let v = Label::from_pairs(Level::L3, &[(verify, Level::L0)]);
            let _ = sys.send_args(
                demux,
                OkwsMsg::Register { service, port }.to_value(),
                &asbestos_kernel::SendArgs::new().verify(v),
            );
            let _ = sys.ep_exit();
            return;
        }
        let Some(OkwsMsg::ConnHandoff {
            conn, user, grant, ..
        }) = OkwsMsg::from_value(&msg.body)
        else {
            return;
        };
        if user != "mallory" {
            // A connection routed here by the forged entry: keep it.
            return;
        }
        let response = asbestos_net::http::ok_response(b"served");
        let _ = sys.send(conn, NetMsg::Write { bytes: response }.to_value());
        let _ = sys.send(conn, NetMsg::Close.to_value());
        let control = sys.env("okws.demux.port").unwrap().as_handle().unwrap();
        let mine = Label::from_pairs(Level::L3, &[(grant, Level::L0)]);
        let (body, args) = match self {
            SessionSpoof::End => (
                OkwsMsg::SessionEnd {
                    user: "alice".into(),
                    service: "store".into(),
                },
                asbestos_kernel::SendArgs::new().verify(mine),
            ),
            SessionSpoof::New => {
                let port = sys.new_port(Label::top());
                let star = Label::from_pairs(Level::L3, &[(port, Level::Star)]);
                (
                    OkwsMsg::SessionNew {
                        user: "alice".into(),
                        service: "store".into(),
                        port,
                    },
                    asbestos_kernel::SendArgs::new().verify(mine).grant(star),
                )
            }
        };
        let _ = sys.send_args(control, body.to_value(), &args);
    }
}

#[test]
fn workers_cannot_rewrite_another_users_session() {
    for spoof in [SessionSpoof::End, SessionSpoof::New] {
        let name = match spoof {
            SessionSpoof::End => "SessionEnd",
            SessionSpoof::New => "SessionNew",
        };
        let mut kernel = Kernel::new(214);
        let mut config = OkwsConfig::new(80);
        config
            .services
            .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
        config
            .services
            .push(ServiceSpec::raw("spoof", move || Box::new(spoof)));
        config.users.push(("alice".into(), "pw-a".into()));
        config.users.push(("mallory".into(), "pw-m".into()));
        let okws = Okws::start(&mut kernel, config);
        let mut client = OkwsClient::new(&okws);

        client
            .request_sync(
                &mut kernel,
                "store",
                "alice",
                "pw-a",
                &[("data", "alice-blob")],
            )
            .unwrap();
        let (_, body) = client
            .request_sync(&mut kernel, "spoof", "mallory", "pw-m", &[])
            .expect("the spoofing worker answers its own user");
        assert_eq!(body, b"served");

        // §7.5: ok-demux acts on a session event only for the user whose
        // grant handle the sender proved it holds, so alice's session is
        // still hers.
        let reply = client.request_sync(&mut kernel, "store", "alice", "pw-a", &[]);
        let (status, body) = reply.unwrap_or_else(|| panic!("{name}: alice got no response"));
        assert_eq!(status, 200);
        assert!(
            body.starts_with(b"alice-blob"),
            "{name}: alice's session was rewritten by mallory's worker"
        );
    }
}

#[test]
fn declassifier_publishes_and_workers_read() {
    // §7.6 end to end: "pubprofile" is a declassifier worker; alice uses it
    // to publish her bio; bob reads the published bio through the ordinary
    // profile worker.
    let mut kernel = Kernel::new(209);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config
        .services
        .push(ServiceSpec::new("pubprofile", || Box::new(Profile)).declassifier());
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    config.users.push(("alice".into(), "pw-a".into()));
    config.users.push(("bob".into(), "pw-b".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    // Alice stores a *private* bio via the ordinary worker.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "profile",
            "alice",
            "pw-a",
            &[("set", "private-bio")],
        )
        .unwrap();
    assert_eq!(body, b"stored");

    // And publishes a public bio via the declassifier.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "pubprofile",
            "alice",
            "pw-a",
            &[("set", "public-bio")],
        )
        .unwrap();
    assert_eq!(body, b"stored");

    // Bob reads alice's profile: only the declassified row comes through.
    let (_, body) = client
        .request_sync(&mut kernel, "profile", "bob", "pw-b", &[("get", "alice")])
        .unwrap();
    assert_eq!(body, b"alice:public-bio\n");

    // Alice sees both: her own private row and the declassified one.
    let (_, body) = client
        .request_sync(&mut kernel, "profile", "alice", "pw-a", &[("get", "alice")])
        .unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("private-bio"));
    assert!(text.contains("public-bio"));
}

#[test]
fn a_read_larger_than_the_row_buffer_keeps_each_row_that_fits() {
    // Alice's rows exceed the worker's 64 KiB row buffer (SCRATCH_REGION
    // less its 16-byte header, 65,520 bytes). They arrive as one message;
    // the worker keeps each row that still fits, in order, as it did when
    // every row was its own message. A row here is 19 bytes plus its bio:
    // rows 0–16 (3,802-byte bios, as long as ok-demux's 4 KiB peek at the
    // request allows) fill 64,957 bytes, so the large rows 17 and 19 are
    // dropped while the small rows 18 and 20 still fit.
    let mut kernel = Kernel::new(213);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    config.users.push(("alice".into(), "pw-a".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    let bios: Vec<String> = (0..21)
        .map(|i| match i {
            18 | 20 => format!("{i}-small"),
            _ => format!("{i:02}{}", "x".repeat(3_800)),
        })
        .collect();
    for bio in &bios {
        let reply = client.request_sync(&mut kernel, "profile", "alice", "pw-a", &[("set", bio)]);
        assert_eq!(reply, Some((200, b"stored".to_vec())));
    }
    let (status, body) = client
        .request_sync(&mut kernel, "profile", "alice", "pw-a", &[("get", "alice")])
        .expect("the worker answers");
    assert_eq!(status, 200);
    let kept = (0..17).chain([18, 20]);
    let expect: String = kept.map(|i| format!("alice:{}\n", bios[i])).collect();
    assert!(body == expect.as_bytes(), "kept the wrong rows");
}

#[test]
fn concurrent_connections_to_one_session_serialize() {
    // A session event process serves one request at a time; connections
    // arriving mid-request queue in EP memory and are answered in order.
    let (mut kernel, _okws, mut client) = store_deployment(212, &[("alice", "pw-a")]);
    client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[("data", "seed")])
        .unwrap();

    // Three simultaneous requests for the same session.
    let idxs: Vec<usize> = (0..3)
        .map(|_| client.request(&mut kernel, "store", "alice", "pw-a", &[]))
        .collect();
    kernel.run();
    client.driver.poll(&kernel);
    for idx in idxs {
        let (status, body) = client
            .parse_response(idx)
            .expect("queued connection still answered");
        assert_eq!(status, 200);
        assert!(body.starts_with(b"seed"));
    }
    // Still exactly one event process for the session.
    let worker = kernel.find_process("worker-store").unwrap();
    assert_eq!(kernel.live_eps(worker).len(), 1);
}

#[test]
fn queue_exhaustion_degrades_to_drops_not_leaks() {
    // §8: "Asbestos does not yet deal gracefully with certain forms of
    // resource exhaustion." Our explicit queue bound turns exhaustion into
    // silent drops; this test confirms overload never breaks isolation —
    // requests fail or succeed for their *own* user only.
    let (mut kernel, _okws, mut client) =
        store_deployment(211, &[("alice", "pw-a"), ("bob", "pw-b")]);
    // Establish both sessions under normal conditions.
    client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "pw-a",
            &[("data", "alice-data")],
        )
        .unwrap();
    client
        .request_sync(&mut kernel, "store", "bob", "pw-b", &[("data", "bob-data")])
        .unwrap();

    // Severely constrain the kernel queue and fire a burst.
    kernel.set_queue_limit(6);
    let mut idxs = Vec::new();
    for _ in 0..10 {
        idxs.push(client.request(&mut kernel, "store", "alice", "pw-a", &[]));
        idxs.push(client.request(&mut kernel, "store", "bob", "pw-b", &[]));
    }
    kernel.run();
    client.driver.poll(&kernel);
    assert!(
        kernel.stats().dropped_queue_full > 0,
        "overload actually occurred"
    );

    // Every response that did arrive is the right user's data.
    for (i, idx) in idxs.iter().enumerate() {
        if let Some((status, body)) = client.parse_response(*idx) {
            if status == 200 && !body.is_empty() {
                let expect: &[u8] = if i % 2 == 0 {
                    b"alice-data"
                } else {
                    b"bob-data"
                };
                assert!(
                    body.starts_with(expect),
                    "request {i} got the wrong user's data"
                );
            }
        }
    }

    // The system recovers once the pressure is off.
    kernel.set_queue_limit(asbestos_kernel::kernel::DEFAULT_QUEUE_LIMIT);
    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[])
        .unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"alice-data"));
}

#[test]
fn label_growth_matches_section_9_3() {
    // §9.3's accounting: per user, idd and ok-dbproxy's send labels gain
    // two handles, netd's receive label gains one declassification, and
    // ok-demux holds one session-port handle per live session.
    let users: Vec<(String, String)> = (0..20)
        .map(|i| (format!("u{i}"), format!("pw{i}")))
        .collect();
    let mut kernel = Kernel::new(210);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    config.users = users.clone();
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    let idd = kernel.find_process("idd").unwrap();
    let netd = kernel.find_process("netd").unwrap();
    let demux = kernel.find_process("ok-demux").unwrap();
    let idd_before = kernel.process(idd).send_label.entry_count();
    let netd_before = kernel.process(netd).recv_label.entry_count();
    let demux_before = kernel.process(demux).send_label.entry_count();

    for (u, p) in &users {
        client
            .request_sync(&mut kernel, "bench", u, p, &[])
            .unwrap();
    }

    let idd_after = kernel.process(idd).send_label.entry_count();
    let netd_after = kernel.process(netd).recv_label.entry_count();
    let demux_after = kernel.process(demux).send_label.entry_count();
    assert_eq!(
        idd_after - idd_before,
        2 * users.len(),
        "uT ⋆ + uG ⋆ per user in idd"
    );
    assert_eq!(
        netd_after - netd_before,
        users.len(),
        "one uT 3 raise per user in netd"
    );
    assert!(
        demux_after - demux_before >= users.len(),
        "ok-demux holds at least one session-port handle per session"
    );
}

/// A worker that tries to dump the trusted parties' *raw* tables: idd's
/// credential store and ok-dbproxy's uid map. Neither carries the hidden
/// ownership column, so the proxy must refuse the statements outright —
/// without the worker-table check, `SELECT *` on a raw table would
/// misread its first column as the owner id and leak rows untainted.
struct TableSnoop;

impl asbestos_okws::WorkerLogic for TableSnoop {
    fn on_request(
        &self,
        _session: &mut dyn asbestos_okws::SessionStore,
        req: &asbestos_net::HttpRequest,
    ) -> asbestos_okws::Action {
        let table = req.param("table").unwrap_or("okws_users").to_string();
        if req.param("drop").is_some() {
            return asbestos_okws::Action::DbExec {
                sql: format!("DELETE FROM {table}"),
                params: vec![],
            };
        }
        asbestos_okws::Action::DbQuery {
            sql: format!("SELECT * FROM {table}"),
            params: vec![],
        }
    }

    fn on_db_exec(
        &self,
        _session: &mut dyn asbestos_okws::SessionStore,
        _req: &asbestos_net::HttpRequest,
        ok: bool,
        _affected: u64,
    ) -> asbestos_okws::Action {
        asbestos_okws::Action::ok(if ok { &b"dropped"[..] } else { &b"refused"[..] })
    }

    fn on_db_rows(
        &self,
        _session: &mut dyn asbestos_okws::SessionStore,
        _req: &asbestos_net::HttpRequest,
        rows: &[Vec<asbestos_db::SqlValue>],
    ) -> asbestos_okws::Action {
        asbestos_okws::Action::ok(format!("{} rows", rows.len()).into_bytes())
    }
}

#[test]
fn workers_cannot_reach_raw_credential_tables() {
    let mut kernel = Kernel::new(213);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("snoop", || Box::new(TableSnoop)));
    config.users.push(("alice".into(), "pw-a".into()));
    config.users.push(("bob".into(), "pw-b".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    // idd's password table and the proxy's uid map: zero rows visible,
    // even though both tables exist and have rows.
    for table in ["okws_users", "dbproxy_owners"] {
        let (status, body) = client
            .request_sync(&mut kernel, "snoop", "alice", "pw-a", &[("table", table)])
            .unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            body, b"0 rows",
            "a worker dump of raw table {table} must come back empty"
        );
    }

    // Destructive writes are refused too — and the credentials survive:
    // bob can still log in afterwards.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "snoop",
            "alice",
            "pw-a",
            &[("table", "okws_users"), ("drop", "1")],
        )
        .unwrap();
    assert_eq!(body, b"refused");
    let (status, _) = client
        .request_sync(
            &mut kernel,
            "snoop",
            "bob",
            "pw-b",
            &[("table", "okws_users")],
        )
        .unwrap();
    assert_eq!(status, 200, "bob's credentials survived the attack");
}
