//! End-to-end OKWS tests: the Figure 5 request flow, session caching
//! (§7.3), user isolation under worker compromise (§7.8), and decentralized
//! declassification (§7.6).

mod hostile;

use std::rc::Rc;
use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Kernel, Label, Level, Value};
use asbestos_net::NetMsg;
use asbestos_okws::logic::{EchoStore, ParamLength, Passwd, Profile};
use asbestos_okws::proto::OkwsMsg;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use hostile::{BindingSquatter, KeySquatter, Loot, Rewirer};

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
                let _ = sys.send(sink, Value::Str(format!("stolen from {user}").into()));
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

/// A compromised worker that, on activation, registers *itself* as the
/// `bench` service, proving it with `bench`'s verification handle read
/// from the environment; any connection it is handed it answers
/// `hijacked`.
struct Hijacker;

impl asbestos_kernel::EpService for Hijacker {
    fn on_base_start(&mut self, sys: &mut asbestos_kernel::Sys<'_>) {
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top()).unwrap();
        sys.publish_env("okws.worker.evil.port", Value::Handle(port));
    }

    fn on_event(&self, sys: &mut asbestos_kernel::Sys<'_>, msg: &asbestos_kernel::Message) {
        let env = |sys: &asbestos_kernel::Sys<'_>, key| sys.env(key).unwrap().as_handle().unwrap();
        match OkwsMsg::from_value(&msg.body) {
            Some(OkwsMsg::Activate { .. }) => {
                let (demux, port) = (
                    env(sys, "okws.demux.reg"),
                    env(sys, "okws.worker.evil.port"),
                );
                let wv_bench = env(sys, "okws.svc.bench.verify");
                let v = Label::from_pairs(Level::L3, &[(wv_bench, Level::L0)]);
                let forged = OkwsMsg::Register {
                    service: "bench".into(),
                    port,
                };
                let args = asbestos_kernel::SendArgs::new().verify(v);
                let _ = sys.send_args(demux, forged.to_value(), &args);
            }
            Some(OkwsMsg::ConnHandoff { conn, .. }) => {
                let response = asbestos_net::http::ok_response(b"hijacked");
                let _ = sys.send(conn, NetMsg::Write { bytes: response }.to_value());
                let _ = sys.send(conn, NetMsg::Close.to_value());
            }
            _ => return,
        }
        let _ = sys.ep_exit();
    }
}

/// §7.1: a worker proves itself to ok-demux with `V(wv) = 0` on its own
/// process-specific verification handle, so it must hold no other. A
/// worker listed after `bench` forges `bench`'s registration; bob's
/// `/bench` request must still reach `bench`.
#[test]
fn a_worker_cannot_register_as_another_service() {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    config
        .services
        .push(ServiceSpec::raw("evil", || Box::new(Hijacker)));
    config.users.push(("bob".into(), "pw-b".into()));
    let (mut kernel, okws) = Okws::deploy(215, config);
    let mut client = OkwsClient::new(&okws);
    let (status, body) = client
        .request_sync(&mut kernel, "bench", "bob", "pw-b", &[])
        .expect("bob got no response");
    assert_eq!(status, 200);
    let body = String::from_utf8_lossy(&body);
    assert_eq!(body, "x".repeat(11), "bench was hijacked");
}

/// ok-demux's fast path admits only the password idd confirmed: once
/// alice is logged in, a request as alice with another password goes to
/// idd and is refused, and the right one still reaches her cached
/// session.
#[test]
fn a_wrong_password_never_reaches_a_live_session() {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config.users.push(("alice".into(), "pw-a".into()));
    let (mut kernel, okws) = Okws::deploy(216, config);
    let mut client = OkwsClient::new(&okws);
    let (status, _) = client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "pw-a",
            &[("data", "alice-secret")],
        )
        .expect("alice got no response");
    assert_eq!(status, 200);
    let worker = kernel.find_process("worker-store").unwrap();
    let session = kernel.live_eps(worker);
    assert_eq!(session.len(), 1);

    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "wrong", &[])
        .expect("the wrong password got no response");
    assert_eq!(status, 403, "a wrong password was admitted");
    assert!(
        !String::from_utf8_lossy(&body).contains("alice-secret"),
        "a wrong password read alice's data"
    );

    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[])
        .expect("alice got no second response");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"alice-secret"));
    assert_eq!(
        kernel.live_eps(worker),
        session,
        "the same event process serves alice"
    );
}

/// A message on a worker's public port that is neither a connection
/// handoff nor an activation forks an event process that exits at once:
/// 100 stray values from an unprivileged process leave no event process
/// and no kernel memory behind.
#[test]
fn stray_messages_leave_no_event_process_behind() {
    let (mut kernel, _okws, mut client) = store_deployment(217, &[("alice", "pw-a")]);
    client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[("data", "x")])
        .unwrap();
    kernel.spawn(
        "stray",
        Category::Other,
        service_with_start(
            |sys| {
                let go = sys.new_port(Label::top());
                sys.set_port_label(go, Label::top()).unwrap();
                sys.publish_env("stray.go", Value::Handle(go));
            },
            |sys, _| {
                let port = sys
                    .env("okws.worker.store.port")
                    .and_then(|v| v.as_handle())
                    .unwrap();
                for i in 0..100 {
                    let _ = sys.send(port, Value::U64(i));
                }
            },
        ),
    );
    kernel.run();
    let worker = kernel.find_process("worker-store").unwrap();
    assert_eq!(kernel.live_eps(worker).len(), 1);
    let kmem = kernel.kmem_report().total_bytes();

    let go = kernel.global_env_handle("stray.go").unwrap();
    let delivered = kernel.stats().delivered;
    kernel.inject(go, Value::Unit);
    kernel.run();
    assert!(
        kernel.stats().delivered > delivered + 100,
        "the stray values reached the worker"
    );
    assert_eq!(
        kernel.live_eps(worker).len(),
        1,
        "a stray value left an event process"
    );
    assert_eq!(kernel.kmem_report().total_bytes(), kmem);
}

/// A user name longer than the worker's session record holds is refused
/// at the edge: ok-demux answers 400 before it asks idd, and no event
/// process is left behind. A name of exactly the record's length logs in,
/// logs out (its event process exits) and is served again.
#[test]
fn user_names_longer_than_the_session_record_are_refused() {
    let at_limit = "a".repeat(64);
    let over = ["b".repeat(65), "c".repeat(70)];
    let mut users = vec![(at_limit.as_str(), "pw")];
    users.extend(over.iter().map(|u| (u.as_str(), "pw")));
    let (mut kernel, _okws, mut client) = store_deployment(218, &users);
    let worker = kernel.find_process("worker-store").unwrap();
    for user in &over {
        let (status, _) = client
            .request_sync(&mut kernel, "store", user, "pw", &[("data", "x")])
            .unwrap_or_else(|| panic!("{}-byte user got no response", user.len()));
        assert_eq!(status, 400, "{}-byte user", user.len());
        assert!(
            kernel.live_eps(worker).is_empty(),
            "{}-byte user left an event process",
            user.len()
        );
    }

    let (status, _) = client
        .request_sync(&mut kernel, "store", &at_limit, "pw", &[("data", "x")])
        .expect("64-byte user gets a response");
    assert_eq!(status, 200);
    assert_eq!(kernel.live_eps(worker).len(), 1);
    let (status, body) = client
        .request_sync(&mut kernel, "store", &at_limit, "pw", &[("logout", "1")])
        .expect("64-byte user's logout gets a response");
    assert_eq!((status, body.as_slice()), (200, &b"goodbye"[..]));
    assert!(
        kernel.live_eps(worker).is_empty(),
        "logout ended the 64-byte user's session"
    );
    let (status, _) = client
        .request_sync(&mut kernel, "store", &at_limit, "pw", &[])
        .expect("64-byte user is served after logout");
    assert_eq!(status, 200);
}

/// ok-dbproxy's admin port admits by its label: a worker that publishes
/// its own port as the admin port,
/// then sends the real one a `Bind` and an `Exec`, receives nothing, and
/// alice's first login is answered.
#[test]
fn a_worker_cannot_become_a_binding_party() {
    let loot = Rc::new(Loot::default());
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config.services.push(BindingSquatter::spec(&loot));
    config.users.push(("alice".into(), "pw-a".into()));
    let (mut kernel, okws) = Okws::deploy(219, config);
    let mut client = OkwsClient::new(&okws);
    let (status, _) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[("data", "a")])
        .expect("alice got no response");
    assert_eq!(status, 200);
    assert_eq!(*loot.received.borrow(), [""; 0]);
}

/// OKWS's trusted processes read the environment only at start, so no
/// worker can rewire them. Two compromised workers, one listed before
/// `store` and one after, overwrite every key a trusted process reads,
/// in their base start and again on activation (see [`Rewirer`]).
/// Alice's two requests are answered, the second with her first data,
/// and each attacker receives nothing but its own `Activate`.
#[test]
fn no_worker_can_rewire_a_trusted_process() {
    let loot = Rc::new(Loot::default());
    let mut config = OkwsConfig::new(80);
    config.services.push(Rewirer::spec("evil-a", &loot));
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config.services.push(Rewirer::spec("evil-z", &loot));
    config.users.push(("alice".into(), "pw-a".into()));
    let (mut kernel, okws) = Okws::deploy(220, config);
    let mut client = OkwsClient::new(&okws);
    let data = [("data", "alice-1")];
    let (status, _) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &data)
        .expect("alice got no response");
    assert_eq!(status, 200);
    let (status, body) = client
        .request_sync(&mut kernel, "store", "alice", "pw-a", &[])
        .expect("alice got no second response");
    assert_eq!(status, 200);
    assert!(body.starts_with(b"alice-1"));
    assert_eq!(*loot.received.borrow(), [""; 0]);
}

/// Workers read four environment keys — ok-demux's registration and
/// control ports, ok-dbproxy's `db.port` and idd's login port — and any
/// worker may overwrite any key. A squatter listed before the victim
/// service overwrites one key per run on activation, first with `Unit`,
/// then with its own port (see [`KeySquatter`]). Nothing panics, and the
/// squatter learns nothing of alice's: a session is contaminated with her
/// `uT 3` at handoff, so the labels drop every session send to the
/// squatter's port, and the squatter never holds `⋆` on a handle idd
/// minted. What the squatter takes is availability. A key that names no
/// port gets alice a 503. The one misdirected message is the victim's
/// untainted activation `Register`, sent when the squatter owns
/// `okws.demux.reg`: the victim never registers, and ok-demux answers
/// alice 503. A session whose ok-dbproxy or idd call goes to the
/// squatter's port waits for a reply that never comes — the kernel tells
/// no sender of a drop (§4) — so alice gets no answer at all.
#[test]
fn worker_read_keys_cost_only_availability() {
    let cases = [
        (
            "okws.demux.reg",
            "store",
            &[("data", "alice-secret")],
            [Some(503), Some(503)],
        ),
        (
            "okws.demux.port",
            "store",
            &[("data", "alice-secret")],
            [Some(503), Some(200)],
        ),
        (
            "db.port",
            "profile",
            &[("set", "alice-secret")],
            [Some(503), None],
        ),
        (
            "okws.idd.port",
            "passwd",
            &[("new", "alice-secret")],
            [Some(503), None],
        ),
    ];
    for (key, service, params, answers) in cases {
        for (own_port, answer) in [false, true].into_iter().zip(answers) {
            let at = format!("{key} <- {}", if own_port { "its port" } else { "Unit" });
            let loot = Rc::new(Loot::default());
            let mut config = OkwsConfig::new(80);
            config
                .services
                .push(KeySquatter::spec(key, own_port, &loot));
            config.services.push(match service {
                "store" => ServiceSpec::new("store", || Box::new(EchoStore::new())),
                "profile" => ServiceSpec::new("profile", || Box::new(Profile)),
                _ => ServiceSpec::new("passwd", || Box::new(Passwd)),
            });
            config.worker_tables.push(Profile::TABLE_DDL.to_string());
            config.users.push(("alice".into(), "pw-a".into()));
            let (mut kernel, okws) = Okws::deploy(221, config);
            let mut client = OkwsClient::new(&okws);
            let served = client.request_sync(&mut kernel, service, "alice", "pw-a", params);
            assert_eq!(
                served.map(|(status, _)| status),
                answer,
                "{at}: alice's answer"
            );

            let received = loot.received.borrow();
            let register = received.first().cloned().unwrap_or_default();
            match (key, own_port) {
                ("okws.demux.reg", true) => {
                    assert_eq!(received.len(), 1, "{at}: {received:?}");
                    assert!(register.contains(r#"Str("register")"#), "{at}: {register}");
                }
                _ => assert_eq!(*received, [""; 0], "{at}"),
            }
            let squat = kernel.find_process("worker-squat").unwrap();
            let label = &kernel.process(squat).send_label;
            for h in Okws::idd_star_handles(&kernel) {
                let level = label.get(asbestos_kernel::Handle::from_raw(h));
                assert_ne!(
                    level,
                    Level::Star,
                    "{at}: the squatter holds one of idd's handles"
                );
            }
            assert!(kernel.live_eps(squat).is_empty(), "{at}");
        }
    }
}

/// `OkwsConfig::lanes`, `NetdHandle::lanes` and
/// `ClientDriver::lane_accepts` are inert stubs kept for the benchmark
/// harness: asking for 4 netd lanes deploys exactly what asking for 1
/// does — the same processes and environment handles, the same counters
/// and response bytes after 32 requests — behind one netd, whose one
/// accept counter counts every connection opened.
#[test]
fn the_netd_lane_stubs_do_nothing() {
    let keys = [
        asbestos_net::NETD_CONTROL_ENV.to_string(),
        asbestos_net::NETD_DEVICE_ENV.to_string(),
        asbestos_okws::demux::DEMUX_REG_ENV.to_string(),
        asbestos_okws::demux::DEMUX_PORT_ENV.to_string(),
        asbestos_okws::idd::IDD_PORT_ENV.to_string(),
        asbestos_db::DB_PORT_ENV.to_string(),
        asbestos_okws::worker::worker_port_env("bench"),
    ];
    let names = [
        "netd",
        "worker-bench",
        "launcher",
        "ok-dbproxy",
        "idd",
        "ok-demux",
    ];
    let deploy = |lanes: usize| {
        let mut config = OkwsConfig::new(80).lanes(lanes);
        config
            .services
            .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
        config.users = (0..8).map(|u| (format!("u{u}"), format!("p{u}"))).collect();
        let (mut kernel, okws) = Okws::deploy(0x1A4E, config);
        let processes = (
            kernel.process_count(),
            names.map(|name| kernel.find_process(name)),
        );
        let env: Vec<_> = keys.iter().map(|k| kernel.global_env_handle(k)).collect();
        let mut client = OkwsClient::new(&okws);
        let responses: Vec<_> = (0..32)
            .map(|i| {
                let (user, pw) = (format!("u{}", i % 8), format!("p{}", i % 8));
                let len = (i * 7).to_string();
                client.request_sync(&mut kernel, "bench", &user, &pw, &[("len", &len)])
            })
            .collect();
        assert_eq!(okws.netd.lanes.len(), 1, "{lanes} lanes");
        assert_eq!(
            client.driver.lane_accepts().to_vec(),
            vec![32],
            "{lanes} lanes"
        );
        (processes, env, format!("{:?}", kernel.stats()), responses)
    };
    let one = deploy(1);
    assert!(one.1.iter().all(Option::is_some), "{:?}", one.1);
    assert!(one.3.iter().all(|r| r.as_ref().is_some_and(|r| r.0 == 200)));
    assert_eq!(deploy(4), one);
}
