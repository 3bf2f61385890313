//! ok-dbproxy policy tests: the §7.5 write gate and per-row taint, plus the
//! §7.6 decentralized declassification flow, all through real processes.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_db::{spawn_dbproxy, DbMsg, DbProxy, DB_PORT_ENV, DB_TRUSTED_ENV};
use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, DeliveryOutcome, Handle, Kernel, Label, Level, SendArgs, Value};
use asbestos_store::MemDev;

/// Spawns the trusted identity party (idd's role in this crate's tests):
/// receives the proxy's admin-port grant, binds users, and issues worker
/// credentials on command.
fn spawn_trusted(kernel: &mut Kernel) {
    kernel.spawn(
        "trusted",
        Category::Okdb,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                // Publish directly under the env key the proxy reads.
                sys.publish_env(DB_TRUSTED_ENV, Value::Handle(p));
                sys.publish_env("trusted.cmd", Value::Handle(p));
            },
            move |sys, msg| {
                if let Some(DbMsg::AdminPort { port }) = DbMsg::from_value(&msg.body) {
                    sys.set_env("admin", Value::Handle(port));
                    return;
                }
                let Some(items) = msg.body.as_list() else {
                    return;
                };
                match items.first().and_then(Value::as_str) {
                    Some("ddl") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let admin = sys.env("admin").unwrap().as_handle().unwrap();
                        sys.send(admin, DbMsg::Ddl { sql }.to_value()).unwrap();
                    }
                    Some("bind") => {
                        // ["bind", user, worker_cmd]: mint handles, register
                        // them with the proxy, and give the worker the
                        // §7.2 step-6 treatment (uG ⋆, contaminate uT 3).
                        let user = items[1].as_str().unwrap().to_string();
                        let worker_cmd = items[2].as_handle().unwrap();
                        let ut = sys.new_handle();
                        let ug = sys.new_handle();
                        sys.set_env(&format!("ut.{user}"), Value::Handle(ut));
                        sys.set_env(&format!("ug.{user}"), Value::Handle(ug));
                        let admin = sys.env("admin").unwrap().as_handle().unwrap();
                        // §7.5: grant the proxy uT ⋆ with the binding.
                        sys.send_args(
                            admin,
                            DbMsg::Bind {
                                user: user.clone(),
                                taint: ut,
                                grant: ug,
                                reply: None,
                            }
                            .to_value(),
                            &SendArgs::new()
                                .grant(Label::from_pairs(Level::L3, &[(ut, Level::Star)])),
                        )
                        .unwrap();
                        let creds = Value::List(vec![
                            Value::Str("creds".into()),
                            Value::Str(user),
                            Value::Handle(ut),
                            Value::Handle(ug),
                        ]);
                        let args = SendArgs::new()
                            .grant(Label::from_pairs(Level::L3, &[(ug, Level::Star)]))
                            .contaminate(Label::from_pairs(Level::Star, &[(ut, Level::L3)]))
                            .raise_recv(Label::from_pairs(Level::Star, &[(ut, Level::L3)]));
                        sys.send_args(worker_cmd, creds, &args).unwrap();
                    }
                    Some("bind-declassifier") => {
                        // ["bind-declassifier", user, worker_cmd]: §7.6 — a
                        // declassifier for an existing user gets the *same*
                        // handles, but uT at ⋆ instead of contamination.
                        let user = items[1].as_str().unwrap().to_string();
                        let worker_cmd = items[2].as_handle().unwrap();
                        let ut = sys.env(&format!("ut.{user}")).unwrap().as_handle().unwrap();
                        let ug = sys.env(&format!("ug.{user}")).unwrap().as_handle().unwrap();
                        let creds = Value::List(vec![
                            Value::Str("creds".into()),
                            Value::Str(user),
                            Value::Handle(ut),
                            Value::Handle(ug),
                        ]);
                        // Grant ⋆ for both handles and raise the receive
                        // label: holding ⋆ resists contamination but does
                        // not by itself admit tainted messages.
                        let args = SendArgs::new()
                            .grant(Label::from_pairs(
                                Level::L3,
                                &[(ut, Level::Star), (ug, Level::Star)],
                            ))
                            .raise_recv(Label::from_pairs(Level::Star, &[(ut, Level::L3)]));
                        sys.send_args(worker_cmd, creds, &args).unwrap();
                    }
                    _ => {}
                }
            },
        ),
    );
}

/// Spawns a worker process for `user`; returns its command port key and a
/// shared log of database replies it received.
fn spawn_worker(kernel: &mut Kernel, name: &'static str) -> Arc<Mutex<Vec<DbMsg>>> {
    let log = Arc::new(Mutex::new(Vec::new()));
    let log2 = log.clone();
    kernel.spawn(
        name,
        Category::Okws,
        service_with_start(
            move |sys| {
                let cmd = sys.new_port(Label::top());
                sys.set_port_label(cmd, Label::top()).unwrap();
                sys.publish_env(&format!("{name}.cmd"), Value::Handle(cmd));
                let reply = sys.new_port(Label::top());
                sys.set_port_label(reply, Label::top()).unwrap();
                sys.set_env("reply", Value::Handle(reply));
            },
            move |sys, msg| {
                if let Some(db_msg) = DbMsg::from_value(&msg.body) {
                    log2.lock().unwrap().push(db_msg);
                    return;
                }
                let Some(items) = msg.body.as_list() else {
                    return;
                };
                match items.first().and_then(Value::as_str) {
                    Some("creds") => {
                        sys.set_env("user", items[1].clone());
                        sys.set_env("ut", items[2].clone());
                        sys.set_env("ug", items[3].clone());
                    }
                    Some("exec") | Some("exec-noverify") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let user = sys.env("user").unwrap().as_str().unwrap().to_string();
                        let reply = sys.env("reply").unwrap().as_handle().unwrap();
                        let db = sys.env(DB_PORT_ENV).unwrap().as_handle().unwrap();
                        let body = DbMsg::Exec {
                            user,
                            sql,
                            params: vec![],
                            reply: Some(reply),
                        }
                        .to_value();
                        if items[0].as_str() == Some("exec") {
                            let ut = sys.env("ut").unwrap().as_handle().unwrap();
                            let ug = sys.env("ug").unwrap().as_handle().unwrap();
                            // V names the credentials explicitly (§5.4): the
                            // worker's own taint level for uT (3 normally,
                            // ⋆ for declassifiers) and uG 0.
                            let my_ut_level = sys.send_label().get(ut);
                            let v =
                                Label::from_pairs(Level::L2, &[(ut, my_ut_level), (ug, Level::L0)]);
                            sys.send_args(db, body, &SendArgs::new().verify(v)).unwrap();
                        } else {
                            sys.send(db, body).unwrap();
                        }
                    }
                    Some("query") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let reply = sys.env("reply").unwrap().as_handle().unwrap();
                        let db = sys.env(DB_PORT_ENV).unwrap().as_handle().unwrap();
                        sys.send(
                            db,
                            DbMsg::Query {
                                sql,
                                params: vec![],
                                reply,
                            }
                            .to_value(),
                        )
                        .unwrap();
                    }
                    // A worker trying the trusted party's message on the
                    // only proxy port it can reach.
                    Some("send-ddl") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let db = sys.env(DB_PORT_ENV).unwrap().as_handle().unwrap();
                        sys.send(db, DbMsg::Ddl { sql }.to_value()).unwrap();
                    }
                    _ => {}
                }
            },
        ),
    );
    log
}

fn cmd(kernel: &Kernel, name: &str) -> Handle {
    kernel
        .global_env(&format!("{name}.cmd"))
        .unwrap()
        .as_handle()
        .unwrap()
}

/// A worker's observed reply stream.
type MsgLog = Arc<Mutex<Vec<DbMsg>>>;

/// Full environment: trusted party, proxy, two user workers, store table.
fn setup(seed: u64) -> (Kernel, MsgLog, MsgLog) {
    setup_with(seed, DbProxy::new(), "CREATE TABLE store (k, v)")
}

/// [`setup`] over a given proxy and schema script.
fn setup_with(seed: u64, proxy: DbProxy, ddl: &str) -> (Kernel, MsgLog, MsgLog) {
    let mut kernel = Kernel::new(seed);
    spawn_trusted(&mut kernel);
    kernel.spawn("ok-dbproxy", Category::Okdb, Box::new(proxy));
    let alice_log = spawn_worker(&mut kernel, "alice-worker");
    let bob_log = spawn_worker(&mut kernel, "bob-worker");
    kernel.run();
    let trusted = cmd(&kernel, "trusted");
    let alice_cmd = cmd(&kernel, "alice-worker");
    let bob_cmd = cmd(&kernel, "bob-worker");
    kernel.inject(trusted, Value::List(vec!["ddl".into(), ddl.into()]));
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind".into(),
            "alice".into(),
            Value::Handle(alice_cmd),
        ]),
    );
    kernel.inject(
        trusted,
        Value::List(vec!["bind".into(), "bob".into(), Value::Handle(bob_cmd)]),
    );
    kernel.run();
    (kernel, alice_log, bob_log)
}

fn exec(kernel: &mut Kernel, worker: &str, sql: &str) {
    let c = cmd(kernel, worker);
    kernel.inject(c, Value::List(vec!["exec".into(), sql.into()]));
    kernel.run();
}

fn query(kernel: &mut Kernel, worker: &str, sql: &str) {
    let c = cmd(kernel, worker);
    kernel.inject(c, Value::List(vec!["query".into(), sql.into()]));
    kernel.run();
}

#[test]
fn verified_writes_land_with_owner_id() {
    let (mut kernel, alice_log, _bob) = setup(61);
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('color', 'red')",
    );
    assert_eq!(
        alice_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 1
        })
    );
    // Read back: one tainted row plus the untainted Done.
    alice_log.lock().unwrap().clear();
    query(&mut kernel, "alice-worker", "SELECT k, v FROM store");
    let log = alice_log.lock().unwrap();
    assert_eq!(
        *log,
        vec![
            DbMsg::Row {
                values: vec!["color".into(), "red".into()]
            },
            DbMsg::Done,
        ]
    );
}

#[test]
fn unverified_writes_are_refused() {
    let (mut kernel, alice_log, _bob) = setup(62);
    let c = cmd(&kernel, "alice-worker");
    kernel.inject(
        c,
        Value::List(vec![
            "exec-noverify".into(),
            "INSERT INTO store VALUES ('k', 'v')".into(),
        ]),
    );
    kernel.run();
    assert_eq!(
        alice_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: false,
            affected: 0
        })
    );
    // Nothing landed.
    alice_log.lock().unwrap().clear();
    query(&mut kernel, "alice-worker", "SELECT k FROM store");
    assert_eq!(*alice_log.lock().unwrap(), vec![DbMsg::Done]);
}

#[test]
fn user_id_column_is_unreachable() {
    let (mut kernel, alice_log, _bob) = setup(63);
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('c', 'red')",
    );
    alice_log.lock().unwrap().clear();
    // Neither writes nor reads may mention the hidden column (§7.5: "The
    // workers themselves cannot access or change this column").
    exec(
        &mut kernel,
        "alice-worker",
        "UPDATE store SET user_id = 0 WHERE k = 'c'",
    );
    assert_eq!(
        alice_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: false,
            affected: 0
        })
    );
    alice_log.lock().unwrap().clear();
    query(&mut kernel, "alice-worker", "SELECT user_id FROM store");
    assert_eq!(
        *alice_log.lock().unwrap(),
        vec![DbMsg::Done],
        "projection refused"
    );
    alice_log.lock().unwrap().clear();
    query(
        &mut kernel,
        "alice-worker",
        "SELECT k FROM store WHERE user_id = 0",
    );
    assert_eq!(
        *alice_log.lock().unwrap(),
        vec![DbMsg::Done],
        "filter refused"
    );
}

#[test]
fn rows_are_isolated_between_users() {
    let (mut kernel, alice_log, bob_log) = setup(64);
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('color', 'red')",
    );
    exec(
        &mut kernel,
        "bob-worker",
        "INSERT INTO store VALUES ('color', 'blue')",
    );

    // Alice's SELECT matches both rows; the proxy sends both, each tainted
    // by its owner; the kernel drops bob's row at alice's door.
    alice_log.lock().unwrap().clear();
    let drops_before = kernel.stats().dropped_label_check;
    query(
        &mut kernel,
        "alice-worker",
        "SELECT v FROM store WHERE k = 'color'",
    );
    assert_eq!(
        *alice_log.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
    assert_eq!(
        kernel.stats().dropped_label_check,
        drops_before + 1,
        "bob's row was sent and dropped"
    );

    // Bob sees only his.
    bob_log.lock().unwrap().clear();
    query(
        &mut kernel,
        "bob-worker",
        "SELECT v FROM store WHERE k = 'color'",
    );
    assert_eq!(
        *bob_log.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["blue".into()]
            },
            DbMsg::Done
        ]
    );
}

#[test]
fn writes_cannot_touch_other_users_rows() {
    let (mut kernel, alice_log, bob_log) = setup(65);
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('color', 'red')",
    );
    // Bob's malicious broad UPDATE and DELETE are silently scoped to bob's
    // (empty) row set by the owner guard.
    bob_log.lock().unwrap().clear();
    exec(
        &mut kernel,
        "bob-worker",
        "UPDATE store SET v = 'hacked' WHERE k = 'color'",
    );
    assert_eq!(
        bob_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 0
        })
    );
    exec(&mut kernel, "bob-worker", "DELETE FROM store");
    assert_eq!(
        bob_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 0
        })
    );
    // Alice's row is intact.
    alice_log.lock().unwrap().clear();
    query(&mut kernel, "alice-worker", "SELECT v FROM store");
    assert_eq!(
        *alice_log.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
}

/// The live proxy's state: its database (schema, indexes, rows) as
/// snapshot bytes.
fn proxy_snapshot(kernel: &Kernel) -> Vec<u8> {
    let pid = kernel.find_process("ok-dbproxy").unwrap();
    kernel
        .service_as::<DbProxy>(pid)
        .expect("downcast proxy")
        .snapshot()
}

#[test]
fn a_worker_sends_exactly_one_statement() {
    // Schema scripts are for the trusted DDL path. On the worker port a
    // second statement — data or schema — refuses the whole message, and
    // nothing reaches the engine or the redo log.
    let dev = MemDev::new();
    let (mut kernel, alice_log, _bob) = setup_with(
        69,
        DbProxy::with_store(Box::new(dev.clone())),
        "CREATE TABLE store (k, v); CREATE INDEX ON store (k)",
    );
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('color', 'red')",
    );
    let state = |kernel: &Kernel| (proxy_snapshot(kernel), dev.dump("wal.00000000"));
    let before = state(&kernel);
    let indexes = |snapshot: &[u8]| -> Vec<usize> {
        let db = asbestos_db::restore(snapshot).unwrap();
        db.table("store").unwrap().indexed_columns().collect()
    };
    assert_eq!(indexes(&before.0), vec![0, 1], "user_id and k");

    for sql in [
        "INSERT INTO store VALUES ('a', 'b'); DELETE FROM store",
        "UPDATE store SET v = 'x'; CREATE INDEX ON store (v)",
        "DELETE FROM store; DELETE FROM store",
    ] {
        alice_log.lock().unwrap().clear();
        exec(&mut kernel, "alice-worker", sql);
        assert_eq!(
            *alice_log.lock().unwrap(),
            vec![DbMsg::ExecR {
                ok: false,
                affected: 0
            }],
            "{sql}"
        );
    }
    for sql in [
        "SELECT k FROM store; DELETE FROM store",
        "SELECT k FROM store; CREATE INDEX ON store (v)",
    ] {
        alice_log.lock().unwrap().clear();
        query(&mut kernel, "alice-worker", sql);
        assert_eq!(*alice_log.lock().unwrap(), vec![DbMsg::Done], "{sql}");
    }
    // The DDL message itself is ignored outright on the worker port.
    alice_log.lock().unwrap().clear();
    for sql in ["CREATE INDEX ON store (v)", "CREATE TABLE loot (x)"] {
        let c = cmd(&kernel, "alice-worker");
        kernel.inject(c, Value::List(vec!["send-ddl".into(), sql.into()]));
        kernel.run();
    }
    assert!(alice_log.lock().unwrap().is_empty());

    assert!(
        state(&kernel) == before,
        "rows, schema, index set and redo log all unchanged"
    );
}

/// Runs one worker query a delivery at a time and returns what the kernel
/// did with each message, in order.
fn query_stepwise(kernel: &mut Kernel, worker: &str, sql: &str) -> Vec<DeliveryOutcome> {
    let c = cmd(kernel, worker);
    kernel.inject(c, Value::List(vec!["query".into(), sql.into()]));
    let mut outcomes = Vec::new();
    loop {
        match kernel.step_outcome() {
            DeliveryOutcome::Idle => return outcomes,
            outcome => outcomes.push(outcome),
        }
    }
}

#[test]
fn an_index_narrows_what_is_examined_never_what_is_tainted() {
    // §7.5: every matching row goes out as its own message tainted with
    // its owner's handle, and the kernel decides who sees it. Two users
    // write rows with the same `owner` text; with and without an index on
    // that column the proxy must send the same Row messages, in the same
    // order, under the same labels — observed as the kernel's verdict on
    // each message at each user's door.
    const GET: &str = "SELECT owner, bio FROM profiles WHERE owner = 'shared'";
    let run = |ddl: &str| {
        let (mut kernel, alice_log, bob_log) = setup_with(70, DbProxy::new(), ddl);
        for round in 0..3 {
            for (worker, who) in [("alice-worker", "a"), ("bob-worker", "b")] {
                for owner in ["shared", who] {
                    let sql = format!("INSERT INTO profiles VALUES ('{owner}', '{who}{round}')");
                    exec(&mut kernel, worker, &sql);
                }
            }
        }
        // Rewriting the indexed column moves a row between posting lists;
        // it must keep its place in the result order.
        exec(
            &mut kernel,
            "alice-worker",
            "UPDATE profiles SET owner = 'shared' WHERE bio = 'a1'",
        );
        for log in [&alice_log, &bob_log] {
            log.lock().unwrap().clear();
        }
        let before = (kernel.stats(), kernel.now());
        let verdicts = [
            query_stepwise(&mut kernel, "alice-worker", GET),
            query_stepwise(&mut kernel, "bob-worker", GET),
        ];
        let stats = kernel.stats();
        let dropped = stats.dropped_label_check - before.0.dropped_label_check;
        let counts = (
            stats.sent - before.0.sent,
            stats.delivered - before.0.delivered,
            dropped,
        );
        let cycles = kernel.now() - before.1;
        let alice = alice_log.lock().unwrap().clone();
        let bob = bob_log.lock().unwrap().clone();
        // Everything that must not depend on the index, then what may.
        ((verdicts, counts, alice, bob), dropped, cycles)
    };
    let (scan, scan_dropped, scan_cycles) = run("CREATE TABLE profiles (owner, bio)");
    let (probe, _, probe_cycles) =
        run("CREATE TABLE profiles (owner, bio); CREATE INDEX ON profiles (owner)");

    let row = |bio: &str| DbMsg::Row {
        values: vec!["shared".into(), bio.into()],
    };
    // Each worker receives its own rows only, in insertion order — alice's
    // `a1` row (slot 4) and the one she renamed to `shared` (slot 5) included.
    assert_eq!(
        scan.2,
        vec![row("a0"), row("a1"), row("a1"), row("a2"), DbMsg::Done]
    );
    assert_eq!(scan.3, vec![row("b0"), row("b1"), row("b2"), DbMsg::Done]);
    // Seven rows match: each door drops the other user's.
    assert_eq!(scan_dropped, 3 + 4);
    assert!(
        probe == scan,
        "same verdict on every message in order, same sent / delivered / \
         dropped counts, same rows at each worker:\n{probe:?}\n{scan:?}"
    );
    assert!(
        probe_cycles < scan_cycles,
        "only the examined-row charge differs: {probe_cycles} vs {scan_cycles}"
    );
}

#[test]
fn policy_persists_across_reboot() {
    // §7.5: "OKWS can extend its label-based security policy to one that
    // persists across system reboots." Rows (with the hidden ownership
    // column) survive via snapshot; handles are re-minted after the reboot
    // and re-binding reconnects rows to owners.
    let (mut kernel, alice_log, _bob) = setup(67);
    exec(
        &mut kernel,
        "alice-worker",
        "INSERT INTO store VALUES ('color', 'red')",
    );
    exec(
        &mut kernel,
        "bob-worker",
        "INSERT INTO store VALUES ('color', 'blue')",
    );

    // Take the snapshot through god-mode inspection of the proxy.
    let snapshot = proxy_snapshot(&kernel);

    // "Reboot": a fresh kernel; the proxy boots from the snapshot. The
    // trusted party re-binds users in the same order, so alice gets uid 1
    // again and her rows reconnect to her fresh taint handle.
    let mut kernel = Kernel::new(68);
    spawn_trusted(&mut kernel);
    let restored = asbestos_db::restore(&snapshot).expect("snapshot readable");
    kernel.spawn(
        "ok-dbproxy",
        Category::Okdb,
        Box::new(asbestos_db::DbProxy::with_database(restored)),
    );
    let alice_log2 = spawn_worker(&mut kernel, "alice-worker");
    let bob_log2 = spawn_worker(&mut kernel, "bob-worker");
    kernel.run();
    let trusted = cmd(&kernel, "trusted");
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind".into(),
            "alice".into(),
            Value::Handle(cmd(&kernel, "alice-worker")),
        ]),
    );
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind".into(),
            "bob".into(),
            Value::Handle(cmd(&kernel, "bob-worker")),
        ]),
    );
    kernel.run();

    // Alice sees her pre-reboot row — and only hers.
    query(
        &mut kernel,
        "alice-worker",
        "SELECT v FROM store WHERE k = 'color'",
    );
    assert_eq!(
        *alice_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
    bob_log2.lock().unwrap().clear();
    query(
        &mut kernel,
        "bob-worker",
        "SELECT v FROM store WHERE k = 'color'",
    );
    assert_eq!(
        *bob_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["blue".into()]
            },
            DbMsg::Done
        ]
    );
    drop(alice_log);
}

#[test]
fn declassified_rows_are_public_and_untainted() {
    // §7.6: a declassifier for alice (holding uT ⋆) publishes her profile;
    // bob can then read it without label interference.
    let mut kernel = Kernel::new(66);
    spawn_trusted(&mut kernel);
    spawn_dbproxy(&mut kernel);
    let _alice_log = spawn_worker(&mut kernel, "alice-worker");
    let bob_log = spawn_worker(&mut kernel, "bob-worker");
    let decl_log = spawn_worker(&mut kernel, "alice-declassifier");
    kernel.run();
    let trusted = cmd(&kernel, "trusted");
    kernel.inject(
        trusted,
        Value::List(vec![
            "ddl".into(),
            "CREATE TABLE profiles (name, bio)".into(),
        ]),
    );
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind".into(),
            "alice".into(),
            Value::Handle(cmd(&kernel, "alice-worker")),
        ]),
    );
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind".into(),
            "bob".into(),
            Value::Handle(cmd(&kernel, "bob-worker")),
        ]),
    );
    kernel.run();
    // The declassifier gets alice's handles at ⋆ (declassifier = true).
    // Bind alice's identity again for the declassifier? No — §7.6: the
    // declassifier is a worker for the *same* user. Rebinding would mint
    // new handles, so instead route the same credentials: bind once more
    // with the declassifier flag for the same username is wrong; instead
    // the trusted party sends declassifier creds directly.
    kernel.inject(
        trusted,
        Value::List(vec![
            "bind-declassifier".into(),
            "alice".into(),
            Value::Handle(cmd(&kernel, "alice-declassifier")),
        ]),
    );
    kernel.run();

    // The declassifier publishes alice's bio with V(uT) = ⋆.
    exec(
        &mut kernel,
        "alice-declassifier",
        "INSERT INTO profiles VALUES ('alice', 'public bio')",
    );
    assert_eq!(
        decl_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 1
        })
    );

    // Bob reads it: untainted row, no drops.
    bob_log.lock().unwrap().clear();
    let drops_before = kernel.stats().dropped_label_check;
    query(
        &mut kernel,
        "bob-worker",
        "SELECT bio FROM profiles WHERE name = 'alice'",
    );
    assert_eq!(
        *bob_log.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["public bio".into()]
            },
            DbMsg::Done
        ]
    );
    assert_eq!(kernel.stats().dropped_label_check, drops_before);
    // And bob's own label is unchanged by reading public data.
    let bob = kernel.find_process("bob-worker").unwrap();
    let bob_send = kernel.process(bob).send_label.clone();
    assert!(bob_send.entry_count() as i64 > 0); // has own taint entries
}
