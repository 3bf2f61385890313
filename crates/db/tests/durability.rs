//! Durability policy tests: crash-at-every-offset recovery at the
//! database layer, stale-handle rejection after reboot, and the
//! recovery covert-channel regression.
//!
//! `ASBESTOS_CRASH_SWEEP_SEED` reseeds the randomized batch shapes, as
//! in `asbestos-store`'s sweeps.

use std::sync::Arc;
use std::sync::Mutex;

use asbestos_db::{DbMsg, DbProxy, DurableDb, SqlValue, DB_PORT_ENV, DB_TRUSTED_ENV};
use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, CostModel, Handle, Kernel, Label, Level, SendArgs, Value};
use asbestos_store::MemDev;

fn sweep_seed() -> u64 {
    std::env::var("ASBESTOS_CRASH_SWEEP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xD0_D6E5)
}

// ---------------------------------------------------------------------
// Crash sweep at the database layer.
// ---------------------------------------------------------------------

/// The tentpole acceptance property, at statement granularity: tear the
/// WAL at **every byte offset** and the recovered database must equal
/// the state after some whole number of committed batches — never a
/// fractional batch, never a row from an unacknowledged statement.
#[test]
fn crash_at_every_record_boundary_recovers_a_committed_prefix() {
    let mut seed = sweep_seed();
    let dev = MemDev::new();
    let mut db = DurableDb::open(Box::new(dev.clone()));
    db.set_group_commit(usize::MAX); // explicit flush = batch boundary

    // `prefix_states[k]` = snapshot after k committed batches (batch 1
    // is the DDL); `boundaries[k]` = WAL length at that point.
    let mut prefix_states = vec![asbestos_db::snapshot(&asbestos_db::Database::new())];
    let mut boundaries = vec![0usize];
    db.apply_ddl("CREATE TABLE notes (author, body)");
    db.flush();
    prefix_states.push(db.snapshot_bytes());
    boundaries.push(dev.dump("wal.00000000").len());
    for batch in 0..10 {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(batch);
        let n = 1 + (seed >> 33) % 4;
        for i in 0..n {
            db.worker_exec(
                "INSERT INTO notes VALUES (?, ?)",
                &[
                    SqlValue::Text(format!("author-{batch}")),
                    SqlValue::Int(i as i64),
                ],
                (batch % 3) as i64 + 1,
            )
            .expect("worker write accepted");
        }
        db.flush();
        prefix_states.push(db.snapshot_bytes());
        boundaries.push(dev.dump("wal.00000000").len());
    }

    let wal = dev.dump("wal.00000000");
    for cut in 0..=wal.len() {
        let torn = dev.fork();
        torn.truncate_object("wal.00000000", cut);
        let recovered = DurableDb::open(Box::new(torn));
        // Largest committed batch count whose commit marker fits the cut.
        let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            recovered.snapshot_bytes(),
            prefix_states[expect],
            "cut at byte {cut}: expected exactly {expect} committed batches"
        );
        assert_eq!(recovered.recovery().skipped, 0, "cut at byte {cut}");
    }
}

/// An index survives everything a row survives: declared once, it is
/// there after the WAL was folded into a snapshot, the machine crashed,
/// and the device was reopened — and statements probe it.
#[test]
fn indexes_survive_compaction_and_crash() {
    let dev = MemDev::new();
    let mut db = DurableDb::open(Box::new(dev.clone()));
    db.set_compact_threshold(512);
    assert!(db.apply_ddl("CREATE TABLE profiles (owner, bio); CREATE INDEX ON profiles (owner)"));
    for i in 0..60i64 {
        db.worker_exec(
            "INSERT INTO profiles VALUES (?, ?)",
            &[SqlValue::Text(format!("u{}", i % 3)), SqlValue::Int(i)],
            i % 3 + 1,
        )
        .expect("worker write accepted");
    }
    db.flush();
    let live = db.snapshot_bytes();
    drop(db);
    dev.crash(0);

    let mut db = DurableDb::open(Box::new(dev.clone()));
    assert!(db.recovery().from_snapshot, "the threshold was crossed");
    let profiles = db.engine().table("profiles").unwrap();
    assert_eq!(profiles.len(), 60);
    assert!(profiles.index(0).is_some(), "hidden user_id index");
    assert!(profiles.index(1).is_some(), "declared owner index");
    assert_eq!(db.snapshot_bytes(), live, "recovery is state-identical");
    // The owner guard ok-dbproxy appends probes the user_id index: the
    // write examines the rows this user owns, not the table.
    let (affected, work) = db
        .worker_exec("UPDATE profiles SET bio = 'x'", &[], 2)
        .unwrap();
    assert_eq!((affected, work), (20, 20));
    let read = db
        .engine_mut()
        .run("SELECT bio FROM profiles WHERE owner = 'u0'")
        .unwrap();
    assert_eq!((read.rows.len(), read.work), (20, 20));

    // Re-declaring the recovered schema changes nothing and logs nothing.
    db.flush();
    let wal = |dev: &MemDev| -> Vec<Vec<u8>> {
        use asbestos_store::BlockDev;
        let names = dev.list().into_iter().filter(|n| n.starts_with("wal."));
        names.map(|n| dev.dump(&n)).collect()
    };
    let before = wal(&dev);
    assert!(!db.apply_ddl("CREATE TABLE profiles (owner, bio); CREATE INDEX ON profiles (owner)"));
    assert!(!db.apply_ddl("CREATE INDEX ON profiles (owner);"));
    db.flush();
    assert_eq!(wal(&dev), before);
    // A script with anything but schema in it applies none of it.
    assert!(!db.apply_ddl("CREATE INDEX ON profiles (bio); DELETE FROM profiles"));
    assert!(db.engine().table("profiles").unwrap().index(2).is_none());
    assert!(db.apply_ddl("CREATE INDEX ON profiles (bio)"));
    assert!(wal(&dev) != before);
}

// ---------------------------------------------------------------------
// Kernel-level harness (a compact variant of proxy_policy.rs's).
// ---------------------------------------------------------------------

type MsgLog = Arc<Mutex<Vec<DbMsg>>>;

fn spawn_trusted(kernel: &mut Kernel) {
    kernel.spawn(
        "trusted",
        Category::Okdb,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
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
                    // ["raw-query", sql]: an admin-port Query (the
                    // read-only arm) with arbitrary SQL — the mutation-
                    // smuggling regression drives this.
                    Some("raw-query") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let admin = sys.env("admin").unwrap().as_handle().unwrap();
                        let reply = sys.env("trusted.cmd").unwrap().as_handle().unwrap();
                        sys.send(
                            admin,
                            DbMsg::Query {
                                sql,
                                params: vec![],
                                reply,
                            }
                            .to_value(),
                        )
                        .unwrap();
                    }
                    Some("bind") => {
                        // ["bind", user, worker_cmd]: mint fresh per-boot
                        // handles, register them with the proxy, hand the
                        // worker its credentials (§7.2 step 6).
                        let user = items[1].as_str().unwrap().to_string();
                        let worker_cmd = items[2].as_handle().unwrap();
                        let ut = sys.new_handle();
                        let ug = sys.new_handle();
                        let admin = sys.env("admin").unwrap().as_handle().unwrap();
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
                    _ => {}
                }
            },
        ),
    );
}

fn spawn_worker(kernel: &mut Kernel, name: &'static str) -> MsgLog {
    let log: MsgLog = Arc::new(Mutex::new(Vec::new()));
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
                    // ["exec", sql] — V from stored creds.
                    // ["exec-as", sql, user, ut, ug] — V from explicit
                    // (possibly stale) handle values.
                    Some("exec") | Some("exec-as") => {
                        let sql = items[1].as_str().unwrap().to_string();
                        let (user, ut, ug) = if items[0].as_str() == Some("exec") {
                            (
                                sys.env("user").unwrap().as_str().unwrap().to_string(),
                                sys.env("ut").unwrap().as_handle().unwrap(),
                                sys.env("ug").unwrap().as_handle().unwrap(),
                            )
                        } else {
                            (
                                items[2].as_str().unwrap().to_string(),
                                items[3].as_handle().unwrap(),
                                items[4].as_handle().unwrap(),
                            )
                        };
                        let reply = sys.env("reply").unwrap().as_handle().unwrap();
                        let db = sys.env(DB_PORT_ENV).unwrap().as_handle().unwrap();
                        let my_ut_level = sys.send_label().get(ut);
                        let v = Label::from_pairs(Level::L2, &[(ut, my_ut_level), (ug, Level::L0)]);
                        let _ = sys.send_args(
                            db,
                            DbMsg::Exec {
                                user,
                                sql,
                                params: vec![],
                                reply: Some(reply),
                            }
                            .to_value(),
                            &SendArgs::new().verify(v),
                        );
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

fn inject_list(kernel: &mut Kernel, port: Handle, items: Vec<Value>) {
    kernel.inject(port, Value::List(items));
    kernel.run();
}

/// Boots a kernel (at the given epoch) with trusted party, durable proxy
/// over `dev`, and two workers; binds both users.
fn boot(seed: u64, epoch: u64, dev: &MemDev) -> (Kernel, MsgLog, MsgLog) {
    let mut kernel = Kernel::with_boot_epoch(seed, CostModel::default(), 1, epoch);
    spawn_trusted(&mut kernel);
    kernel.spawn(
        "ok-dbproxy",
        Category::Okdb,
        Box::new(DbProxy::with_store(Box::new(dev.clone()))),
    );
    let alice_log = spawn_worker(&mut kernel, "alice-worker");
    let bob_log = spawn_worker(&mut kernel, "bob-worker");
    kernel.run();
    let trusted = cmd(&kernel, "trusted");
    inject_list(
        &mut kernel,
        trusted,
        vec!["ddl".into(), "CREATE TABLE store (k, v)".into()],
    );
    for (user, worker) in [("alice", "alice-worker"), ("bob", "bob-worker")] {
        let wc = cmd(&kernel, worker);
        inject_list(
            &mut kernel,
            trusted,
            vec!["bind".into(), user.into(), Value::Handle(wc)],
        );
    }
    (kernel, alice_log, bob_log)
}

fn worker_exec(kernel: &mut Kernel, worker: &str, sql: &str) {
    let c = cmd(kernel, worker);
    inject_list(kernel, c, vec!["exec".into(), sql.into()]);
}

fn worker_query(kernel: &mut Kernel, worker: &str, sql: &str) {
    let c = cmd(kernel, worker);
    inject_list(kernel, c, vec!["query".into(), sql.into()]);
}

// ---------------------------------------------------------------------
// Stale handles and the re-bind path.
// ---------------------------------------------------------------------

#[test]
fn stale_pre_reboot_handles_are_rejected_after_recovery() {
    let dev = MemDev::new();

    // Boot 1: alice writes a row; remember her boot-1 handle values.
    let (mut k1, alice_log, _bob) = boot(71, 1, &dev);
    worker_exec(
        &mut k1,
        "alice-worker",
        "INSERT INTO store VALUES ('c', 'red')",
    );
    assert_eq!(
        alice_log.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 1
        })
    );
    let alice_pid = k1.find_process("alice-worker").unwrap();
    let stale: Vec<Handle> = k1
        .process(alice_pid)
        .env
        .iter()
        .filter(|(key, _)| *key == "ut" || *key == "ug")
        .filter_map(|(_, v)| v.as_handle())
        .collect();
    assert_eq!(stale.len(), 2);
    let (stale_ut, stale_ug) = (stale[1], stale[0]); // env is sorted: ug, ut
    drop(k1); // crash: no teardown — acked writes are already durable

    // Boot 2 (fresh epoch): recover, and let MALLORY-as-bob present
    // alice's *stale* boot-1 handles before alice re-binds.
    let (mut k2, alice_log2, bob_log2) = boot(71, 2, &dev);
    let bob_cmd = cmd(&k2, "bob-worker");
    let drops_before = k2.stats().dropped_label_check;
    inject_list(
        &mut k2,
        bob_cmd,
        vec![
            "exec-as".into(),
            "DELETE FROM store".into(),
            "alice".into(),
            Value::Handle(stale_ut),
            Value::Handle(stale_ug),
        ],
    );
    // The claim `V(stale_ug) = 0` requires holding the handle at ⋆;
    // nobody in this boot does, so the kernel drops the message at the
    // proxy's door (discretionary integrity survives the reboot).
    assert!(
        bob_log2.lock().unwrap().is_empty(),
        "stale-credential write must not even reach the proxy"
    );
    assert!(k2.stats().dropped_label_check > drops_before);

    // Alice's fresh boot-2 credentials reconnect to her recovered row.
    worker_query(&mut k2, "alice-worker", "SELECT v FROM store WHERE k = 'c'");
    assert_eq!(
        *alice_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
    // And she can still write (the uid re-bind is fully functional).
    alice_log2.lock().unwrap().clear();
    worker_exec(
        &mut k2,
        "alice-worker",
        "UPDATE store SET v = 'blue' WHERE k = 'c'",
    );
    assert_eq!(
        alice_log2.lock().unwrap().last(),
        Some(&DbMsg::ExecR {
            ok: true,
            affected: 1
        })
    );
}

#[test]
fn rebind_order_does_not_matter_after_reboot() {
    // The owners table — not bind arrival order — connects users to
    // their rows: rebind bob FIRST after the reboot and alice still gets
    // her own data.
    let dev = MemDev::new();
    let (mut k1, alice_log, bob_log) = boot(72, 1, &dev);
    worker_exec(
        &mut k1,
        "alice-worker",
        "INSERT INTO store VALUES ('c', 'red')",
    );
    worker_exec(
        &mut k1,
        "bob-worker",
        "INSERT INTO store VALUES ('c', 'blue')",
    );
    assert_eq!(alice_log.lock().unwrap().len(), 1);
    assert_eq!(bob_log.lock().unwrap().len(), 1);
    drop(k1);

    // Boot 2 binds in REVERSE order (bob, then alice).
    let mut k2 = Kernel::with_boot_epoch(72, CostModel::default(), 1, 2);
    spawn_trusted(&mut k2);
    k2.spawn(
        "ok-dbproxy",
        Category::Okdb,
        Box::new(DbProxy::with_store(Box::new(dev.clone()))),
    );
    let alice_log2 = spawn_worker(&mut k2, "alice-worker");
    let bob_log2 = spawn_worker(&mut k2, "bob-worker");
    k2.run();
    let trusted = cmd(&k2, "trusted");
    for (user, worker) in [("bob", "bob-worker"), ("alice", "alice-worker")] {
        let wc = cmd(&k2, worker);
        inject_list(
            &mut k2,
            trusted,
            vec!["bind".into(), user.into(), Value::Handle(wc)],
        );
    }
    worker_query(&mut k2, "alice-worker", "SELECT v FROM store WHERE k = 'c'");
    assert_eq!(
        *alice_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
    worker_query(&mut k2, "bob-worker", "SELECT v FROM store WHERE k = 'c'");
    assert_eq!(
        *bob_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["blue".into()]
            },
            DbMsg::Done
        ]
    );
}

#[test]
fn admin_query_arm_cannot_smuggle_mutations() {
    // Regression: the admin Query arm executes SQL without redo logging
    // (reads need no log). A mutation smuggled through it would change
    // memory but not the WAL, so the recovered state would silently
    // diverge from what the deployment observably ran with. The arm must
    // refuse anything but SELECT.
    let dev = MemDev::new();
    let (mut k1, alice_log, _bob) = boot(74, 1, &dev);
    worker_exec(
        &mut k1,
        "alice-worker",
        "INSERT INTO store VALUES ('c', 'red')",
    );
    let trusted = cmd(&k1, "trusted");
    inject_list(
        &mut k1,
        trusted,
        vec!["raw-query".into(), "DELETE FROM store".into()],
    );
    // In-memory state is untouched...
    alice_log.lock().unwrap().clear();
    worker_query(&mut k1, "alice-worker", "SELECT v FROM store WHERE k = 'c'");
    assert_eq!(
        *alice_log.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ],
        "the smuggled DELETE must not have executed"
    );
    drop(k1);
    // ...and so is the recovered state (memory ≡ WAL, always).
    let (mut k2, alice_log2, _bob2) = boot(74, 2, &dev);
    worker_query(&mut k2, "alice-worker", "SELECT v FROM store WHERE k = 'c'");
    assert_eq!(
        *alice_log2.lock().unwrap(),
        vec![
            DbMsg::Row {
                values: vec!["red".into()]
            },
            DbMsg::Done
        ]
    );
}

// ---------------------------------------------------------------------
// Covert-channel regression: recovery leaks nothing across labels.
// ---------------------------------------------------------------------

#[test]
fn recovery_reveals_nothing_about_other_users_rows() {
    // Two worlds, identical except alice's recovered data volume: in
    // world 1 alice committed five rows before the crash; in world 2
    // none. Bob's entire observable reply stream after recovery must be
    // byte-identical — he cannot learn whether alice's rows were
    // recovered, how many there were, or in what order they replayed.
    let observe_bob = |alice_rows: usize| -> Vec<DbMsg> {
        let dev = MemDev::new();
        let (mut k1, alice_log, bob_log) = boot(73, 1, &dev);
        for i in 0..alice_rows {
            worker_exec(
                &mut k1,
                "alice-worker",
                &format!("INSERT INTO store VALUES ('a{i}', 'secret')"),
            );
        }
        worker_exec(
            &mut k1,
            "bob-worker",
            "INSERT INTO store VALUES ('b', 'mine')",
        );
        assert_eq!(alice_log.lock().unwrap().len(), alice_rows);
        drop(k1);

        let (mut k2, _alice_log2, bob_log2) = boot(73, 2, &dev);
        let _ = bob_log;
        worker_query(&mut k2, "bob-worker", "SELECT v FROM store");
        let log = bob_log2.lock().unwrap().clone();
        log
    };
    let with_alice_data = observe_bob(5);
    let without_alice_data = observe_bob(0);
    assert_eq!(
        with_alice_data, without_alice_data,
        "bob's post-recovery view must be independent of alice's data"
    );
    assert_eq!(
        with_alice_data,
        vec![
            DbMsg::Row {
                values: vec!["mine".into()]
            },
            DbMsg::Done
        ]
    );
}
