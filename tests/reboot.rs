//! Full-stack reboot tests: §7.5's "label-based security policy that
//! persists across system reboots", exercised through the complete OKWS
//! deployment — netd, ok-demux, idd, workers, ok-dbproxy over a durable
//! store — torn down and re-assembled with [`Okws::reboot`].
//!
//! The boot-epoch protocol under test: a reboot recovers the database
//! (rows plus their hidden ownership column) but *nothing* per-boot —
//! idd mints fresh `uT`/`uG` handles on first login (§5.1: handles are
//! unique since boot), grants ok-dbproxy `⋆` on each, and the proxy's
//! persisted uid map re-binds the fresh handles to the recovered rows.

use asbestos_kernel::Kernel;
use asbestos_okws::logic::Profile;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use asbestos_store::MemDev;

/// A profile deployment config over `dev`; `with_users` controls whether
/// accounts are (re-)provisioned — reboots pass `false`, proving the
/// credential store itself persisted.
fn profile_config(dev: &MemDev, with_users: bool) -> OkwsConfig {
    let mut config = OkwsConfig::new(80).durable(Box::new(dev.clone()));
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    if with_users {
        config.users.push(("alice".into(), "pw-a".into()));
        config.users.push(("bob".into(), "pw-b".into()));
    }
    config
}

/// `uT`/`uG`-style handles idd holds at ⋆ (its per-user grants).
fn idd_star_handles(kernel: &Kernel) -> Vec<u64> {
    Okws::idd_star_handles(kernel)
}

#[test]
fn reboot_rebinds_users_and_preserves_isolation() {
    let dev = MemDev::new();

    // Boot 1: provision accounts, store one private bio per user.
    let (mut k1, okws1) = Okws::deploy(501, profile_config(&dev, true));
    assert_eq!(k1.boot_epoch(), 1, "first durable boot");
    let mut client = OkwsClient::new(&okws1);
    let (status, body) = client
        .request_sync(
            &mut k1,
            "profile",
            "alice",
            "pw-a",
            &[("set", "alice-private")],
        )
        .unwrap();
    assert_eq!((status, body.as_slice()), (200, &b"stored"[..]));
    let (_, body) = client
        .request_sync(&mut k1, "profile", "bob", "pw-b", &[("set", "bob-private")])
        .unwrap();
    assert_eq!(body, b"stored");
    // idd holds ⋆ for everything it minted this boot: its ports plus the
    // two per-user handle pairs.
    let boot1_handles = idd_star_handles(&k1);
    assert!(boot1_handles.len() >= 4, "at least uT ⋆ + uG ⋆ per user");
    okws1.shutdown(&mut k1);
    drop(k1);

    // Boot 2: NO users in the config — credentials, tables, and rows all
    // come back from the store.
    let (mut k2, okws2) = Okws::reboot(501, profile_config(&dev, false));
    assert_eq!(k2.boot_epoch(), 2, "epoch advanced across the reboot");
    let mut client = OkwsClient::new(&okws2);

    // Before any session exists: a wrong password fails against the
    // *recovered* credential table — persistence is not an open door.
    // (Must run before alice's real login: a cached session would serve
    // subsequent requests without re-authenticating, §7.3.)
    let (status, _) = client
        .request_sync(&mut k2, "profile", "alice", "wrong", &[("get", "alice")])
        .unwrap();
    assert_eq!(status, 403);

    // Alice logs in with her persisted password and sees her row.
    let (status, body) = client
        .request_sync(&mut k2, "profile", "alice", "pw-a", &[("get", "alice")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"alice:alice-private\n");

    // Bob cannot see alice's recovered row: the proxy re-taints it with
    // alice's *fresh* uT and the kernel drops it at bob's event process.
    let drops_before = k2.stats().dropped_label_check;
    let (status, body) = client
        .request_sync(&mut k2, "profile", "bob", "pw-b", &[("get", "alice")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body, b"",
        "alice's recovered data must stay invisible to bob"
    );
    assert!(
        k2.stats().dropped_label_check > drops_before,
        "the cross-user read was dropped by Figure 4, not by worker code"
    );

    // Bob still owns his own recovered row.
    let (_, body) = client
        .request_sync(&mut k2, "profile", "bob", "pw-b", &[("get", "bob")])
        .unwrap();
    assert_eq!(body, b"bob:bob-private\n");

    // §5.1 across reboots: every handle idd holds this boot — ports and
    // the freshly-minted uT/uG pairs alike — is a value boot 1 never saw.
    let boot2_handles = idd_star_handles(&k2);
    assert!(boot2_handles.len() >= 4);
    assert!(
        boot2_handles.iter().all(|h| !boot1_handles.contains(h)),
        "no boot-1 handle may be re-minted in boot 2"
    );
}

#[test]
fn crash_reboot_keeps_every_acknowledged_write() {
    let dev = MemDev::new();
    let (mut k1, okws1) = Okws::deploy(502, profile_config(&dev, true));
    let mut client = OkwsClient::new(&okws1);
    let (_, body) = client
        .request_sync(&mut k1, "profile", "alice", "pw-a", &[("set", "survives")])
        .unwrap();
    assert_eq!(body, b"stored", "the write was acknowledged");
    // Crash: no shutdown, no teardown — and the device loses everything
    // that was never synced.
    drop(okws1);
    drop(k1);
    dev.crash(0);

    let (mut k2, okws2) = Okws::reboot(502, profile_config(&dev, false));
    let mut client = OkwsClient::new(&okws2);
    let (status, body) = client
        .request_sync(&mut k2, "profile", "alice", "pw-a", &[("get", "alice")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        body, b"alice:survives\n",
        "an acknowledged write must survive a crash (redo-logged before the ack)"
    );
}

/// The schema (tables *and* indexes) recovers with the data, so the
/// launcher re-declaring it at every boot changes nothing and appends
/// nothing to the redo log.
#[test]
fn redeclared_schema_is_free_and_indexes_recover() {
    let wal_bytes = |dev: &MemDev| -> usize {
        use asbestos_store::BlockDev;
        dev.list()
            .iter()
            .filter(|name| name.starts_with("wal."))
            .map(|name| dev.dump(name).len())
            .sum()
    };
    // (user_id, owner) — the hidden ownership column ok-dbproxy adds and
    // the column `Profile` filters on.
    let profile_indexes = |kernel: &Kernel| -> Vec<usize> {
        let pid = kernel.find_process("ok-dbproxy").unwrap();
        let proxy = kernel.service_as::<asbestos_db::DbProxy>(pid).unwrap();
        let db = asbestos_db::restore(&proxy.snapshot()).unwrap();
        let indexed = db.table("profiles").unwrap().indexed_columns().collect();
        indexed
    };

    let dev = MemDev::new();
    let (mut k1, okws1) = Okws::deploy(504, profile_config(&dev, true));
    let mut client = OkwsClient::new(&okws1);
    let (_, body) = client
        .request_sync(&mut k1, "profile", "alice", "pw-a", &[("set", "hello")])
        .unwrap();
    assert_eq!(body, b"stored");
    assert_eq!(profile_indexes(&k1), vec![0, 1]);
    okws1.shutdown(&mut k1);
    drop(k1);
    let after_boot_1 = wal_bytes(&dev);
    assert!(after_boot_1 > 0);

    // Boot 2 pushes the same `Profile::TABLE_DDL` through the trusted DDL
    // path (and ok-dbproxy re-declares its own owners index).
    let (mut k2, okws2) = Okws::reboot(504, profile_config(&dev, false));
    assert_eq!(wal_bytes(&dev), after_boot_1, "no redo record for a no-op");
    assert_eq!(profile_indexes(&k2), vec![0, 1]);
    let mut client = OkwsClient::new(&okws2);
    let (_, body) = client
        .request_sync(&mut k2, "profile", "alice", "pw-a", &[("get", "alice")])
        .unwrap();
    assert_eq!(body, b"alice:hello\n");
}

/// Figure 4 golden-trace equivalence: a recovered deployment must render
/// exactly the verdicts a fresh deployment with the same data renders.
/// Handle *values* differ per boot, but the verdict structure — what
/// delivers, what the label checks drop — must be identical.
#[test]
fn recovered_deployment_matches_fresh_boot_verdicts() {
    // Both worlds end in the same logical state: bios set for both
    // users, sessions warm. World F(resh) built it live this boot; world
    // R(ecovered) crossed a shutdown/reboot in between.
    let run_script = |kernel: &mut Kernel, client: &mut OkwsClient| -> (u64, u64, u64) {
        let before = kernel.stats();
        let script = [
            ("alice", "pw-a", "alice", "alice:private-a\n"),
            ("bob", "pw-b", "alice", ""),
            ("alice", "pw-a", "bob", ""),
            ("bob", "pw-b", "bob", "bob:private-b\n"),
        ];
        for (user, pw, target, expect) in script {
            let (status, body) = client
                .request_sync(kernel, "profile", user, pw, &[("get", target)])
                .unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, expect.as_bytes(), "{user} get {target}");
        }
        let after = kernel.stats();
        (
            after.delivered - before.delivered,
            after.dropped_label_check - before.dropped_label_check,
            after.eps_created - before.eps_created,
        )
    };
    let seed = 503;

    // World F: everything in one boot.
    let dev_f = MemDev::new();
    let (mut kf, okws_f) = Okws::deploy(seed, profile_config(&dev_f, true));
    let mut client_f = OkwsClient::new(&okws_f);
    for (u, p, bio) in [("alice", "pw-a", "private-a"), ("bob", "pw-b", "private-b")] {
        client_f
            .request_sync(&mut kf, "profile", u, p, &[("set", bio)])
            .unwrap();
    }
    let fresh = run_script(&mut kf, &mut client_f);

    // World R: same writes, then shutdown, reboot, re-login warmup (the
    // sessions the fresh world already had), then the identical script.
    let dev_r = MemDev::new();
    let (mut k1, okws1) = Okws::deploy(seed, profile_config(&dev_r, true));
    let mut client1 = OkwsClient::new(&okws1);
    for (u, p, bio) in [("alice", "pw-a", "private-a"), ("bob", "pw-b", "private-b")] {
        client1
            .request_sync(&mut k1, "profile", u, p, &[("set", bio)])
            .unwrap();
    }
    okws1.shutdown(&mut k1);
    drop(k1);
    let (mut kr, okws_r) = Okws::reboot(seed, profile_config(&dev_r, false));
    let mut client_r = OkwsClient::new(&okws_r);
    // Warmup: one request per user re-establishes sessions (login, fresh
    // handles, re-bind) so both worlds run the script from warm state.
    for (u, p) in [("alice", "pw-a"), ("bob", "pw-b")] {
        let (status, _) = client_r
            .request_sync(&mut kr, "profile", u, p, &[("get", u)])
            .unwrap();
        assert_eq!(status, 200);
    }
    let recovered = run_script(&mut kr, &mut client_r);

    assert_eq!(
        fresh, recovered,
        "(delivered, label-check drops, eps created) must match the fresh-boot golden trace"
    );
    assert!(fresh.1 > 0, "the script exercises cross-user drops");
}
