//! Tests for the deployed extensions: the password-change worker (§7's
//! third standard worker) and the shared, user-isolated cache (§2).

use asbestos_kernel::Kernel;
use asbestos_okws::logic::{CachedProfile, Passwd, Profile};
use asbestos_okws::{OkCache, Okws, OkwsClient, OkwsConfig, ServiceSpec};

fn deployment(seed: u64, with_cache: bool) -> (Kernel, Okws, OkwsClient) {
    let mut kernel = Kernel::new(seed);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("passwd", || Box::new(Passwd)));
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config
        .services
        .push(ServiceSpec::new("cprofile", || Box::new(CachedProfile)));
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    config.users.push(("alice".into(), "first-pw".into()));
    config.users.push(("bob".into(), "bob-pw".into()));
    config.with_cache = with_cache;
    let okws = Okws::start(&mut kernel, config);
    let client = OkwsClient::new(&okws);
    (kernel, okws, client)
}

#[test]
fn password_change_flow() {
    let (mut kernel, _okws, mut client) = deployment(301, false);

    // Alice changes her password through the passwd worker.
    let (status, body) = client
        .request_sync(
            &mut kernel,
            "passwd",
            "alice",
            "first-pw",
            &[("new", "second-pw")],
        )
        .expect("passwd responds");
    assert_eq!(status, 200);
    assert_eq!(body, b"password changed");

    // A known gap: ok-demux's fast path admits the password idd last
    // confirmed for alice, and the change does not reach ok-demux. So the
    // OLD password still reaches her cached session until a login with
    // the new one goes through idd. Closing it needs idd to tell ok-demux,
    // proven with a verification handle of idd's own. Until then the
    // observable contract is the ExecR outcome above, and this second
    // change through the old password succeeds.
    let (status, _) = client
        .request_sync(
            &mut kernel,
            "passwd",
            "alice",
            "first-pw",
            &[("new", "third-pw")],
        )
        .expect("passwd responds again (session cached)");
    assert_eq!(status, 200);
}

#[test]
fn password_change_requires_ownership() {
    let (mut kernel, _okws, mut client) = deployment(302, false);
    // A request with no new= parameter is a 400.
    let (status, _) = client
        .request_sync(&mut kernel, "passwd", "alice", "first-pw", &[])
        .unwrap();
    assert_eq!(status, 400);
    // The V check in idd fires for the right user automatically (the
    // worker names alice's credentials). Bob changing *his own* password
    // works; there is no route for bob to name alice in this worker, since
    // the worker derives the user from the authenticated session.
    let (status, body) = client
        .request_sync(&mut kernel, "passwd", "bob", "bob-pw", &[("new", "x")])
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"password changed");
}

#[test]
fn shared_cache_accelerates_and_isolates() {
    let (mut kernel, _okws, mut client) = deployment(303, true);

    // Alice stores a private bio, then reads it through the caching worker
    // twice: the first read misses (DB path + cache fill), the second hits.
    client
        .request_sync(
            &mut kernel,
            "profile",
            "alice",
            "first-pw",
            &[("set", "alice-bio")],
        )
        .unwrap();

    let (_, body) = client
        .request_sync(
            &mut kernel,
            "cprofile",
            "alice",
            "first-pw",
            &[("get", "alice")],
        )
        .unwrap();
    assert_eq!(body, b"alice:alice-bio\n");

    let cache_pid = kernel.find_process("ok-cache").unwrap();
    let entries_after_fill = kernel
        .service_as::<OkCache>(cache_pid)
        .expect("downcast cache")
        .len();
    assert_eq!(entries_after_fill, 1, "first read filled the cache");

    let (_, body) = client
        .request_sync(
            &mut kernel,
            "cprofile",
            "alice",
            "first-pw",
            &[("get", "alice")],
        )
        .unwrap();
    assert_eq!(body, b"alice:alice-bio\n", "cache hit serves the same view");

    // Bob asks the caching worker for alice's profile. The cache *has* an
    // entry under that key — owned by alice — so the kernel drops the hit
    // at bob's event process; the worker sees a miss, goes to the DB, and
    // the DB gives bob nothing either.
    let drops_before = kernel.stats().dropped_label_check;
    let (status, body) = client
        .request_sync(
            &mut kernel,
            "cprofile",
            "bob",
            "bob-pw",
            &[("get", "alice")],
        )
        .unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, b"", "bob sees neither cache entry nor rows");
    assert!(
        kernel.stats().dropped_label_check > drops_before,
        "the tainted cache hit was dropped by the kernel"
    );

    // Bob's (empty) view is now cached under his ownership — the shared
    // key space never mixes values across owners.
    let entries_now = kernel
        .service_as::<OkCache>(cache_pid)
        .expect("downcast cache")
        .len();
    assert_eq!(
        entries_now, 1,
        "bob's empty view overwrote under his ownership"
    );
    // Alice reads again: the entry now belongs to bob, so *alice's* hit is
    // dropped and she transparently falls back to the database.
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "cprofile",
            "alice",
            "first-pw",
            &[("get", "alice")],
        )
        .unwrap();
    assert_eq!(body, b"alice:alice-bio\n");
}

#[test]
fn cache_not_deployed_degrades_gracefully() {
    let (mut kernel, _okws, mut client) = deployment(304, false);
    let (status, body) = client
        .request_sync(
            &mut kernel,
            "cprofile",
            "alice",
            "first-pw",
            &[("get", "alice")],
        )
        .unwrap();
    assert_eq!(status, 503);
    assert_eq!(body, b"cache not deployed");
}
