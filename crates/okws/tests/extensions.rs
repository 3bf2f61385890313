//! Tests for the deployed extensions: the password-change worker (§7's
//! third standard worker).

use asbestos_kernel::Kernel;
use asbestos_okws::logic::Passwd;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

fn deployment(seed: u64) -> (Kernel, Okws, OkwsClient) {
    let mut kernel = Kernel::new(seed);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("passwd", || Box::new(Passwd)));
    config.users.push(("alice".into(), "first-pw".into()));
    config.users.push(("bob".into(), "bob-pw".into()));
    let okws = Okws::start(&mut kernel, config);
    let client = OkwsClient::new(&okws);
    (kernel, okws, client)
}

#[test]
fn password_change_flow() {
    let (mut kernel, _okws, mut client) = deployment(301);

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
    let (mut kernel, _okws, mut client) = deployment(302);
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
