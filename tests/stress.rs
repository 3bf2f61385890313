//! Randomized stress tests over the whole stack: arbitrary interleavings
//! of logins, session hits, logouts, and DB traffic must never violate the
//! §2 isolation invariant, leak memory after session teardown, or wedge
//! the kernel.
//!
//! The disconnect and flood stresses are [`asbestos_loadgen`] scenarios:
//! the declarative structs in `loadgen::scenarios` own the phases and
//! assertions, and the engine (`run_scenario`) owns deployment, open-loop
//! pacing, polling, and drain. The same scenarios run at measurement size
//! in `benches/loadgen.rs`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use asbestos::kernel::Kernel;
use asbestos::okws::logic::{EchoStore, Profile};
use asbestos::okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use asbestos_loadgen::{run_scenario, DisconnectChurn, SustainedFlood};

const USERS: usize = 12;

fn deploy(seed: u64) -> (Kernel, Okws, OkwsClient) {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    for i in 0..USERS {
        config.users.push((format!("u{i}"), format!("p{i}")));
    }
    let (kernel, okws) = Okws::deploy(seed, config);
    let client = OkwsClient::new(&okws);
    (kernel, okws, client)
}

#[test]
fn random_workload_preserves_isolation() {
    let mut rng = StdRng::seed_from_u64(0xA5BE5705);
    let (mut kernel, _okws, mut client) = deploy(600);

    // Ground truth of what each user last stored, per storage kind.
    let mut session_truth: Vec<Option<String>> = vec![None; USERS];
    let mut db_truth: Vec<Option<String>> = vec![None; USERS];

    for step in 0..400 {
        let user = rng.gen_range(0..USERS);
        let uname = format!("u{user}");
        let pw = format!("p{user}");
        match rng.gen_range(0..6) {
            // Store new session data.
            0 | 1 => {
                let data = format!("sess-{user}-{step}");
                let (status, body) = client
                    .request_sync(&mut kernel, "store", &uname, &pw, &[("data", &data)])
                    .expect("store responds");
                assert_eq!(status, 200);
                // The reply is the *previous* state and must be ours.
                if let Some(prev) = &session_truth[user] {
                    assert!(
                        body.starts_with(prev.as_bytes()),
                        "step {step}: user {user} saw {:?}, expected {prev:?}",
                        String::from_utf8_lossy(&body[..24.min(body.len())])
                    );
                } else {
                    assert!(body.is_empty());
                }
                session_truth[user] = Some(data);
            }
            // Read session data back.
            2 => {
                let (_, body) = client
                    .request_sync(&mut kernel, "store", &uname, &pw, &[])
                    .expect("store responds");
                match &session_truth[user] {
                    Some(prev) => assert!(body.starts_with(prev.as_bytes())),
                    None => assert!(body.is_empty()),
                }
            }
            // Write a DB row.
            3 => {
                let bio = format!("db-{user}-{step}");
                let (_, body) = client
                    .request_sync(&mut kernel, "profile", &uname, &pw, &[("set", &bio)])
                    .expect("profile responds");
                assert_eq!(body, b"stored");
                db_truth[user] = Some(bio);
            }
            // Read DB rows: only own rows, and the latest must be present.
            4 => {
                let (_, body) = client
                    .request_sync(&mut kernel, "profile", &uname, &pw, &[("get", &uname)])
                    .expect("profile responds");
                let text = String::from_utf8_lossy(&body);
                for (other, truth) in db_truth.iter().enumerate() {
                    if other != user {
                        if let Some(t) = truth {
                            assert!(
                                !text.contains(t.as_str()),
                                "step {step}: user {user} saw user {other}'s row"
                            );
                        }
                    }
                }
                if let Some(t) = &db_truth[user] {
                    assert!(text.contains(t.as_str()), "step {step}: missing own row");
                }
            }
            // Logout: session state must vanish.
            _ => {
                let (_, body) = client
                    .request_sync(&mut kernel, "store", &uname, &pw, &[("logout", "1")])
                    .expect("logout responds");
                assert_eq!(body, b"goodbye");
                session_truth[user] = None;
            }
        }
    }
    // The kernel never wedged and nothing is left queued.
    assert_eq!(kernel.queue_len(), 0);
}

#[test]
fn logout_churn_does_not_leak_memory() {
    let (mut kernel, _okws, mut client) = deploy(601);
    // Build every session once, then log everyone out: baseline.
    for i in 0..USERS {
        client
            .request_sync(
                &mut kernel,
                "store",
                &format!("u{i}"),
                &format!("p{i}"),
                &[("data", "x")],
            )
            .unwrap();
    }
    for i in 0..USERS {
        client
            .request_sync(
                &mut kernel,
                "store",
                &format!("u{i}"),
                &format!("p{i}"),
                &[("logout", "1")],
            )
            .unwrap();
    }
    let baseline = kernel.kmem_report().user_frame_bytes;

    // Churn sessions repeatedly; user frames must return to baseline each
    // time everything is logged out (event-process pages are freed).
    for round in 0..5 {
        for i in 0..USERS {
            client
                .request_sync(
                    &mut kernel,
                    "store",
                    &format!("u{i}"),
                    &format!("p{i}"),
                    &[("data", "y")],
                )
                .unwrap();
        }
        for i in 0..USERS {
            client
                .request_sync(
                    &mut kernel,
                    "store",
                    &format!("u{i}"),
                    &format!("p{i}"),
                    &[("logout", "1")],
                )
                .unwrap();
        }
        let now = kernel.kernel_user_frames();
        assert_eq!(now, baseline, "user frames leaked by round {round}");
    }
}

trait FrameProbe {
    fn kernel_user_frames(&self) -> usize;
}

impl FrameProbe for Kernel {
    fn kernel_user_frames(&self) -> usize {
        self.kmem_report().user_frame_bytes
    }
}

/// The full OKWS stack — netd, demux, idd, dbproxy, workers — enforces
/// §2 isolation across both a session service and the database: one
/// user's session state and rows stay invisible to another.
#[test]
fn okws_isolates_sessions_and_rows() {
    let (mut kernel, _okws, mut client) = deploy(602);

    // Alice and Bob store private data; each sees only their own.
    let (status, _) = client
        .request_sync(
            &mut kernel,
            "store",
            "u0",
            "p0",
            &[("data", "alice-secret")],
        )
        .expect("store responds");
    assert_eq!(status, 200);
    client
        .request_sync(&mut kernel, "profile", "u0", "p0", &[("set", "alice-bio")])
        .expect("profile responds");

    // Bob reads his own profile listing: alice's row must be invisible.
    let (_, body) = client
        .request_sync(&mut kernel, "profile", "u1", "p1", &[("get", "u0")])
        .expect("profile responds");
    assert!(
        !String::from_utf8_lossy(&body).contains("alice-bio"),
        "cross-user DB row leaked"
    );

    // Alice still sees her session and row.
    let (_, body) = client
        .request_sync(&mut kernel, "store", "u0", "p0", &[])
        .expect("store responds");
    assert!(body.starts_with(b"alice-secret"));
    let (_, body) = client
        .request_sync(&mut kernel, "profile", "u0", "p0", &[("get", "u0")])
        .expect("profile responds");
    assert!(String::from_utf8_lossy(&body).contains("alice-bio"));

    assert_eq!(kernel.queue_len(), 0);
    assert!(
        kernel.stats().dropped_label_check > 0,
        "the cross-user read must have been stopped by a label drop"
    );
}

/// Mid-stream client disconnects, as a declarative scenario: a warm
/// burst, a round of disconnects, and recovery. The scenario asserts no
/// deadlock, nothing left queued, and ordinary service afterwards. (A
/// full port queue's drop path is `crates/kernel/tests/sharding.rs`'s.)
#[test]
fn midstream_closes_do_not_wedge() {
    run_scenario(
        &mut DisconnectChurn {
            users: USERS,
            phase_len: 12,
        },
        603,
    );
}

/// Sustained flood: one attacker pouring
/// connections at 10× the victim's rate into the same deployment. The
/// attacker's session worker sheds what its pending queue cannot hold and
/// the client retries it. The scenario's `check` asserts the victim's
/// verdicts are unchanged by the flood (every request 200), everything
/// issued completes, and the deployment returns to a steady state.
#[test]
fn sustained_flood_leaves_the_victim_served_and_recovers() {
    run_scenario(
        &mut SustainedFlood {
            requests: 110,
            flood_factor: 10,
        },
        604,
    );
}
