//! The headline demo: the OK web server with kernel-enforced user
//! isolation (§7), including a §7.6 declassifier.
//!
//! Deploys OKWS with three services — a session store, a private profile
//! service, and a declassifier for publishing profiles — then walks through
//! logins, session caching, a cross-user read attempt, and declassification.
//!
//! Run with: `cargo run --release --example okws_demo`

use asbestos::okws::logic::{EchoStore, Profile};
use asbestos::okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

fn main() {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("store", || Box::new(EchoStore::new())));
    config
        .services
        .push(ServiceSpec::new("profile", || Box::new(Profile)));
    config
        .services
        .push(ServiceSpec::new("publish", || Box::new(Profile)).declassifier());
    config.worker_tables.push(Profile::TABLE_DDL.to_string());
    config.users.push(("alice".into(), "wonderland".into()));
    config.users.push(("bob".into(), "builder".into()));

    let (mut kernel, okws) = Okws::deploy(7, config);
    let mut client = OkwsClient::new(&okws);
    println!("OKWS up: netd, ok-demux, idd, ok-dbproxy, 3 workers\n");

    // --- Session state, cached in an event process (§7.3) -------------
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "store",
            "alice",
            "wonderland",
            &[("data", "alice's first note")],
        )
        .expect("response");
    println!(
        "alice stores a note; previous state: {:?}",
        String::from_utf8_lossy(&body)
    );
    let (_, body) = client
        .request_sync(&mut kernel, "store", "alice", "wonderland", &[])
        .expect("response");
    println!(
        "alice's next request returns her cached session: {:?}\n",
        String::from_utf8_lossy(&body[..20.min(body.len())])
    );

    // --- Private state in the database (§7.5) -------------------------
    client
        .request_sync(
            &mut kernel,
            "profile",
            "alice",
            "wonderland",
            &[("set", "alice-private-bio")],
        )
        .expect("response");
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "profile",
            "alice",
            "wonderland",
            &[("get", "alice")],
        )
        .expect("response");
    println!(
        "alice reads her own profile: {:?}",
        String::from_utf8_lossy(&body)
    );

    // Bob asks for alice's profile through the same (untrusted!) worker
    // code: ok-dbproxy sends the row tainted aT 3 and the kernel drops it
    // at bob's event process. Bob sees nothing.
    let drops = kernel.stats().dropped_label_check;
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "profile",
            "bob",
            "builder",
            &[("get", "alice")],
        )
        .expect("response");
    println!(
        "bob reads alice's profile: {:?} ({} row dropped by the kernel)",
        String::from_utf8_lossy(&body),
        kernel.stats().dropped_label_check - drops
    );

    // --- Decentralized declassification (§7.6) ------------------------
    // Alice publishes through the declassifier worker, which holds aT ⋆
    // and writes a row with owner id 0.
    client
        .request_sync(
            &mut kernel,
            "publish",
            "alice",
            "wonderland",
            &[("set", "alice-public-bio")],
        )
        .expect("response");
    let (_, body) = client
        .request_sync(
            &mut kernel,
            "profile",
            "bob",
            "builder",
            &[("get", "alice")],
        )
        .expect("response");
    println!(
        "after declassification, bob sees: {:?}",
        String::from_utf8_lossy(&body)
    );

    // --- The label bookkeeping behind it all ---------------------------
    let idd = kernel.find_process("idd").unwrap();
    let netd = kernel.find_process("netd").unwrap();
    println!("\nlabel growth (the Figure 9 mechanism):");
    println!(
        "  idd send label: {} explicit handles (uT ⋆ + uG ⋆ per user)",
        kernel.process(idd).send_label.entry_count()
    );
    println!(
        "  netd receive label: {} explicit handles (one uT 3 raise per user)",
        kernel.process(netd).recv_label.entry_count()
    );
    println!(
        "  kernel: {} deliveries, {} drops, {} event processes",
        kernel.stats().delivered,
        kernel.stats().dropped_total(),
        kernel.stats().eps_created
    );
    let pages = kernel.kmem_report().total_pages();
    let sessions = kernel.stats().eps_created - kernel.stats().eps_exited;
    println!(
        "  kmem: {pages} pages for {sessions} live session event processes \
         ({:.1} pages/session, the whole deployment included)",
        pages as f64 / sessions.max(1) as f64
    );
    println!(
        "  kernel: {} delivered, {} Kcycles",
        kernel.stats().delivered,
        kernel.now() / 1000
    );
    println!("\nokws_demo OK");
}
