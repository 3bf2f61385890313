//! Measurement routines, one per figure in §9.

use asbestos_baseline::{apache_cgi, mod_apache, run_closed_loop, UnixCosts};
use asbestos_kernel::{Category, CYCLES_PER_SEC};
use asbestos_net::ClientRequest;

use crate::fixture::{deploy, BenchEnv, CONNS_PER_USER, LATENCY_CONCURRENCY};

// ---------------------------------------------------------------------
// Figure 6: memory use.
// ---------------------------------------------------------------------

/// One point of Figure 6.
#[derive(Clone, Copy, Debug)]
pub struct Fig6Point {
    /// Number of Web sessions created.
    pub sessions: usize,
    /// Total allocated memory in 4 KiB pages (kernel structures plus user
    /// frames, as the paper measures).
    pub pages: usize,
}

/// Measures total memory after creating `sessions` store-service sessions.
///
/// `active` reproduces the worst-case variant: "we repeated the previous
/// experiment but modified the worker so that it does not ever unmap
/// memory, call ep_clean or call ep_exit" (§9.1).
pub fn fig6_memory(sessions: usize, active: bool, seed: u64) -> Fig6Point {
    let mut env = deploy(seed, sessions, !active);
    // ~1 KiB of session state per user, like the paper's toy service.
    env.build_sessions("store", Some("x".repeat(512).as_str()));
    env.kernel.run();
    let pages = env.kernel.kmem_report().total_pages();
    Fig6Point { sessions, pages }
}

/// The baseline memory of a deployment with no sessions (for computing
/// per-session slopes in EXPERIMENTS.md).
pub fn fig6_baseline(seed: u64) -> usize {
    let mut env = deploy(seed, 0, true);
    env.kernel.run();
    env.kernel.kmem_report().total_pages()
}

// ---------------------------------------------------------------------
// Figures 7 and 9 share one sweep: throughput and cycle breakdown.
// ---------------------------------------------------------------------

/// One point of the Figure 7 / Figure 9 sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Cached sessions in the system.
    pub sessions: usize,
    /// Completed connections.
    pub connections: u64,
    /// Connections per second of simulated 2.8 GHz time (Figure 7's y-axis).
    pub throughput: f64,
    /// Average Kcycles per connection, per category, in
    /// `[OKDB, OKWS, Kernel IPC, Network, Other]` order (Figure 9's
    /// y-axis).
    pub kcycles_per_conn: [f64; 5],
}

/// Runs the §9.2.1 workload at one session count: every user connects
/// [`CONNS_PER_USER`] times (the first connection authenticates and forks
/// the session event process; the rest hit the session table).
///
/// Kernel IPC cost scales linearly with cached sessions, as §9.3 reports:
/// every delivery is charged the label entries it examines.
pub fn okws_sweep_point(sessions: usize, seed: u64) -> SweepPoint {
    let mut env = deploy(seed, sessions, true);
    let start = env.kernel.clock();
    let mut connections = 0u64;
    for _round in 0..CONNS_PER_USER {
        for user in 0..sessions {
            env.request_ok("bench", user, &[]);
            connections += 1;
        }
    }
    let end = env.kernel.clock();
    let elapsed = (end.now() - start.now()).max(1);
    let throughput = connections as f64 / (elapsed as f64 / CYCLES_PER_SEC as f64);
    let mut kcycles = [0.0; 5];
    for (i, &cat) in Category::ALL.iter().enumerate() {
        let delta = end.total(cat) - start.total(cat);
        kcycles[i] = delta as f64 / 1_000.0 / connections as f64;
    }
    SweepPoint {
        sessions,
        connections,
        throughput,
        kcycles_per_conn: kcycles,
    }
}

/// Figure 7's baseline rows: Apache and Mod-Apache throughput at their
/// paper concurrency sweet spots (400 and 16 connections, §9.2.1).
pub fn baseline_throughputs(seed: u64) -> (f64, f64) {
    let costs = UnixCosts::default();
    let apache = run_closed_loop(&apache_cgi(&costs), 400, 20_000, seed);
    let module = run_closed_loop(&mod_apache(&costs), 16, 20_000, seed);
    (apache.throughput(), module.throughput())
}

// ---------------------------------------------------------------------
// Figure 8: latency.
// ---------------------------------------------------------------------

/// One row of Figure 8.
#[derive(Clone, Debug)]
pub struct Fig8Row {
    /// Server configuration name.
    pub server: String,
    /// Median latency, microseconds.
    pub median_us: f64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: f64,
}

/// Measures OKWS latency with the paper's concurrency of 4 (§9.2.2).
///
/// A closed loop keeps [`LATENCY_CONCURRENCY`] requests outstanding: each
/// completion immediately triggers a replacement, so requests stagger into
/// steady state the way a real load generator's do. Like the §9.2.1
/// workload, a quarter of the measured requests open new sessions, so
/// session-creation cost (idd, database, handle minting) shows up in the
/// tail exactly as §9.2.2 describes.
///
/// Completions are collected once per scheduling quantum
/// ([`asbestos_net::ClientDriver::poll`]), the way a real load generator
/// polls its sockets. Latency is virtual-cycle, so the row is
/// deterministic under its seed.
pub fn okws_latency(sessions: usize, samples: usize, seed: u64) -> Fig8Row {
    let mut env = deploy(seed, sessions + samples, true);
    // Pre-build the cached sessions the configuration calls for.
    for user in 0..sessions {
        env.request_ok("bench", user, &[]);
    }
    env.client.driver.reset_log();

    let mut fresh_user = sessions;
    let mut cached_rr = 0usize;
    let mut issued = 0usize;
    let mut issue_next = |env: &mut BenchEnv, issued: &mut usize| {
        // Every fourth request is a fresh login (§9.2.1's 1:3 ratio).
        let user = if (*issued).is_multiple_of(LATENCY_CONCURRENCY) {
            let u = fresh_user;
            fresh_user += 1;
            u
        } else {
            cached_rr += 1;
            cached_rr % sessions.max(1)
        };
        *issued += 1;
        env.issue("bench", user, &[])
    };

    // Prime the pipeline.
    for _ in 0..LATENCY_CONCURRENCY {
        issue_next(&mut env, &mut issued);
    }
    // Closed loop: poll frequently; top the window back up per completion.
    let mut completed_seen = 0usize;
    let mut stalled = 0u32;
    while completed_seen < samples {
        for _ in 0..40 {
            if !env.kernel.step() {
                break;
            }
        }
        env.client.driver.poll(&env.kernel);
        let done = env.client.driver.completed();
        while issued - done < LATENCY_CONCURRENCY && issued < sessions + samples {
            issue_next(&mut env, &mut issued);
        }
        if done == completed_seen && env.kernel.queue_len() == 0 {
            stalled += 1;
            assert!(
                stalled < 100,
                "latency workload stalled at {done} completions"
            );
        } else {
            stalled = 0;
        }
        completed_seen = done;
    }
    env.kernel.run();
    env.client.driver.poll(&env.kernel);

    // Requests served on their first connection, ascending.
    let mut lat: Vec<f64> = env
        .client
        .driver
        .requests()
        .iter()
        .filter(|r| r.retries == 0)
        .filter_map(ClientRequest::latency_us)
        .collect();
    lat.sort_by(f64::total_cmp);
    assert!(
        lat.len() >= samples,
        "latency workload lost requests: {} of {issued}",
        lat.len()
    );
    let median = asbestos_net::percentile(&lat, 50.0).unwrap_or(0.0);
    let p90 = asbestos_net::percentile(&lat, 90.0).unwrap_or(0.0);
    Fig8Row {
        server: format!(
            "OKWS, {} session{}",
            sessions,
            if sessions == 1 { "" } else { "s" }
        ),
        median_us: median,
        p90_us: p90,
    }
}

/// Figure 8's baseline rows at concurrency 4.
pub fn baseline_latencies(seed: u64) -> Vec<Fig8Row> {
    let costs = UnixCosts::default();
    let mut rows = Vec::new();
    for model in [mod_apache(&costs), apache_cgi(&costs)] {
        let run = run_closed_loop(&model, LATENCY_CONCURRENCY, 8_000, seed);
        rows.push(Fig8Row {
            server: model.name.to_string(),
            median_us: run.percentile_us(50.0),
            p90_us: run.percentile_us(90.0),
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Shared output helpers.
// ---------------------------------------------------------------------

/// The session counts Figure 7 and Figure 9 sweep.
pub const SWEEP_SESSIONS: [usize; 7] = [1, 100, 1000, 3000, 5000, 7500, 10_000];

/// A smaller sweep for quick runs (`--quick`).
pub const QUICK_SWEEP_SESSIONS: [usize; 4] = [1, 100, 500, 1000];

/// Parses a `--quick` flag from args.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The sweep to use given the flag.
pub fn sweep_sessions() -> Vec<usize> {
    if quick_mode() {
        QUICK_SWEEP_SESSIONS.to_vec()
    } else {
        SWEEP_SESSIONS.to_vec()
    }
}
