//! Scenario latency at scale: the `asbestos-loadgen` workloads measured
//! end to end, plus the Figure 8 closed loop ported to the sharded
//! multi-lane deployment.
//!
//! Each row is one scenario at one deployment point (`1×1` paper-faithful
//! and `4×4` scaled): open-loop arrivals (queueing delay lands in the
//! tail honestly), Zipf-skewed populations, a full reboot-and-login
//! storm, and a 10× flood whose excess the attacker's worker sheds — with
//! p50/p99/p999 over the *fresh* latency series, the shed-then-retried
//! series kept separate, and
//! goodput against busiest-shard wall clock. Everything runs in virtual
//! cycles under fixed seeds, so the numbers are deterministic and can be
//! compared across commits.
//!
//! Real runs (`cargo bench -p asbestos-bench --bench loadgen`) write
//! `BENCH_latency.json` at the repo root; `--test` mode (CI smoke)
//! shrinks every scenario except the gate row and writes nothing.
//!
//! **Always-on regression gate:** the `baseline/4x4` row — which runs at
//! full size even in test mode, so the comparison is like-for-like — is
//! checked against the committed `BENCH_latency.json`: fresh p99 may not
//! exceed the committed value by more than `report::GATE_SLACK`, and goodput
//! may not fall below committed/`report::GATE_SLACK`. The run is deterministic,
//! so the slack only absorbs deliberate retunes riding along with a PR;
//! silent latency regressions on the request hot path fail CI.

use asbestos_bench::okws_latency_sharded;
use asbestos_bench::report::{bench_test_mode, gate_against_committed, BenchReport};
use asbestos_loadgen::{
    run_scenario, Baseline, LoginStorm, ScenarioReport, SustainedFlood, ZipfChurn,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// The deployment points every scenario runs at.
const DEPLOYMENTS: [(usize, usize); 2] = [(1, 1), (4, 4)];

/// Baseline at full size (the gate row's configuration — identical in
/// test mode and full runs).
fn baseline_full(shards: usize, lanes: usize) -> Baseline {
    Baseline {
        users: 64,
        requests: 512,
        kernels: 1,
        shards,
        lanes,
    }
}

fn push_scenario(report: &mut BenchReport, r: &ScenarioReport) {
    println!("{}", r.summary_line());
    report.push_row(
        format!("{}/{}x{}", r.scenario, r.shards, r.lanes),
        &[
            ("users", r.users as f64),
            ("issued", r.issued as f64),
            ("completed", r.completed as f64),
            ("aborted", r.aborted as f64),
            ("retries", r.retries as f64),
            ("goodput_rps", r.goodput_rps),
            ("p50_us", r.fresh.p50_us),
            ("p99_us", r.fresh.p99_us),
            ("p999_us", r.fresh.p999_us),
            ("mean_us", r.fresh.mean_us),
            ("max_us", r.fresh.max_us),
            ("retried_count", r.retried.count as f64),
            ("retried_p99_us", r.retried.p99_us),
            ("elapsed_us", r.elapsed_us),
            ("shard_imbalance", r.shard_imbalance),
            ("queue_depth_hwm", r.queue_depth_hwm as f64),
        ],
    );
}

fn bench_loadgen(c: &mut Criterion) {
    let test_mode = bench_test_mode();
    let mut report = BenchReport::new("latency");
    let mut gate_row: Option<ScenarioReport> = None;

    for (shards, lanes) in DEPLOYMENTS {
        // Baseline: always full size — it is the gate row at 4×4.
        let r = run_scenario(&mut baseline_full(shards, lanes), 0xBA5E);
        if (shards, lanes) == (4, 4) {
            gate_row = Some(r.clone());
        }
        push_scenario(&mut report, &r);

        // Heavy-tailed churn over a large population: Zipf-ranked users,
        // logouts, and mid-stream disconnects.
        let (users, requests) = if test_mode { (256, 160) } else { (10_000, 600) };
        let r = run_scenario(
            &mut ZipfChurn::new(users, requests, 1.1, shards, lanes),
            0x21BF,
        );
        push_scenario(&mut report, &r);

        // Reboot and make the whole population log back in at once.
        let users = if test_mode { 24 } else { 96 };
        let r = run_scenario(&mut LoginStorm::new(users, shards, lanes), 0x5708);
        push_scenario(&mut report, &r);

        // Flood: one attacker at 10× the victim's rate; what its session
        // worker sheds is retried to completion.
        let requests = if test_mode { 220 } else { 440 };
        let r = run_scenario(
            &mut SustainedFlood {
                requests,
                flood_factor: 10,
                shards,
                lanes,
            },
            0xF100,
        );
        push_scenario(&mut report, &r);

        // Figure 8's closed loop on the same deployment grid.
        let samples = if test_mode { 60 } else { 250 };
        let row = okws_latency_sharded(1000, samples, 3500, shards, lanes);
        println!(
            "{}: median {:.0}us p90 {:.0}us",
            row.server, row.median_us, row.p90_us
        );
        report.push_row(
            format!("fig8/{shards}x{lanes}"),
            &[
                ("sessions", 1000.0),
                ("samples", samples as f64),
                ("median_us", row.median_us),
                ("p90_us", row.p90_us),
            ],
        );
    }

    // The always-on gate against the committed baseline.
    let fresh = gate_row.expect("the 4x4 baseline always runs");
    gate_against_committed(
        &mut report,
        "latency",
        "loadgen",
        "baseline/4x4",
        fresh.fresh.p99_us,
        fresh.goodput_rps,
    );

    if !test_mode {
        report.write_at_repo_root("latency");
    }

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("loadgen/scenarios", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_loadgen);
criterion_main!(benches);
