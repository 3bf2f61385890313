//! Federation at scale: the Baseline scenario measured across a
//! multi-kernel cluster, kernels {1,2} × shards {1,4}.
//!
//! Each row is one deployment point of the scenario engine
//! (`asbestos_loadgen::run_scenario` with `Baseline::kernels` set): front
//! end on kernel 0, workers on the rest, every request/response crossing the switch as serialized
//! frames with labels in wire form. Alongside the usual latency and
//! goodput fields, each row records what the wire saw — frames, bytes,
//! relayed `Forward`s, and bytes per request — so the serialization cost
//! of federation is tracked in version control, not just its latency.
//!
//! Real runs (`cargo bench -p asbestos-bench --bench cluster`) write
//! `BENCH_cluster.json` at the repo root; `--test` mode (CI smoke) runs
//! the same full-size rows (the sweep is small) and writes nothing.
//!
//! **Always-on regression gate:** the `baseline-fed/k2/4x4` row — two
//! kernels, four shards each — is checked against the committed
//! `BENCH_cluster.json`: fresh p99 may not exceed the committed value by
//! more than `report::GATE_SLACK`, and goodput may not fall below
//! committed/`report::GATE_SLACK`. The run is deterministic under its seed, so
//! the slack only absorbs deliberate retunes riding along with a PR;
//! silent regressions on the federated hot path (codec, gateway, switch)
//! fail CI.

use asbestos_bench::report::{bench_test_mode, gate_against_committed, BenchReport};
use asbestos_loadgen::{run_scenario, Baseline, ScenarioReport};
use criterion::{criterion_group, criterion_main, Criterion};

/// The federation sweep: kernel count × per-kernel shard count (lanes
/// track shards, as in the latency bench's deployment grid).
const SWEEP: [(usize, usize); 4] = [(1, 1), (1, 4), (2, 1), (2, 4)];

fn push_row(report: &mut BenchReport, r: &ScenarioReport) {
    println!(
        "k{} {} | wire: {} frames, {} bytes, {} forwards",
        r.kernels,
        r.summary_line(),
        r.wire_frames,
        r.wire_bytes,
        r.forwarded
    );
    report.push_row(
        format!("baseline-fed/k{}/{}x{}", r.kernels, r.shards, r.lanes),
        &[
            ("kernels", r.kernels as f64),
            ("users", r.users as f64),
            ("issued", r.issued as f64),
            ("completed", r.completed as f64),
            ("goodput_rps", r.goodput_rps),
            ("p50_us", r.fresh.p50_us),
            ("p99_us", r.fresh.p99_us),
            ("p999_us", r.fresh.p999_us),
            ("mean_us", r.fresh.mean_us),
            ("max_us", r.fresh.max_us),
            ("elapsed_us", r.elapsed_us),
            ("shard_imbalance", r.shard_imbalance),
            ("wire_frames", r.wire_frames as f64),
            ("wire_bytes", r.wire_bytes as f64),
            ("forwarded", r.forwarded as f64),
            ("wire_bytes_per_req", r.wire_bytes as f64 / r.issued as f64),
        ],
    );
}

fn bench_cluster(c: &mut Criterion) {
    let test_mode = bench_test_mode();
    let mut report = BenchReport::new("cluster");
    let mut gate_row: Option<ScenarioReport> = None;

    for (kernels, shards) in SWEEP {
        let mut scenario = Baseline {
            users: 64,
            requests: 512,
            kernels,
            shards,
            lanes: shards,
        };
        // `Baseline::check` asserts nothing was lost and nothing shed.
        let r = run_scenario(&mut scenario, 0xFED0);
        if kernels > 1 {
            assert!(
                r.forwarded as usize >= r.issued,
                "requests never crossed the switch"
            );
        }
        push_row(&mut report, &r);
        if (kernels, shards) == (2, 4) {
            gate_row = Some(r);
        }
    }

    // The always-on gate against the committed federated baseline.
    let fresh = gate_row.expect("the k2/4x4 row always runs");
    gate_against_committed(
        &mut report,
        "cluster",
        "cluster",
        "baseline-fed/k2/4x4",
        fresh.fresh.p99_us,
        fresh.goodput_rps,
    );

    if !test_mode {
        report.write_at_repo_root("cluster");
    }

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("cluster/federated-baseline", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
