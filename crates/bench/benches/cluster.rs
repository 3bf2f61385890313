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
//! **Always-on gate: what only this bench measures.** A `Forward` costs
//! the virtual clock nothing, so a federated row's latency and goodput
//! equal the single-kernel row's and are gated by the `loadgen` bench
//! already. What the wire alone carries is pinned instead: each `k2`
//! row's `wire_frames`, `wire_bytes` and `forwarded` must equal the
//! committed `BENCH_cluster.json` exactly — the counts are deterministic
//! under the seed, so any change to what the gateways send, or to how
//! it is encoded, fails CI until the file is regenerated on purpose.

use asbestos_bench::report::{bench_test_mode, pin_against_committed, BenchReport};
use asbestos_loadgen::{run_scenario, Baseline, ScenarioReport};
use criterion::{criterion_group, criterion_main, Criterion};

/// The federation sweep: kernel count × per-kernel shard count (lanes
/// track shards, as in the latency bench's deployment grid).
const SWEEP: [(usize, usize); 4] = [(1, 1), (1, 4), (2, 1), (2, 4)];

fn row_name(r: &ScenarioReport) -> String {
    format!("baseline-fed/k{}/{}x{}", r.kernels, r.shards, r.lanes)
}

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
        row_name(r),
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
            pin_against_committed(
                "cluster",
                &row_name(&r),
                &[
                    ("wire_frames", r.wire_frames as f64),
                    ("wire_bytes", r.wire_bytes as f64),
                    ("forwarded", r.forwarded as f64),
                ],
            );
        }
        push_row(&mut report, &r);
    }

    if !test_mode {
        report.write_at_repo_root("cluster");
    }

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("cluster/federated-baseline", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
