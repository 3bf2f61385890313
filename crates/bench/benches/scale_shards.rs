//! Scaling: messages/second versus kernel shard count.
//!
//! The workload is the OKWS repeated-tuple regime — a pool of per-user
//! senders, each carrying a distinct multi-entry taint label, repeatedly
//! bursting at long-lived service ports — partitioned the way a sharded
//! OKWS partitions users: each user's sender and sink live on the same
//! shard (`partitioned` rows), or deliberately on different shards so
//! every message crosses the router (`routed` rows).
//!
//! **Metrics.** Three throughput numbers per configuration:
//!
//! * `virtual_msgs_per_sec` — delivered messages over the busiest
//!   shard's *virtual cycle* advance (each shard models one 2.8 GHz
//!   core, §9's testbed CPU). Deterministic, models only the charged
//!   label/IPC work; the original PR 2 acceptance series.
//! * `wall_msgs_per_sec` — delivered messages over the busiest shard's
//!   *measured busy time* ([`asbestos_kernel::KernelShard::busy_nanos`]):
//!   real host nanoseconds its drain loop ran, including the per-message
//!   costs the cycle model does not charge — router directory lookups,
//!   inbound-channel mutex pushes and pulls, mailbox bookkeeping.
//!   *Not* included: time spent outside the drain loops (the run
//!   loop's quiescence checks) — that lands in `elapsed_msgs_per_sec`
//!   below. Shards model parallel cores, and the run loop drains them
//!   one at a time, so the busiest shard's busy time is the modelled
//!   wall clock of a host with one core per shard — a virtual-cycle
//!   style model fed with host nanoseconds, not a host claim. This is
//!   the PR 3 acceptance series (`speedup_1_to_4_wall`).
//! * `elapsed_msgs_per_sec` — delivered messages over end-to-end host
//!   elapsed time. Every shard runs on the calling thread, so the
//!   ceiling of this column is the 1-shard number at every shard count;
//!   it is recorded so the partition's own overhead stays visible, not
//!   gated.
//!
//! Real measurement runs (`cargo bench -p asbestos-bench --bench
//! scale_shards`) write `BENCH_shards.json` at the repo root so the perf
//! trajectory is tracked across PRs; `--test` mode (CI) runs a short
//! sweep, writes nothing, and enforces the smoke gate: the 4-shard
//! routed `wall_msgs_per_sec` must not regress below the 1-shard figure.

use asbestos_bench::report::{bench_test_mode, BenchReport};
use asbestos_bench::workload_tuples::{
    deploy_repeated_tuple, trigger_round, PayloadMode, TupleWorkload,
};
use asbestos_kernel::{Handle, Kernel, CYCLES_PER_SEC};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// Concurrent user sessions (distinct label tuples).
const USERS: usize = 32;
/// Explicit entries per user send label (per-user compartment handles).
const ENTRIES: u64 = 48;
/// Messages per user per round.
const BURST: usize = 64;
/// Measured rounds per configuration.
const ROUNDS: usize = 40;

/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Payload sizes swept in the zero-copy A/B (a small header-sized body
/// and a page-sized one).
const PAYLOAD_SIZES: [usize; 2] = [64, 4096];

/// Deploys [`USERS`] sender/sink pairs over `shards` shards via the
/// shared repeated-tuple builder; `cross_shard` pins each user's sink
/// one shard away from its sender so all traffic rides the router.
fn setup(shards: usize, cross_shard: bool, payload: PayloadMode) -> (Kernel, Vec<Handle>) {
    let workload = TupleWorkload {
        users: USERS,
        entries: ENTRIES,
        burst: BURST,
        handle_base: 0x10_0000,
        handle_stride: 0x1000,
        cross_shard,
        payload,
    };
    deploy_repeated_tuple(0xCAFE, shards, &workload)
}

/// One configuration's measurements: throughput per denominator (see
/// the module docs) plus per-shard pressure counters.
struct Measured {
    virt: f64,
    wall: f64,
    elapsed: f64,
    /// Per-shard mailbox depth high-water mark (lifetime max — the
    /// queueing pressure each shard absorbed) and per-port-bound drops.
    queue_hwms: Vec<u64>,
    port_drops: Vec<u64>,
    /// Per-shard overload-control verdict counters (PR 8): sends
    /// deferred into the retry queue and messages shed. Zero in this
    /// workload's default (backpressure-off) configuration — recorded
    /// so any future regime change shows up in the trajectory.
    deferred: Vec<u64>,
    shed: Vec<u64>,
    /// Swap-drains of the cross-shard inbound queues over the measured
    /// rounds (each drain is one mutex acquisition however many messages
    /// it moves).
    batch_drains: u64,
    /// Mean messages moved per drain — the batching amortization factor.
    batch_mean: f64,
    /// Largest single batch observed (high-water over the whole run,
    /// warm round included).
    batch_max: u64,
}

/// Throughput for one configuration.
fn throughput(shards: usize, cross_shard: bool, rounds: usize, payload: PayloadMode) -> Measured {
    let (mut kernel, triggers) = setup(shards, cross_shard, payload);
    // Warm round: converges sink labels and grows the cross-shard
    // channel buffers so their allocation is not measured.
    trigger_round(&mut kernel, &triggers);
    let stats_before = kernel.stats();
    let before = stats_before.delivered;
    let cycles_before: Vec<u64> = (0..shards).map(|i| kernel.shard(i).clock().now()).collect();
    let busy_before: Vec<u64> = (0..shards).map(|i| kernel.shard(i).busy_nanos()).collect();
    let start = Instant::now();
    for _ in 0..rounds {
        trigger_round(&mut kernel, &triggers);
    }
    let elapsed = start.elapsed();
    let delivered = (kernel.stats().delivered - before) as f64;
    let busiest_cycles = (0..shards)
        .map(|i| kernel.shard(i).clock().now() - cycles_before[i])
        .max()
        .unwrap_or(1)
        .max(1);
    let busiest_nanos = (0..shards)
        .map(|i| kernel.shard(i).busy_nanos() - busy_before[i])
        .max()
        .unwrap_or(1)
        .max(1);
    let virtual_secs = busiest_cycles as f64 / CYCLES_PER_SEC as f64;
    let wall_secs = busiest_nanos as f64 / 1e9;
    let per_shard = |f: fn(&asbestos_kernel::Stats) -> u64| -> Vec<u64> {
        (0..shards).map(|i| f(kernel.shard(i).stats())).collect()
    };
    let queue_hwms = per_shard(|s| s.queue_depth_hwm);
    let port_drops = per_shard(|s| s.dropped_port_queue_full);
    let deferred = per_shard(|s| s.sent_deferred);
    let shed = per_shard(|s| s.dropped_shed);
    let stats_after = kernel.stats();
    let batch_drains = stats_after.xshard_batch_drains - stats_before.xshard_batch_drains;
    let batched = (stats_after.xshard_subround + stats_after.xshard_barrier)
        - (stats_before.xshard_subround + stats_before.xshard_barrier);
    Measured {
        virt: delivered / virtual_secs,
        wall: delivered / wall_secs,
        elapsed: delivered / elapsed.as_secs_f64(),
        queue_hwms,
        port_drops,
        deferred,
        shed,
        batch_drains,
        batch_mean: if batch_drains == 0 {
            0.0
        } else {
            batched as f64 / batch_drains as f64
        },
        batch_max: stats_after.xshard_batch_max,
    }
}

fn bench_scale_shards(c: &mut Criterion) {
    let test_mode = bench_test_mode();
    // Test mode still measures a few rounds: the smoke gate compares two
    // host-time figures, and a single un-averaged round is too exposed
    // to scheduler noise on a shared CI box.
    let rounds = if test_mode { 3 } else { ROUNDS };

    let mut report = BenchReport::new("scale_shards");
    let mut virt_partitioned = Vec::new();
    let mut wall_routed = Vec::new();
    for &shards in &SHARD_COUNTS {
        for (mode_label, cross) in [("partitioned", false), ("routed", true)] {
            let m = throughput(shards, cross, rounds, PayloadMode::None);
            let (virt, wall, elapsed) = (m.virt, m.wall, m.elapsed);
            println!(
                "scale_shards/{mode_label}/shards={shards}: \
                     {virt:.0} virtual msg/s, {wall:.0} wall msg/s, {elapsed:.0} elapsed msg/s"
            );
            let mut fields = vec![
                ("shards".to_string(), shards as f64),
                ("virtual_msgs_per_sec".to_string(), virt),
                ("wall_msgs_per_sec".to_string(), wall),
                ("elapsed_msgs_per_sec".to_string(), elapsed),
                ("users".to_string(), USERS as f64),
                ("label_entries".to_string(), ENTRIES as f64),
                ("burst".to_string(), BURST as f64),
                // Batch-drain occupancy of the cross-shard inbound
                // queues: mutex grabs amortized over `batch_mean`
                // messages each (0 when all traffic is same-shard).
                ("xshard_batch_drains".to_string(), m.batch_drains as f64),
                ("xshard_batch_mean".to_string(), m.batch_mean),
                ("xshard_batch_max".to_string(), m.batch_max as f64),
            ];
            // Per-shard queueing pressure: mailbox-depth high-water
            // marks and per-port-bound drops. The HWM spread shows
            // imbalance (a shard whose backlog towers over its peers);
            // drops flag saturation.
            for (i, hwm) in m.queue_hwms.iter().enumerate() {
                fields.push((format!("queue_depth_hwm_s{i}"), *hwm as f64));
            }
            for (i, drops) in m.port_drops.iter().enumerate() {
                fields.push((format!("port_queue_full_s{i}"), *drops as f64));
            }
            // Overload-control verdicts per shard (PR 8): deferred
            // sends and shed messages.
            for (i, d) in m.deferred.iter().enumerate() {
                fields.push((format!("deferred_s{i}"), *d as f64));
            }
            for (i, s) in m.shed.iter().enumerate() {
                fields.push((format!("shed_s{i}"), *s as f64));
            }
            let borrowed: Vec<(&str, f64)> = fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            report.push_row(format!("{mode_label}/shards={shards}"), &borrowed);
            if cross {
                wall_routed.push((shards, wall));
            } else {
                virt_partitioned.push((shards, virt));
            }
        }
    }

    // PR 2 acceptance series: partitioned, virtual cycles.
    let at =
        |series: &[(usize, f64)], n: usize| series.iter().find(|(s, _)| *s == n).map(|(_, m)| *m);
    if let (Some(base), Some(four)) = (at(&virt_partitioned, 1), at(&virt_partitioned, 4)) {
        let speedup = four / base;
        println!("scale_shards/speedup 1→4 shards (partitioned, virtual): {speedup:.2}x");
        report.push_summary("speedup_1_to_4_virtual", speedup);
        if !test_mode {
            assert!(
                speedup > 1.0,
                "sharding must scale: 1→4 shard virtual speedup was {speedup:.2}x"
            );
        }
    }

    // PR 3 acceptance series: routed, measured busy time of the busiest
    // shard (the modelled wall clock). Four shards must beat one — and
    // the smoke gate holds in CI test mode too.
    if let (Some(base), Some(four)) = (at(&wall_routed, 1), at(&wall_routed, 4)) {
        let speedup = four / base;
        println!("scale_shards/speedup 1→4 shards (routed, wall): {speedup:.2}x");
        report.push_summary("speedup_1_to_4_wall", speedup);
        assert!(
            speedup >= 1.0,
            "wall regression: 4-shard routed wall throughput fell below 1 shard ({speedup:.2}x)"
        );
        if !test_mode {
            assert!(
                speedup >= 1.5,
                "sharding must scale in busy time: 1→4 routed wall speedup was \
                 {speedup:.2}x (acceptance bar: 1.5x)"
            );
            for pair in wall_routed.windows(2) {
                let ((lo_shards, lo), (hi_shards, hi)) = (pair[0], pair[1]);
                if hi_shards <= 4 {
                    assert!(
                        hi >= lo,
                        "wall throughput must be monotone 1→4: {lo_shards} shards {lo:.0} \
                         msg/s > {hi_shards} shards {hi:.0} msg/s"
                    );
                }
            }
        }
    }

    // PR 6 acceptance series: the zero-copy A/B. Same routed regime, but every burst message carries a body — either a clone of
    // one shared payload (the zero-copy hot path) or a fresh deep copy
    // per send (the pre-zero-copy behavior, kept as the baseline). The
    // virtual charges are identical by construction; the wall-clock gap
    // is pure memory traffic. Bytes/s is msg/s × body size.
    //
    // The gate reads the 1-shard ratio, where the A/B gap is cleanest;
    // the 4-shard rows are still recorded for the trajectory.
    for &size in &PAYLOAD_SIZES {
        let mut wall_by_mode = [0.0f64; 2];
        for (slot, (mode_label, mode)) in [
            ("shared", PayloadMode::Shared(size)),
            ("copied", PayloadMode::Copied(size)),
        ]
        .into_iter()
        .enumerate()
        {
            for shards in [1usize, 4] {
                let m = throughput(shards, true, rounds, mode);
                println!(
                    "scale_shards/payload/{mode_label}/size={size}/shards={shards}: \
                     {:.0} wall msg/s, {:.3e} bytes/s",
                    m.wall,
                    m.wall * size as f64
                );
                report.push_row(
                    format!("payload/{mode_label}/size={size}/shards={shards}"),
                    &[
                        ("shards", shards as f64),
                        ("payload_bytes", size as f64),
                        ("virtual_msgs_per_sec", m.virt),
                        ("wall_msgs_per_sec", m.wall),
                        ("wall_bytes_per_sec", m.wall * size as f64),
                        ("elapsed_msgs_per_sec", m.elapsed),
                        ("users", USERS as f64),
                        ("label_entries", ENTRIES as f64),
                        ("burst", BURST as f64),
                        ("xshard_batch_drains", m.batch_drains as f64),
                        ("xshard_batch_mean", m.batch_mean),
                        ("xshard_batch_max", m.batch_max as f64),
                    ],
                );
                if shards == 1 {
                    wall_by_mode[slot] = m.wall;
                }
            }
        }
        let gain = wall_by_mode[0] / wall_by_mode[1];
        println!("scale_shards/payload zero-copy gain at {size} B (1 shard, wall): {gain:.2}x");
        report.push_summary(format!("payload_zero_copy_gain_{size}"), gain);
        // Smoke bar (always on): never slower than the copying baseline
        // at header size, strictly faster at page size. Full-run bar:
        // the page-size win must be ≥ 1.1x; the thresholds are looser in
        // test mode only because 3-round samples wear scheduler noise.
        let (floor, label) = match (size, test_mode) {
            (4096, false) => (1.1, "full-run page-size bar"),
            (4096, true) => (1.0 + f64::EPSILON, "smoke page-size bar"),
            (_, false) => (0.95, "full-run header-size bar"),
            (_, true) => (0.9, "smoke header-size bar"),
        };
        assert!(
            gain >= floor,
            "zero-copy payloads must pay for themselves ({label}): \
             shared/copied wall ratio at {size} B was {gain:.3}x (floor {floor:.2}x)"
        );
    }

    if !test_mode {
        report.write_at_repo_root("shards");
    }

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("scale_shards/sweep", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_scale_shards);
criterion_main!(benches);
