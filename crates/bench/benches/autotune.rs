//! Self-tuning runtime versus every static configuration.
//!
//! The PR 7 acceptance bench. One request pipeline — the repeated-tuple
//! kernel workload feeding per-request durable WAL appends — is run
//! under every static WAL group-commit batch and once with the tuner
//! armed, on two user populations:
//!
//! * **zipf** — per-user send rates follow `1/rank^s` (s = 1.1) with
//!   senders pinned `user % shards`, so shard 0 hosts the heavy ranks
//!   and cliffs while the rest idle. The regime every static knob
//!   setting is wrong for somewhere.
//! * **uniform** — the balanced PR 3 regime; the tuner has nothing to
//!   fix and must cost (approximately) nothing.
//!
//! The tuned run starts from the *worst* static corner — the
//! sync-per-record batch — and must climb out by itself: the steal loop
//! migrates hot sink processes (whole per-port queues and all) off shard
//! 0, and the WAL loop grows the group-commit batch under the append
//! pressure. Statics keep whatever they were given.
//!
//! **Metric.** `wall_msgs_per_sec`: delivered messages over the sum of
//! the kernel term (per round, the busiest shard's measured
//! `busy_nanos` advance — shards model parallel cores, so the busiest
//! shard bounds an adequately-cored host's wall clock) and the WAL term
//! (host-elapsed time of the round's durable appends). Both terms are
//! where the respective knobs bite: a hot shard inflates the kernel
//! term, an undersized group commit inflates the WAL term. Shard drain
//! windows never overlap (the run loop visits one shard at a time), so
//! per-shard `busy_nanos` is a true attribution on any host; the tuned
//! run arms the loop with
//! [`asbestos_kernel::Kernel::set_tuning_enabled`].
//!
//! **Always-on gates** (test mode and full runs alike):
//! * zipf: tuned strictly beats every static cell.
//! * uniform: tuned ≥ 0.95× the best static cell.
//!
//! Real runs (`cargo bench -p asbestos-bench --bench autotune`) write
//! `BENCH_autotune.json` at the repo root; `--test` mode (CI smoke)
//! runs a short sweep and writes nothing.

use asbestos_bench::report::{bench_test_mode, BenchReport};
use asbestos_bench::workload_tuples::{
    deploy_repeated_tuple, trigger_round, PayloadMode, TupleWorkload,
};
use asbestos_db::{DurableDb, SqlValue};
use asbestos_kernel::DefaultPolicy;
use asbestos_store::MemDev;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// Concurrent user sessions (32 distinct delivery tuples).
const USERS: usize = 32;
/// Explicit label entries per user (the Figure 4 evaluation cost paid
/// on every delivery).
const ENTRIES: u64 = 48;
/// Mean messages per user per round (the Zipf mode redistributes the
/// total across ranks, keeping it fixed).
const BURST: usize = 64;
/// Per-delivery synthetic service work on the sink's shard — the cost
/// that actually migrates when a port is stolen.
const SINK_SPIN: u32 = 600;
/// Zipf exponent for the skewed population.
const ZIPF_S: f64 = 1.1;
/// Kernel shards.
const SHARDS: usize = 4;
/// One durable mutation logged per this many delivered messages.
const LOG_EVERY: u64 = 8;

/// The static WAL group-commit batches swept.
const STATIC_BATCHES: [usize; 3] = [1, 32, 256];

/// Rounds the tuner (and every static, identically) gets to reach
/// steady state before measurement starts.
const WARM_ROUNDS: usize = 8;
/// Measured rounds (full run; test mode shortens).
const ROUNDS: usize = 16;

/// One cell of the sweep: a static group-commit batch, or the tuned
/// configuration.
#[derive(Clone, Copy)]
enum Config {
    Static { batch: usize },
    Tuned,
}

impl Config {
    fn label(&self) -> String {
        match self {
            Config::Static { batch } => format!("static/batch={batch}"),
            Config::Tuned => "tuned".into(),
        }
    }
}

struct Measured {
    wall_msgs_per_sec: f64,
    delivered: u64,
    kernel_secs: f64,
    wal_secs: f64,
    steals: u64,
    wal_grows: u64,
    wal_shrinks: u64,
    /// Per-shard queue-depth HWM / PortQueueFull drops (the hot-shard
    /// collapse observables, per shard per row).
    per_shard: Vec<(u64, u64)>,
}

/// Builds the workload for one population.
fn workload(zipf_s: f64) -> TupleWorkload {
    TupleWorkload {
        users: USERS,
        entries: ENTRIES,
        burst: BURST,
        handle_base: 0x10_0000,
        handle_stride: 0x1000,
        cross_shard: false,
        payload: PayloadMode::None,
        zipf_s,
        sink_spin: SINK_SPIN,
    }
}

/// The tuner thresholds for this bench. Same policy, same logic as the
/// deploy default — scaled to the bench's sub-millisecond observation
/// windows (one window per drain round; a production window sees far
/// more traffic): the activity floor drops accordingly, and the
/// imbalance detector is made stricter (1.5× mean for 3 consecutive
/// windows) because short windows wear proportionally more host-timer
/// jitter — the Zipf hot shard sits at ~1.6× mean, well past it, while
/// balanced-load jitter stays under it.
fn bench_policy() -> DefaultPolicy {
    let mut p = DefaultPolicy::default();
    p.min_busy_nanos = 30_000;
    p.steal_ratio = 1.5;
    p.steal_patience = 3;
    p
}

/// Runs one configuration over one population; returns the measurement.
fn run_config(cfg: Config, zipf_s: f64, rounds: usize) -> Measured {
    let w = workload(zipf_s);
    let tuned = matches!(cfg, Config::Tuned);
    let (mut kernel, triggers) = deploy_repeated_tuple(0xBEEF, SHARDS, &w);
    kernel.set_tuning_enabled(tuned);
    if tuned {
        kernel.set_tune_policy(Box::new(bench_policy()));
    }

    // The durable side: one WAL'd mutation per LOG_EVERY deliveries,
    // group-committed per the configuration. The table is cleared and
    // the WAL compacted at a fixed bound so per-sync cost reaches a
    // steady state instead of growing with run length.
    let mut db = DurableDb::open(Box::new(MemDev::new()));
    db.apply_ddl("CREATE TABLE req (v)");
    db.flush();
    db.set_compact_threshold(256 * 1024);
    match cfg {
        Config::Static { batch } => db.set_group_commit(batch),
        Config::Tuned => db.set_group_commit_auto(1, 256),
    }

    // Per-round samples (measured rounds only). The score reads the
    // *fastest* round: on a shared host OS preemption lands inside
    // random shards' drain windows and inflates that round's
    // busiest-shard figure by a scheduler-dependent amount — every
    // round wears some of it, so sums and medians both measure the host
    // scheduler more than the kernel.
    // Each measured round performs identical work, so the least-
    // preempted round is the cleanest observation of the true cost,
    // exactly like taking the best of N timing runs.
    let mut kernel_rounds: Vec<u64> = Vec::new();
    let mut wal_rounds: Vec<u64> = Vec::new();
    let mut delivered_measured = 0u64;
    let mut last_delivered = kernel.stats().delivered;
    for round in 0..(WARM_ROUNDS + rounds) {
        let busy_before: Vec<u64> = (0..SHARDS).map(|i| kernel.shard(i).busy_nanos()).collect();
        trigger_round(&mut kernel, &triggers);
        let busiest = (0..SHARDS)
            .map(|i| kernel.shard(i).busy_nanos() - busy_before[i])
            .max()
            .unwrap_or(0);
        let delivered = kernel.stats().delivered - last_delivered;
        last_delivered = kernel.stats().delivered;

        // Append the round's mutations and clear the table; syncs fire
        // whenever the group-commit batch fills (no forced round-end
        // flush — that would hand every configuration a free under-
        // filled sync and hide exactly the latency/amortization
        // trade-off the batch knob controls).
        let records = delivered / LOG_EVERY;
        let wal_start = Instant::now();
        for i in 0..records {
            db.worker_exec("INSERT INTO req VALUES (?)", &[SqlValue::Int(i as i64)], 1);
        }
        db.worker_exec("DELETE FROM req", &[], 1);
        let wal = wal_start.elapsed().as_nanos() as u64;

        if round >= WARM_ROUNDS {
            kernel_rounds.push(busiest);
            wal_rounds.push(wal);
            delivered_measured += delivered;
        }
    }

    let fastest = |xs: &[u64]| -> u64 { xs.iter().copied().min().unwrap_or(0) };
    let kernel_nanos = fastest(&kernel_rounds) * rounds as u64;
    let wal_nanos = fastest(&wal_rounds) * rounds as u64;
    let total_secs = (kernel_nanos + wal_nanos) as f64 / 1e9;
    let (wal_grows, wal_shrinks) = db.group_commit_transitions();
    let stats = kernel.stats();
    Measured {
        wall_msgs_per_sec: delivered_measured as f64 / total_secs,
        delivered: delivered_measured,
        kernel_secs: kernel_nanos as f64 / 1e9,
        wal_secs: wal_nanos as f64 / 1e9,
        steals: stats.steals,
        wal_grows,
        wal_shrinks,
        per_shard: (0..SHARDS)
            .map(|i| {
                let s = kernel.shard(i).stats();
                (s.queue_depth_hwm, s.dropped_queue_full)
            })
            .collect(),
    }
}

fn bench_autotune(c: &mut Criterion) {
    let test_mode = bench_test_mode();
    let rounds = if test_mode { 6 } else { ROUNDS };

    let mut report = BenchReport::new("autotune");
    for (pop, zipf_s) in [("zipf", ZIPF_S), ("uniform", 0.0)] {
        let mut statics: Vec<(String, f64)> = Vec::new();
        let mut tuned_wall = 0.0;
        let configs = STATIC_BATCHES
            .iter()
            .map(|&batch| Config::Static { batch })
            .chain([Config::Tuned]);

        for cfg in configs {
            let m = run_config(cfg, zipf_s, rounds);
            let label = cfg.label();
            println!(
                "autotune/{pop}/{label}: {:.0} wall msg/s \
                 (kernel {:.1} ms, wal {:.1} ms, steals {}, wal grows/shrinks {}/{})",
                m.wall_msgs_per_sec,
                m.kernel_secs * 1e3,
                m.wal_secs * 1e3,
                m.steals,
                m.wal_grows,
                m.wal_shrinks,
            );
            let mut fields = vec![
                ("wall_msgs_per_sec".to_string(), m.wall_msgs_per_sec),
                ("delivered".to_string(), m.delivered as f64),
                ("kernel_secs".to_string(), m.kernel_secs),
                ("wal_secs".to_string(), m.wal_secs),
                ("steals".to_string(), m.steals as f64),
                ("wal_batch_grows".to_string(), m.wal_grows as f64),
                ("wal_batch_shrinks".to_string(), m.wal_shrinks as f64),
                ("shards".to_string(), SHARDS as f64),
                ("users".to_string(), USERS as f64),
                ("zipf_s".to_string(), zipf_s),
            ];
            for (i, &(hwm, drops)) in m.per_shard.iter().enumerate() {
                fields.push((format!("queue_depth_hwm_s{i}"), hwm as f64));
                fields.push((format!("port_queue_full_s{i}"), drops as f64));
            }
            let borrowed: Vec<(&str, f64)> = fields.iter().map(|(k, v)| (k.as_str(), *v)).collect();
            report.push_row(format!("{pop}/{label}"), &borrowed);

            match cfg {
                Config::Static { .. } => statics.push((label, m.wall_msgs_per_sec)),
                Config::Tuned => tuned_wall = m.wall_msgs_per_sec,
            }
        }

        let (best_label, best_static) = statics
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .cloned()
            .unwrap();
        let ratio = tuned_wall / best_static;
        println!(
            "autotune/{pop}: tuned {tuned_wall:.0} vs best static [{best_label}] \
             {best_static:.0} → {ratio:.2}x"
        );
        report.push_summary(format!("{pop}_tuned_over_best_static"), ratio);

        // The always-on gates.
        match pop {
            "zipf" => {
                for (label, wall) in &statics {
                    assert!(
                        tuned_wall > *wall,
                        "tuned must strictly beat every static on the skewed population: \
                         tuned {tuned_wall:.0} ≤ {label} {wall:.0} msg/s"
                    );
                }
            }
            _ => {
                assert!(
                    ratio >= 0.95,
                    "tuning must not regress the uniform population: \
                     tuned/best-static was {ratio:.3}x (floor 0.95x)"
                );
            }
        }
    }

    if !test_mode {
        report.write_at_repo_root("autotune");
    }

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("autotune/sweep", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_autotune);
criterion_main!(benches);
