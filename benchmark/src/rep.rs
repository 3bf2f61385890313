//! One repetition: set-up, warm-up, the measured window, verification,
//! and — when traced — the per-layer table. Runs in a process of its own
//! so that `VmHWM` and process-level timing modes belong to it alone.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use asbestos_kernel::CYCLES_PER_SEC;

use crate::hostspeed;
use crate::json::Json;
use crate::probe;
use crate::trace::Tracer;
use crate::workload::{Expected, Generator, Model, Op, Request, Service, Spec, CLIENTS};
use crate::world::{split_response, Counters, World};

pub struct RepArgs {
    pub spec: Spec,
    pub seed: u64,
    /// Measured rounds.
    pub rounds: usize,
    pub traced: bool,
    pub workers: usize,
    /// Where the traced repetition writes its spans.
    pub out_dir: PathBuf,
}

/// Failure lines kept for printing (all failures are counted).
const MAX_FAILURE_LINES: usize = 10;

/// Rounds between two host-speed samples (a sample is ~0.3 ms, a round
/// 3–10 ms, so sampling costs under 1 % and is subtracted anyway).
const SPEED_EVERY: u64 = 16;

/// Host-speed samples taken inside one interval (set-up or window).
#[derive(Default)]
struct SpeedLog {
    samples: u64,
    sampled_ns: f64,
    /// Wall time the sampling took (each sample warms up untimed first).
    spent: Duration,
}

impl SpeedLog {
    fn sample(&mut self) {
        let start = Instant::now();
        self.sampled_ns += hostspeed::sample();
        self.samples += 1;
        self.spent += start.elapsed();
    }

    fn mean_ns(&self) -> f64 {
        self.sampled_ns / self.samples as f64
    }

    /// Seconds the sampling itself took; not part of the interval.
    fn seconds(&self) -> f64 {
        self.spent.as_secs_f64()
    }
}

/// Everything the measured loop accumulates.
#[derive(Default)]
struct Tally {
    issued: u64,
    verified: u64,
    failures: Vec<String>,
    lat_us: Vec<f64>,
    req_bytes: u64,
    resp_bytes: u64,
    db_reads: u64,
    db_writes: u64,
    cold: u64,
    /// A real request, kept for the parse and wire probes.
    sample_request: Vec<u8>,
}

struct Rep {
    spec: Spec,
    world: World,
    model: Model,
    tracer: Tracer,
    tally: Tally,
    speed: SpeedLog,
    rounds_done: u64,
}

impl Rep {
    /// One closed-loop round: issue every client's request, run the
    /// deployment to quiescence, poll, verify.
    fn round(&mut self, number: u32, reqs: &[Request]) {
        self.tracer.set_round(number);
        self.tracer.enter("round");
        // The model and the request strings are harness work; keep them
        // out of the spans that time the program.
        let expected: Vec<Expected> = reqs.iter().map(|r| self.model.expect(r)).collect();
        let mut issued: Vec<(usize, Instant)> = Vec::with_capacity(reqs.len());
        for req in reqs {
            let t = Instant::now();
            self.tracer.enter("open");
            let idx = self.world.request(req);
            self.tracer.exit();
            issued.push((idx, t));
        }
        self.tracer.enter("run");
        self.world.run(&mut self.tracer);
        self.tracer.exit();
        self.tracer.enter("poll");
        self.world.poll();
        self.tracer.exit();
        let done = Instant::now();

        self.tracer.enter("verify");
        for ((req, want), (idx, t)) in reqs.iter().zip(&expected).zip(&issued) {
            let (sent, response) = self.world.exchange(*idx);
            let tally = &mut self.tally;
            tally.issued += 1;
            tally.req_bytes += sent.len() as u64;
            tally.db_reads += u64::from(req.op.is_db_read());
            tally.db_writes += u64::from(req.op.is_db_write());
            tally.cold += u64::from(want.cold);
            if tally.sample_request.is_empty() {
                tally.sample_request = sent.to_vec();
            }
            let problem = match response.map(split_response) {
                None => Some("no response".to_string()),
                Some(None) => Some("malformed response".to_string()),
                Some(Some((status, body))) => {
                    tally.resp_bytes += response.map_or(0, |r| r.len()) as u64;
                    if status != 200 {
                        Some(format!("status {status}"))
                    } else if body != want.body.as_slice() {
                        Some(format!(
                            "body of {} bytes differs from the expected {} bytes",
                            body.len(),
                            want.body.len()
                        ))
                    } else {
                        None
                    }
                }
            };
            match problem {
                None => {
                    tally.verified += 1;
                    tally.lat_us.push((done - *t).as_secs_f64() * 1e6);
                }
                Some(what) => {
                    if tally.failures.len() < MAX_FAILURE_LINES {
                        tally.failures.push(format!(
                            "{} round {number} user u{} {:?}: {what}",
                            self.spec.name, req.user, req.op
                        ));
                    }
                }
            }
        }
        self.tracer.exit();
        self.world.reset_log();
        self.tracer.exit();
        self.rounds_done += 1;
        if self.rounds_done.is_multiple_of(SPEED_EVERY) {
            self.speed.sample();
        }
    }

    /// Set-up traffic: `op` once for every user, sixteen users a round.
    fn for_every_user(&mut self, op: impl Fn(usize) -> Op) {
        let users: Vec<usize> = (0..self.spec.users).collect();
        for chunk in users.chunks(CLIENTS) {
            let reqs: Vec<Request> = chunk
                .iter()
                .map(|&user| Request { user, op: op(user) })
                .collect();
            self.round(0, &reqs);
        }
    }
}

/// Process CPU seconds (user + system, every thread, dead ones included).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; fields resume after its ")".
    let rest = &stat[stat.rfind(')').expect("stat has a command") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the command; Linux reports them in USER_HZ ticks of 1/100 s.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set of this process, in kB.
fn vm_hwm_kb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status")
}

/// FNV-1a, for the simulated-counter digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

pub fn run(args: RepArgs) -> Json {
    let RepArgs {
        spec,
        seed,
        rounds,
        traced,
        workers,
        out_dir,
    } = args;

    // ---- set-up: deploy, provision, build sessions, warm up ----------
    let t0 = Instant::now();
    let mut speed = SpeedLog::default();
    speed.sample();
    let world = World::deploy(&spec, seed, workers);
    let mut rep = Rep {
        model: Model::new(&spec),
        world,
        tracer: Tracer::new(false),
        tally: Tally::default(),
        spec: spec.clone(),
        speed,
        rounds_done: 0,
    };
    if spec.prebuilt_sessions {
        rep.for_every_user(|_| match spec.service {
            Service::Bench => Op::Bench,
            Service::Store => Op::StoreRead,
            Service::Profile => Op::ProfileGet,
        });
    }
    for row in 0..spec.preload_rows {
        rep.for_every_user(|user| Op::ProfileSet(format!("pre{row}u{user}")));
    }
    let mut generator = Generator::new(&spec, seed);
    for _ in 0..spec.warmup_rounds {
        let reqs = generator.round();
        rep.round(0, &reqs);
    }
    let setup_failures = rep.tally.issued - rep.tally.verified;
    rep.speed.sample();
    let setup_speed = std::mem::take(&mut rep.speed);
    let setup_s = t0.elapsed().as_secs_f64() - setup_speed.seconds();

    // ---- the measured window ------------------------------------------
    let carried = std::mem::take(&mut rep.tally.failures);
    rep.tally = Tally {
        failures: carried,
        ..Tally::default()
    };
    rep.tracer = Tracer::new(traced);
    let before = rep.world.counters();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    rep.speed.sample();
    for number in 1..=rounds {
        let reqs = generator.round();
        rep.round(number as u32, &reqs);
    }
    rep.speed.sample();
    // The samples ran on this thread inside the interval: take them out
    // of both clocks.
    let window_s = start.elapsed().as_secs_f64() - rep.speed.seconds();
    let cpu_s = cpu_seconds() - cpu0 - rep.speed.seconds();
    let after = rep.world.counters();
    let hwm_kb = vm_hwm_kb();

    // Simulated counters, absolute since boot: on a single-threaded
    // deployment every repetition of one seed must agree on all of them.
    let sim_text = format!(
        "{:?}|{}|{}|{}|{}|{}",
        after.stats,
        after.work_cycles,
        after.elapsed_cycles,
        after.wire_frames,
        after.wire_bytes,
        after.forwards
    );
    let tally = &rep.tally;
    let mut out = vec![
        ("setup_s", Json::Num(setup_s)),
        ("setup_speed_ns", Json::Num(setup_speed.mean_ns())),
        ("window_s", Json::Num(window_s)),
        ("window_speed_ns", Json::Num(rep.speed.mean_ns())),
        ("cpu_s", Json::Num(cpu_s)),
        ("vm_hwm_kb", Json::Num(hwm_kb)),
        ("rounds", Json::Num(rounds as f64)),
        ("issued", Json::Num(tally.issued as f64)),
        ("verified", Json::Num(tally.verified as f64)),
        ("setup_failures", Json::Num(setup_failures as f64)),
        (
            "failures",
            Json::Arr(tally.failures.iter().map(Json::str).collect()),
        ),
        ("lat_us", Json::nums(&tally.lat_us)),
        (
            "sim_digest",
            Json::str(format!("{:016x}", fnv1a(sim_text.as_bytes()))),
        ),
        (
            "sim",
            Json::obj(vec![
                ("delivered", Json::Num(after.stats.delivered as f64)),
                ("work_cycles", Json::Num(after.work_cycles as f64)),
                ("cache_hits", Json::Num(after.stats.cache_hits as f64)),
                (
                    "xshard_msgs",
                    Json::Num((after.stats.xshard_subround + after.stats.xshard_barrier) as f64),
                ),
            ]),
        ),
    ];

    if traced {
        let layers = layer_table(&rep, &before, &after, window_s, workers);
        out.push((
            "layers",
            Json::Obj(
                layers
                    .into_iter()
                    .map(|(name, v)| (name.to_string(), v.map_or(Json::Null, Json::Num)))
                    .collect(),
            ),
        ));
        std::fs::create_dir_all(&out_dir).expect("create the trace directory");
        let path = out_dir.join(format!("spans-{}-seed{seed}.tsv", spec.name));
        rep.tracer.write_to(&path).expect("write spans");
        out.push(("spans_file", Json::str(path.display().to_string())));
    }
    Json::obj(out)
}

/// The per-layer metrics of a traced repetition. `None` means the layer
/// is absent from the workload.
fn layer_table(
    rep: &Rep,
    before: &Counters,
    after: &Counters,
    window_s: f64,
    workers: usize,
) -> Vec<(&'static str, Option<f64>)> {
    let spec = &rep.spec;
    let tally = &rep.tally;
    let n = tally.issued as f64;
    let req_ns = window_s * 1e9 / n;
    // Every host time in the table is brought to the reference host
    // speed, like the end-to-end metrics: spans and busy time by the
    // window's own speed samples, probes by samples taken around them.
    let host_speed = hostspeed::speed(rep.speed.mean_ns());
    let window_s = window_s * host_speed;
    let spans = rep.tracer.totals();
    let span_ns = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 * host_speed)
    };
    let (s0, s1) = (&before.stats, &after.stats);
    let gauges = rep.world.gauges();
    let per_req = |a: u64, b: u64| Some((b - a) as f64 / n);

    let sharded = spec.shards > 1;
    let fed = spec.kernels > 1;
    let has_db = spec.service == Service::Profile;

    let harness_ns = span_ns("open") + span_ns("run") + span_ns("poll") + span_ns("verify");
    // Time inside Kernel::run: the whole `run` span, except on a cluster,
    // where the span also holds the wire pump.
    let kernel_run_ns = if fed {
        span_ns("kernel0.run") + span_ns("kernelN.run")
    } else {
        span_ns("run")
    };
    let delivered = (s1.delivered - s0.delivered) as f64;
    let busy: Vec<f64> = after
        .shard_busy_ns
        .iter()
        .zip(&before.shard_busy_ns)
        .map(|(a, b)| (a - b) as f64 * host_speed)
        .collect();
    let busy_sum: f64 = busy.iter().sum();
    let busy_max = busy.iter().copied().fold(0.0, f64::max);
    let xshard = ((s1.xshard_subround - s0.xshard_subround)
        + (s1.xshard_barrier - s0.xshard_barrier)) as f64;
    let accepts: Vec<f64> = after
        .lane_accepts
        .iter()
        .zip(&before.lane_accepts)
        .map(|(a, b)| (a - b) as f64)
        .collect();
    let accepts_mean = accepts.iter().sum::<f64>() / accepts.len() as f64;
    let entries = &gauges.label_entries;

    let labels = match (&gauges.big_send, &gauges.big_recv) {
        (Some(send), Some(recv)) => Some(probe::label_ops(send, recv)),
        _ => None,
    };
    let http_parse_ns = probe::http_parse_ns(&tally.sample_request);
    let deliver_ns = probe::deliver_ns(entries[entries.len() / 2]);
    let pool_round_ns = sharded.then(|| probe::pool_round_ns(spec.shards, workers));
    let db = gauges
        .db_snapshot
        .as_deref()
        .filter(|_| has_db)
        .map(probe::db_ops);
    let store = rep.world.dev.as_ref().map(probe::store_ops);
    let frames = (after.wire_frames - before.wire_frames) as f64;
    let wire_bytes = (after.wire_bytes - before.wire_bytes) as f64;
    let wire = gauges
        .big_send
        .as_deref()
        .filter(|_| fed && frames > 0.0)
        .map(|es| probe::wire_ops(es, &tally.sample_request, wire_bytes / frames));

    let reads_per_req = tally.db_reads as f64 / n;
    let writes_per_req = tally.db_writes as f64 / n;
    let syncs = (after.syncs - before.syncs) as f64;
    let frames_per_req = frames / n;

    vec![
        ("harness.open_ns_per_req", Some(span_ns("open") / n)),
        ("harness.run_ns_per_req", Some(span_ns("run") / n)),
        ("harness.poll_ns_per_req", Some(span_ns("poll") / n)),
        ("harness.verify_ns_per_req", Some(span_ns("verify") / n)),
        (
            "harness.unattributed_share",
            Some(1.0 - harness_ns / (window_s * 1e9)),
        ),
        // Filled in by the orchestrator, which knows the untraced rate.
        ("harness.trace_overhead_frac", None),
        ("harness.host_speed", Some(host_speed)),
        ("kernel.delivered_per_req", Some(delivered / n)),
        (
            "kernel.run_ns_per_delivery",
            ratio(kernel_run_ns, delivered),
        ),
        (
            "kernel.virt_cycles_per_req",
            per_req(before.work_cycles, after.work_cycles),
        ),
        (
            "kernel.virt_req_per_s",
            ratio(
                n * CYCLES_PER_SEC as f64,
                (after.elapsed_cycles - before.elapsed_cycles) as f64,
            ),
        ),
        (
            "kernel.cache_hit_ratio",
            ratio(
                (s1.cache_hits - s0.cache_hits) as f64,
                ((s1.cache_hits - s0.cache_hits) + (s1.cache_misses - s0.cache_misses)) as f64,
            ),
        ),
        (
            "kernel.cache_evictions_per_req",
            per_req(s0.cache_evictions, s1.cache_evictions),
        ),
        (
            "kernel.cache_fill_frac",
            ratio(gauges.cache_len as f64, gauges.cache_cap as f64),
        ),
        (
            "kernel.drops_per_req",
            per_req(s0.dropped_total(), s1.dropped_total()),
        ),
        (
            "kernel.eps_created_per_req",
            per_req(s0.eps_created, s1.eps_created),
        ),
        (
            "kernel.eps_exited_per_req",
            per_req(s0.eps_exited, s1.eps_exited),
        ),
        (
            "kernel.ctx_switches_per_req",
            per_req(s0.context_switches, s1.context_switches),
        ),
        (
            "kernel.kmem_pages_per_session",
            ratio(gauges.kmem_pages as f64, gauges.sessions_live as f64),
        ),
        ("kernel.probe.deliver_ns", Some(deliver_ns)),
        (
            "kernel.rounds_per_req",
            per_req(s0.rounds, s1.rounds).filter(|_| sharded),
        ),
        (
            "kernel.worker_wakeups_per_req",
            per_req(s0.worker_wakeups, s1.worker_wakeups).filter(|_| sharded),
        ),
        (
            "kernel.xshard_msgs_per_req",
            Some(xshard / n).filter(|_| sharded),
        ),
        (
            "kernel.xshard_subround_frac",
            ratio((s1.xshard_subround - s0.xshard_subround) as f64, xshard).filter(|_| sharded),
        ),
        (
            "kernel.xshard_batch_mean",
            ratio(
                xshard,
                (s1.xshard_batch_drains - s0.xshard_batch_drains) as f64,
            )
            .filter(|_| sharded),
        ),
        (
            "kernel.shard_busy_ns_per_req",
            Some(busy_sum / n).filter(|_| sharded),
        ),
        (
            "kernel.busiest_shard_share",
            ratio(busy_max, busy_sum).filter(|_| sharded),
        ),
        // Pool handshake + barrier + routing: what `Kernel::run` takes
        // beyond its busiest shard's own draining.
        (
            "kernel.coord_ns_per_req",
            Some((kernel_run_ns - busy_max) / n).filter(|_| sharded),
        ),
        ("kernel.probe.pool_round_ns", pool_round_ns),
        (
            "kernel.tuner_actions",
            Some((after.tuner_actions - before.tuner_actions) as f64).filter(|_| sharded),
        ),
        (
            "kernel.steals",
            Some((s1.steals - s0.steals) as f64).filter(|_| sharded),
        ),
        (
            "kernel.cache_resizes",
            Some((s1.cache_resizes - s0.cache_resizes) as f64).filter(|_| sharded),
        ),
        ("labels.probe.leq_ns", labels.as_ref().map(|l| l.leq_ns)),
        ("labels.probe.lub_ns", labels.as_ref().map(|l| l.lub_ns)),
        ("labels.probe.glb_ns", labels.as_ref().map(|l| l.glb_ns)),
        (
            "labels.entries_p50",
            Some(entries[entries.len() / 2] as f64),
        ),
        ("labels.entries_max", entries.last().map(|&e| e as f64)),
        (
            "labels.clones_per_req",
            per_req(before.label_clones, after.label_clones),
        ),
        ("net.probe.http_parse_ns", Some(http_parse_ns)),
        ("net.req_bytes", Some(tally.req_bytes as f64 / n)),
        ("net.resp_bytes", Some(tally.resp_bytes as f64 / n)),
        (
            "net.lane_imbalance",
            ratio(accepts.iter().copied().fold(0.0, f64::max), accepts_mean),
        ),
        // Two parses a request: ok-demux peeks the head, the worker reads
        // the request in full.
        ("net.est_share", Some(2.0 * http_parse_ns / req_ns)),
        ("okws.cold_login_frac", Some(tally.cold as f64 / n)),
        ("okws.sessions_live", Some(gauges.sessions_live as f64)),
        ("db.reads_per_req", Some(reads_per_req).filter(|_| has_db)),
        ("db.writes_per_req", Some(writes_per_req).filter(|_| has_db)),
        ("db.probe.select_ns", db.as_ref().map(|d| d.select_ns)),
        ("db.probe.insert_ns", db.as_ref().map(|d| d.insert_ns)),
        ("db.rows_final", db.as_ref().map(|d| d.rows_final as f64)),
        (
            "db.est_share",
            db.as_ref()
                .map(|d| (reads_per_req * d.select_ns + writes_per_req * d.insert_ns) / req_ns),
        ),
        (
            "store.syncs_per_write",
            store
                .as_ref()
                .and_then(|_| ratio(syncs, tally.db_writes as f64)),
        ),
        (
            "store.wal_bytes_per_write",
            store.as_ref().map(|s| s.wal_bytes_per_write),
        ),
        (
            "store.probe.append_commit_ns",
            store.as_ref().map(|s| s.append_commit_ns),
        ),
        (
            "store.probe.recover_ms",
            store.as_ref().map(|s| s.recover_ms),
        ),
        (
            "store.est_share",
            store
                .as_ref()
                .map(|s| syncs / n * s.append_commit_ns / req_ns),
        ),
        (
            "cluster.frames_per_req",
            Some(frames_per_req).filter(|_| fed),
        ),
        (
            "cluster.wire_bytes_per_req",
            Some(wire_bytes / n).filter(|_| fed),
        ),
        (
            "cluster.forwards_per_req",
            per_req(before.forwards, after.forwards).filter(|_| fed),
        ),
        (
            "cluster.pump_ns_per_req",
            Some(span_ns("pump_wire") / n).filter(|_| fed),
        ),
        (
            "cluster.probe.encode_ns",
            wire.as_ref().map(|w| w.encode_ns),
        ),
        (
            "cluster.probe.decode_ns",
            wire.as_ref().map(|w| w.decode_ns),
        ),
        (
            "cluster.probe.conn_roundtrip_ns",
            wire.as_ref().map(|w| w.conn_roundtrip_ns),
        ),
        // A frame crosses two sockets (gateway → switch → gateway), which
        // is what one probe round trip costs.
        (
            "cluster.est_share",
            wire.as_ref()
                .map(|w| frames_per_req * w.conn_roundtrip_ns / req_ns),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(vm_hwm_kb() > 0.0);
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.02 {
            for i in 0..1_000_000u64 {
                x = x.wrapping_add(std::hint::black_box(i));
            }
        }
        std::hint::black_box(x);
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a(b"delivered: 1"), fnv1a(b"delivered: 2"));
    }
}
