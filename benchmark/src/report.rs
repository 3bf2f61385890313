//! The orchestrator's side: spawn repetitions, fold them into a
//! workload's metrics, print, write result files, compare two of them.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::hostspeed;
use crate::json::{parse, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, rel_spread};
use crate::workload::{Spec, CLIENTS};
use crate::REPS;

/// The host record every result carries: without it nobody can tell
/// physics from coordinator overhead.
pub struct Host {
    home: PathBuf,
    exe: PathBuf,
    seed: u64,
    parallelism: usize,
    /// `Kernel::set_worker_threads` budget: min(2, parallelism), so the
    /// generating process never runs more threads than the host has cores.
    workers: usize,
    profile: &'static str,
    rustc: String,
    commit: String,
    /// `ASBESTOS_*` variables removed from every repetition's environment.
    scrubbed: Vec<String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Host {
    pub fn probe(home: &Path, seed: u64) -> Host {
        let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
        let mut scrubbed: Vec<String> = std::env::vars_os()
            .filter_map(|(k, _)| k.into_string().ok())
            .filter(|k| k.starts_with("ASBESTOS_"))
            .collect();
        scrubbed.sort();
        Host {
            home: home.to_path_buf(),
            exe: std::env::current_exe().expect("path of this executable"),
            seed,
            parallelism,
            workers: parallelism.min(2),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: command_line("rustc", &["-V"]),
            commit: command_line(
                "git",
                &["-C", &home.display().to_string(), "rev-parse", "HEAD"],
            ),
            scrubbed,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("available_parallelism", Json::Num(self.parallelism as f64)),
            ("worker_budget", Json::Num(self.workers as f64)),
            ("build_profile", Json::str(self.profile)),
            ("rustc", Json::str(&self.rustc)),
            ("git_commit", Json::str(&self.commit)),
            ("seed", Json::Num(self.seed as f64)),
            (
                "scrubbed_env",
                Json::Arr(self.scrubbed.iter().map(Json::str).collect()),
            ),
        ])
    }

    /// Runs one repetition in a fresh process and returns its result object.
    fn repetition(&self, spec: &Spec, rounds: usize, traced: bool) -> Result<Json, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--home")
            .arg(&self.home)
            .args(["--workload", spec.name])
            .args(["--seed", &self.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .args(["--rep-rounds", &rounds.to_string()])
            .args(["--rep-workers", &self.workers.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        for name in &self.scrubbed {
            cmd.env_remove(name);
        }
        // `output` waits for the child, so no process outlives this call.
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start a repetition: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "{} repetition ended with {}",
                spec.name, out.status
            ));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .last()
            .ok_or("a repetition printed nothing")?;
        parse(line).map_err(|e| format!("unreadable repetition result: {e}"))
    }
}

fn num(rep: &Json, key: &str) -> f64 {
    rep.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

pub struct WorkloadResult {
    pub spec: Spec,
    rounds_per_rep: usize,
    /// The untraced repetitions, in run order.
    reps: Vec<Json>,
    traced: Option<Json>,
    /// The timing metrics at the reference host speed: what is reported.
    scaled: Timing,
    /// The same metrics in host time exactly as measured.
    raw: Timing,
    /// Median host speed of the measured windows (1 = reference speed).
    host_speed: f64,
    /// Value per `PER_LAYER` entry; `None` when the layer is absent.
    per_layer: Vec<Option<f64>>,
    attempted: u64,
    failed: u64,
    fail_frac: f64,
    failures: Vec<String>,
    /// Problems that make the run incorrect beyond failed requests.
    errors: Vec<String>,
    sim_digest: Option<String>,
    /// (counter, (max − min) ÷ median over repetitions) where threads may move it.
    sim_spread: Vec<(String, f64)>,
}

/// Runs a workload's repetitions: `full` runs all [`REPS`] untraced ones
/// (the end-to-end metrics); `traced` adds the traced one (the per-layer
/// metrics), preceded by a single untraced repetition when `full` is off
/// so that tracing overhead still has its reference.
pub fn run_workload(
    host: &Host,
    spec: &Spec,
    seconds: f64,
    full: bool,
    traced: bool,
) -> Result<WorkloadResult, String> {
    let rounds = spec.rounds(seconds, REPS);
    let untraced = if full { REPS } else { 1 };
    let reps: Vec<Json> = (0..untraced)
        .map(|_| host.repetition(spec, rounds, false))
        .collect::<Result<_, _>>()?;
    let traced = traced
        .then(|| host.repetition(spec, rounds, true))
        .transpose()?;
    Ok(fold(spec, rounds, reps, traced))
}

/// The timing metrics of a set of repetitions.
struct Timing {
    /// Value per `END_TO_END` entry; `None` when the run cannot support it.
    end_to_end: Vec<Option<f64>>,
    /// Printed and recorded, never bounded (see `metrics::END_TO_END`).
    lat_p99_us: Option<f64>,
    lat_samples: usize,
    lat_rounds: usize,
}

/// Host speed of a repetition's interval relative to the reference
/// (`hostspeed::NOMINAL_NS`); 1 when `scaled` is off, which leaves host
/// time as measured.
fn speed_of(rep: &Json, key: &str, scaled: bool) -> f64 {
    if scaled {
        hostspeed::speed(num(rep, key))
    } else {
        1.0
    }
}

/// Medians over repetitions and percentiles over their pooled latencies.
/// With `scaled`, each repetition's times are first brought to the
/// reference host speed by its own speed samples (see `hostspeed`).
fn timing(reps: &[Json], scaled: bool) -> Timing {
    let each = |f: &dyn Fn(&Json, f64) -> f64| -> Vec<f64> {
        reps.iter()
            .map(|r| f(r, speed_of(r, "window_speed_ns", scaled)))
            .collect()
    };
    let mut lat: Vec<f64> = Vec::new();
    for r in reps {
        let speed = speed_of(r, "window_speed_ns", scaled);
        let samples = r.get("lat_us").map(Json::as_arr).unwrap_or_default();
        lat.extend(samples.iter().filter_map(Json::as_f64).map(|us| us * speed));
    }
    lat.sort_by(f64::total_cmp);
    let lat_rounds: usize = reps.iter().map(|r| num(r, "rounds") as usize).sum();
    let setups: Vec<f64> = reps
        .iter()
        .map(|r| num(r, "setup_s") * speed_of(r, "setup_speed_ns", scaled))
        .collect();
    Timing {
        end_to_end: vec![
            Some(median(&each(&|r, speed| rate(r) / speed))),
            percentile(&lat, lat_rounds, 50.0),
            percentile(&lat, lat_rounds, 95.0),
            Some(median(&each(&|r, speed| {
                num(r, "cpu_s") * 1e6 / num(r, "issued") * speed
            }))),
            Some(median(&each(&|r, _| num(r, "vm_hwm_kb") / 1024.0))),
            Some(median(&setups)),
        ],
        lat_p99_us: percentile(&lat, lat_rounds, 99.0),
        lat_samples: lat.len(),
        lat_rounds,
    }
}

/// Verified requests per host second of a repetition's window.
fn rate(rep: &Json) -> f64 {
    num(rep, "verified") / num(rep, "window_s")
}

fn fold(
    spec: &Spec,
    rounds_per_rep: usize,
    reps: Vec<Json>,
    traced: Option<Json>,
) -> WorkloadResult {
    let scaled = timing(&reps, true);
    let raw = timing(&reps, false);
    let host_speed = median(
        &reps
            .iter()
            .map(|r| speed_of(r, "window_speed_ns", true))
            .collect::<Vec<f64>>(),
    );

    let all: Vec<&Json> = reps.iter().chain(&traced).collect();
    let attempted: f64 = all.iter().map(|r| num(r, "issued")).sum();
    let failed: f64 = all
        .iter()
        .map(|r| num(r, "issued") - num(r, "verified") + num(r, "setup_failures"))
        .sum();
    let fail_frac = all
        .iter()
        .map(|r| (num(r, "issued") - num(r, "verified")) / num(r, "issued"))
        .fold(0.0, f64::max);
    let failures: Vec<String> = all
        .iter()
        .flat_map(|r| r.get("failures").map(Json::as_arr).unwrap_or_default())
        .filter_map(|f| f.as_str().map(str::to_string))
        .collect();

    // Determinism cross-check. The traced repetition takes part: spans
    // are outside the simulation and must not change a simulated count.
    let digests: Vec<&str> = all
        .iter()
        .filter_map(|r| r.get("sim_digest").and_then(Json::as_str))
        .collect();
    let mut errors = Vec::new();
    let mut sim_digest = None;
    let mut sim_spread = Vec::new();
    if spec.deterministic {
        if digests.windows(2).all(|w| w[0] == w[1]) {
            sim_digest = digests.first().map(|d| d.to_string());
        } else {
            errors.push(format!(
                "{}: simulated counters differ between repetitions of one seed: {}",
                spec.name,
                digests.join(" ")
            ));
        }
    } else if let Some(first) = all.first() {
        for (counter, _) in first.get("sim").map(Json::as_obj).unwrap_or_default() {
            let values: Vec<f64> = all
                .iter()
                .filter_map(|r| r.get("sim")?.get(counter)?.as_f64())
                .collect();
            sim_spread.push((counter.clone(), rel_spread(&values)));
        }
    }

    let per_layer = PER_LAYER
        .iter()
        .map(|def| {
            let layers = traced.as_ref()?.get("layers")?;
            if def.name == "harness.trace_overhead_frac" {
                let traced = traced.as_ref()?;
                let traced_rate = rate(traced) / speed_of(traced, "window_speed_ns", true);
                return Some(1.0 - traced_rate / scaled.end_to_end[0]?);
            }
            layers.get(def.name)?.as_f64()
        })
        .collect();

    WorkloadResult {
        spec: spec.clone(),
        rounds_per_rep,
        scaled,
        raw,
        host_speed,
        per_layer,
        attempted: attempted as u64,
        failed: failed as u64,
        fail_frac,
        failures,
        errors,
        sim_digest,
        sim_spread,
        reps,
        traced,
    }
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// `workload metric unit value` lines; `#` lines are commentary.
    pub fn print(&self) {
        let w = self.spec.name;
        println!(
            "# {w}: {} untraced repetition(s) x {} measured rounds x {CLIENTS} clients, {} warm-up rounds",
            self.reps.len(),
            self.rounds_per_rep,
            self.spec.warmup_rounds
        );
        let list = |key: &str| -> String {
            let values: Vec<String> = self
                .reps
                .iter()
                .map(|r| format!("{:.2}", num(r, key)))
                .collect();
            values.join(" ")
        };
        println!(
            "# {w}: measured windows {} s after set-ups of {} s",
            list("window_s"),
            list("setup_s")
        );
        let show = |name: &str, unit: &str, value: Option<f64>| match value {
            Some(v) => println!("{w} {name} {unit} {v}"),
            None => println!("{w} {name} {unit} n/a"),
        };
        for (def, value) in END_TO_END.iter().zip(&self.scaled.end_to_end) {
            show(def.name, def.unit, *value);
        }
        show("lat_p99_us", "us", self.scaled.lat_p99_us);
        println!("{w} fail_frac frac {}", self.fail_frac);
        println!("{w} host_speed ratio {}", self.host_speed);
        for (def, value) in END_TO_END.iter().zip(&self.raw.end_to_end) {
            // Memory is not a time: scaled and raw are the same number.
            if def.name != "peak_rss_mb" {
                show(&format!("raw.{}", def.name), def.unit, *value);
            }
        }
        show("raw.lat_p99_us", "us", self.raw.lat_p99_us);
        println!(
            "# {w}: latency percentiles over {} samples from {} rounds",
            self.scaled.lat_samples, self.scaled.lat_rounds
        );
        if self.scaled.end_to_end.iter().any(Option::is_none) || self.scaled.lat_p99_us.is_none() {
            println!("# {w}: n/a = fewer than 10 rounds beyond the percentile; lengthen --seconds");
        }
        match &self.sim_digest {
            Some(d) => println!("{w} sim_digest hash {d}"),
            None => {
                for (counter, spread) in &self.sim_spread {
                    println!("{w} sim_spread.{counter} frac {spread}");
                }
            }
        }
        if self.traced.is_some() {
            for (def, value) in PER_LAYER.iter().zip(&self.per_layer) {
                show(def.name, def.unit, *value);
            }
            let covered = 1.0 - self.layer("harness.unattributed_share").unwrap_or(0.0);
            println!(
                "# {w}: harness open+run+poll+verify cover {:.1}% of request time",
                covered * 100.0
            );
        }
        for line in self.failures.iter().chain(&self.errors) {
            println!("# FAILED {line}");
        }
    }

    fn layer(&self, name: &str) -> Option<f64> {
        let at = PER_LAYER.iter().position(|d| d.name == name)?;
        self.per_layer[at]
    }

    /// The object the benchmark driver reads from the last line.
    pub fn driver_line(&self, trace: bool) -> Result<Json, String> {
        let metric = |name: &str, unit: &str, v: f64| {
            (
                name.to_string(),
                Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(unit))]),
            )
        };
        let metrics: Vec<(String, Json)> = if trace {
            // A layer absent from the workload reads zero.
            PER_LAYER
                .iter()
                .zip(&self.per_layer)
                .map(|(d, v)| metric(d.name, d.unit, v.unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.scaled.end_to_end)
                .map(|(d, v)| {
                    v.map(|v| metric(d.name, d.unit, v)).ok_or_else(|| {
                        format!(
                            "{}: {} needs 10 rounds beyond the percentile and the run pooled {}; lengthen --seconds",
                            self.spec.name, d.name, self.scaled.lat_rounds
                        )
                    })
                })
                .collect::<Result<_, _>>()?
        };
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ]))
    }

    fn to_json(&self) -> Json {
        let table = |defs: &[crate::metrics::MetricDef], values: &[Option<f64>]| {
            Json::Obj(
                defs.iter()
                    .zip(values)
                    .map(|(d, v)| (d.name.to_string(), v.map_or(Json::Null, Json::Num)))
                    .collect(),
            )
        };
        let rep_row = |r: &Json| {
            Json::obj(vec![
                ("raw_req_per_s", Json::Num(rate(r))),
                (
                    "host_speed",
                    Json::Num(speed_of(r, "window_speed_ns", true)),
                ),
                ("window_s", Json::Num(num(r, "window_s"))),
                ("setup_s", Json::Num(num(r, "setup_s"))),
                (
                    "raw_cpu_us_per_req",
                    Json::Num(num(r, "cpu_s") * 1e6 / num(r, "issued")),
                ),
                ("peak_rss_mb", Json::Num(num(r, "vm_hwm_kb") / 1024.0)),
                (
                    "sim_digest",
                    r.get("sim_digest").cloned().unwrap_or(Json::Null),
                ),
            ])
        };
        Json::obj(vec![
            ("why", Json::str(self.spec.why)),
            (
                "measured_rounds_per_repetition",
                Json::Num(self.rounds_per_rep as f64),
            ),
            ("warmup_rounds", Json::Num(self.spec.warmup_rounds as f64)),
            ("clients", Json::Num(CLIENTS as f64)),
            ("end_to_end", table(END_TO_END, &self.scaled.end_to_end)),
            (
                "lat_p99_us",
                self.scaled.lat_p99_us.map_or(Json::Null, Json::Num),
            ),
            ("host_speed", Json::Num(self.host_speed)),
            ("raw_host_time", table(END_TO_END, &self.raw.end_to_end)),
            (
                "raw_lat_p99_us",
                self.raw.lat_p99_us.map_or(Json::Null, Json::Num),
            ),
            ("fail_frac", Json::Num(self.fail_frac)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("latency_samples", Json::Num(self.scaled.lat_samples as f64)),
            ("latency_rounds", Json::Num(self.scaled.lat_rounds as f64)),
            (
                "sim_digest",
                self.sim_digest.as_ref().map_or(Json::Null, Json::str),
            ),
            (
                "sim_spread",
                Json::Obj(
                    self.sim_spread
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("per_layer", table(PER_LAYER, &self.per_layer)),
            (
                "repetitions",
                Json::Arr(self.reps.iter().map(rep_row).collect()),
            ),
            (
                "spans_file",
                self.traced
                    .as_ref()
                    .and_then(|t| t.get("spans_file").cloned())
                    .unwrap_or(Json::Null),
            ),
        ])
    }
}

pub fn write_results(
    path: &Path,
    host: &Host,
    seconds: f64,
    results: &[WorkloadResult],
) -> Result<(), String> {
    let doc = Json::obj(vec![
        ("host", host.to_json()),
        ("seconds", Json::Num(seconds)),
        (
            "workloads",
            Json::Obj(
                results
                    .iter()
                    .map(|r| (r.spec.name.to_string(), r.to_json()))
                    .collect(),
            ),
        ),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn benchmark_json(home: &Path) -> Result<Json, String> {
    read_json(&home.join("..").join("BENCHMARK.json"))
}

/// `run_seconds` of `BENCHMARK.json`: what a run measures by default.
pub fn default_seconds(home: &Path) -> Result<f64, String> {
    benchmark_json(home)?
        .get("run_seconds")
        .and_then(Json::as_f64)
        .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string())
}

/// Set-up may also move by this much before it counts as worse: a quarter
/// of a second is below what the host's scheduler adds on its own.
const SETUP_SLACK_S: f64 = 0.25;

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    let rel = (b - a) / a;
    if better == "higher" {
        -rel
    } else {
        rel
    }
}

/// One PASS/FAIL row per (workload, end-to-end metric) of two result
/// files, against the bounds in `BENCHMARK.json`. `Ok(false)` on any FAIL.
pub fn compare(home: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bench = benchmark_json(home)?;
    let bound_of = |metric: &str| {
        bench
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(metric))
            .and_then(|e| e.get("bound")?.as_f64())
            .ok_or_else(|| format!("BENCHMARK.json gives no bound for {metric}"))
    };
    let (a, b) = (read_json(a)?, read_json(b)?);
    let verdict = |pass: bool| if pass { "PASS" } else { "FAIL" };
    let mut all_pass = true;
    println!("workload metric unit A B worse_by bound verdict");
    for (name, wa) in a.get("workloads").map(Json::as_obj).unwrap_or_default() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            println!("{name} - - - - - - MISSING");
            all_pass = false;
            continue;
        };
        for def in END_TO_END {
            let (metric, unit) = (def.name, def.unit);
            let bound = bound_of(metric)?;
            let value = |w: &Json| w.get("end_to_end")?.get(metric)?.as_f64();
            let (Some(va), Some(vb)) = (value(wa), value(wb)) else {
                println!("{name} {metric} {unit} n/a n/a - {bound} FAIL");
                all_pass = false;
                continue;
            };
            let worse = worsening(def.better, va, vb);
            let slack = metric == "setup_s" && (vb - va) <= SETUP_SLACK_S;
            let pass = worse <= bound || slack;
            all_pass &= pass;
            println!(
                "{name} {metric} {unit} {va} {vb} {worse:+.4} {bound} {}",
                verdict(pass)
            );
        }
        // Any increase in failed requests is a regression.
        let frac = |w: &Json| w.get("fail_frac").and_then(Json::as_f64).unwrap_or(1.0);
        let pass = frac(wb) <= frac(wa);
        all_pass &= pass;
        println!(
            "{name} fail_frac frac {} {} - 0 {}",
            frac(wa),
            frac(wb),
            verdict(pass)
        );
    }
    Ok(all_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(rate: f64, setup: f64, lat: &[f64], verified: f64, digest: &str) -> Json {
        rep_of(400.0, rate, setup, lat, verified, digest)
    }

    fn rep_of(
        rounds: f64,
        rate: f64,
        setup: f64,
        lat: &[f64],
        verified: f64,
        digest: &str,
    ) -> Json {
        Json::obj(vec![
            ("setup_s", Json::Num(setup)),
            ("setup_speed_ns", Json::Num(hostspeed::NOMINAL_NS)),
            ("window_s", Json::Num(verified / rate)),
            ("window_speed_ns", Json::Num(hostspeed::NOMINAL_NS)),
            ("cpu_s", Json::Num(1.0)),
            ("vm_hwm_kb", Json::Num(2048.0)),
            ("rounds", Json::Num(rounds)),
            ("issued", Json::Num(6400.0)),
            ("verified", Json::Num(verified)),
            ("setup_failures", Json::Num(0.0)),
            ("failures", Json::Arr(vec![])),
            ("lat_us", Json::nums(lat)),
            ("sim_digest", Json::str(digest)),
            ("sim", Json::obj(vec![("delivered", Json::Num(10.0))])),
        ])
    }

    fn spec(name: &str) -> Spec {
        crate::workload::specs()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap()
    }

    #[test]
    fn fold_takes_medians_and_pools_latency() {
        let reps = vec![
            rep(4000.0, 0.5, &[10.0, 30.0], 6400.0, "aa"),
            rep(2500.0, 0.9, &[20.0, 40.0], 6400.0, "aa"),
            rep(4100.0, 0.6, &[50.0, 60.0], 6400.0, "aa"),
        ];
        let r = fold(&spec("hot-1x1"), 400, reps, None);
        let e2e = |name: &str| {
            r.scaled.end_to_end[END_TO_END.iter().position(|d| d.name == name).unwrap()]
        };
        assert!(
            (e2e("req_per_s").unwrap() - 4000.0).abs() < 1e-6,
            "median, not mean"
        );
        assert_eq!(e2e("setup_s"), Some(0.6));
        assert_eq!(
            e2e("lat_p50_us"),
            Some(30.0),
            "pooled over all three repetitions"
        );
        assert_eq!(e2e("peak_rss_mb"), Some(2.0));
        assert_eq!((r.scaled.lat_samples, r.scaled.lat_rounds), (6, 1200));
        assert_eq!(r.sim_digest.as_deref(), Some("aa"));
        assert!(r.correct());
        assert_eq!(r.attempted, 19_200);
        let line = r.driver_line(false).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            line.get("metrics").unwrap().as_obj().len(),
            END_TO_END.len()
        );
    }

    #[test]
    fn fold_flags_wrong_bodies_and_diverging_counters() {
        let reps = vec![
            rep(4000.0, 0.5, &[10.0], 6400.0, "aa"),
            rep(4000.0, 0.5, &[10.0], 6399.0, "ab"),
        ];
        let r = fold(&spec("hot-1x1"), 400, reps, None);
        assert_eq!(r.failed, 1);
        assert!((r.fail_frac - 1.0 / 6400.0).abs() < 1e-12);
        assert_eq!(
            r.errors.len(),
            1,
            "digest mismatch on a single-threaded workload"
        );
        assert!(!r.correct());
        // Too few rounds for a p95: the driver line refuses rather than guesses.
        let short = fold(
            &spec("hot-1x1"),
            150,
            vec![rep_of(150.0, 1.0, 1.0, &[1.0], 2400.0, "aa")],
            None,
        );
        assert!(short.driver_line(false).is_err());
        assert_eq!(short.scaled.lat_p99_us, None);
        // On a threaded workload the digests may differ; the spread is shown instead.
        let threaded = fold(
            &spec("hot-4x4"),
            400,
            vec![
                rep(1.0, 1.0, &[1.0], 6400.0, "aa"),
                rep(1.0, 1.0, &[1.0], 6400.0, "ab"),
            ],
            None,
        );
        assert!(threaded.correct());
        assert_eq!(threaded.sim_spread, vec![("delivered".to_string(), 0.0)]);
    }

    #[test]
    fn fold_brings_each_repetition_to_the_reference_host_speed() {
        // Same program, same work: one repetition met a host running 25 %
        // faster than the reference, the others the reference speed.
        let mut fast = rep(5000.0, 0.4, &[80.0; 4], 6400.0, "aa");
        if let Json::Obj(pairs) = &mut fast {
            for (key, value) in pairs {
                if key.ends_with("_speed_ns") {
                    *value = Json::Num(hostspeed::NOMINAL_NS / 1.25);
                }
            }
        }
        let slow = rep(4000.0, 0.5, &[100.0; 4], 6400.0, "aa");
        let r = fold(&spec("hot-1x1"), 400, vec![fast, slow.clone(), slow], None);
        for (scaled, raw) in r.scaled.end_to_end.iter().zip(&r.raw.end_to_end) {
            assert!(scaled.is_some() && raw.is_some());
        }
        assert!((r.scaled.end_to_end[0].unwrap() - 4000.0).abs() < 1e-6);
        assert!(
            (r.scaled.end_to_end[1].unwrap() - 100.0).abs() < 1e-9,
            "80 us on the fast host is 100 us at reference"
        );
        assert!((r.scaled.end_to_end[5].unwrap() - 0.5).abs() < 1e-9);
        assert_eq!(
            r.raw.end_to_end[1],
            Some(100.0),
            "the raw median is still host time as measured"
        );
        assert!((r.host_speed - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening("lower", 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worsening("lower", 2.0, 2.5) - 0.25).abs() < 1e-12);
    }
}
