//! Scenario counts at scale: the `asbestos-loadgen` workloads run end to
//! end on the paper-faithful deployment, one kernel behind one netd.
//!
//! Each row is one scenario: open-loop arrivals,
//! a Zipf-skewed population, a full reboot-and-login storm, and a 10×
//! flood whose excess the attacker's worker sheds. A row holds counts
//! only — requests issued, completed, aborted and retried, messages
//! delivered and dropped, the deepest queue — and every scenario runs
//! under a fixed seed, so each count is a function of the code.
//!
//! **Always-on gate:** every row must equal the committed
//! `BENCH_latency.json` exactly, in `--test` mode (CI smoke) and in a
//! full run alike; the two run the same sizes. To regenerate on purpose,
//! delete the file and rerun `cargo bench -p asbestos-bench --bench
//! loadgen`. Latency in host time is `benchmark/`'s; Figure 8's closed
//! loop is the `fig8_latency` binary's.

use asbestos_bench::report::{pin_against_committed, BenchReport};
use asbestos_loadgen::{
    run_scenario, Baseline, LoginStorm, ScenarioReport, SustainedFlood, ZipfChurn,
};
use criterion::{criterion_group, criterion_main, Criterion};

fn push_scenario(report: &mut BenchReport, r: &ScenarioReport) {
    println!("{}", r.summary_line());
    let fields: Vec<(&str, f64)> = r.counts().iter().map(|&(k, v)| (k, v as f64)).collect();
    // Rows keep the `engines x lanes` names they had when a kernel could
    // run several engines and netd several lanes; a kernel now runs one
    // engine behind one netd.
    report.push_row(format!("{}/1x1", r.scenario), &fields);
}

fn bench_loadgen(c: &mut Criterion) {
    let mut report = BenchReport::new("latency");

    let mut baseline = Baseline {
        users: 64,
        requests: 512,
        kernels: 1,
    };
    let r = run_scenario(&mut baseline, 0xBA5E);
    push_scenario(&mut report, &r);

    // Heavy-tailed churn over a large population: Zipf-ranked users,
    // logouts, and mid-stream disconnects.
    let r = run_scenario(&mut ZipfChurn::new(10_000, 600, 1.1), 0x21BF);
    push_scenario(&mut report, &r);

    // Reboot and make the whole population log back in at once.
    let r = run_scenario(&mut LoginStorm::new(96), 0x5708);
    push_scenario(&mut report, &r);

    // Flood: one attacker at 10× the victim's rate; what its session
    // worker sheds is retried to completion.
    let mut flood = SustainedFlood {
        requests: 440,
        flood_factor: 10,
    };
    let r = run_scenario(&mut flood, 0xF100);
    push_scenario(&mut report, &r);

    pin_against_committed(&report, "latency");

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("loadgen/scenarios", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_loadgen);
criterion_main!(benches);
