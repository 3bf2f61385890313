//! Federation at scale: the Baseline scenario counted across a
//! multi-kernel cluster of 1 and 2 kernels.
//!
//! Each row is one deployment point of the scenario engine
//! (`asbestos_loadgen::run_scenario` with `Baseline::kernels` set): front
//! end on kernel 0, workers on the rest, every request/response crossing
//! a link between two kernels as serialized frames with labels in wire
//! form. Alongside the scenario's counts, each row records what the wire
//! saw — frames, bytes and routed `Forward`s — so what federation sends
//! is tracked in version control.
//!
//! **Always-on gate:** every row must equal the committed
//! `BENCH_cluster.json` exactly, in `--test` mode (CI smoke) and in a
//! full run alike. The counts are deterministic under the seed, so any
//! change to what the gateways send, or to how it is encoded, fails CI
//! until the file is regenerated on purpose: delete it and rerun.

use asbestos_bench::report::{pin_against_committed, BenchReport};
use asbestos_loadgen::{run_scenario, Baseline};
use criterion::{criterion_group, criterion_main, Criterion};

/// The federation sweep: the kernel count.
const SWEEP: [usize; 2] = [1, 2];

fn bench_cluster(c: &mut Criterion) {
    let mut report = BenchReport::new("cluster");

    for kernels in SWEEP {
        let mut scenario = Baseline {
            users: 64,
            requests: 512,
            kernels,
        };
        // `Baseline::check` asserts nothing was lost and nothing shed.
        let r = run_scenario(&mut scenario, 0xFED0);
        if kernels > 1 {
            assert!(
                r.forwarded as usize >= r.issued,
                "requests never crossed the wire"
            );
        }
        println!(
            "{} | wire: {} frames, {} bytes, {} forwards",
            r.summary_line(),
            r.wire_frames,
            r.wire_bytes,
            r.forwarded
        );
        let mut fields = vec![("kernels", r.kernels as f64)];
        fields.extend(r.counts().iter().map(|&(k, v)| (k, v as f64)));
        fields.extend([
            ("wire_frames", r.wire_frames as f64),
            ("wire_bytes", r.wire_bytes as f64),
            ("forwarded", r.forwarded as f64),
        ]);
        // Rows keep the `engines x lanes` names they had when a kernel
        // could run several engines and netd several lanes; a kernel now
        // runs one engine behind one netd.
        let name = format!("baseline-fed/k{}/1x1", r.kernels);
        report.push_row(name, &fields);
    }

    pin_against_committed(&report, "cluster");

    // Keep the benchmark visible in `--test` listings.
    c.bench_function("cluster/federated-baseline", |b| b.iter(|| ()));
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
