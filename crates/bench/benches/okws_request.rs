//! End-to-end OKWS request benchmarks: one full HTTP request through netd,
//! ok-demux, a worker event process, and back — at 1 and 1000 cached
//! sessions, a new session, and a store round trip (criterion host time
//! for the whole simulated pipeline; `benchmark/` is the clock for any
//! throughput claim).

use asbestos_bench::deploy;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_cached_request(c: &mut Criterion) {
    let mut group = c.benchmark_group("okws_cached_request");
    group.sample_size(20);
    for &sessions in &[1usize, 1000] {
        let mut env = deploy(77, sessions, true);
        // Build every session once.
        for i in 0..sessions {
            env.request_ok("bench", i, &[]);
        }
        let mut rr = 0usize;
        group.bench_with_input(
            BenchmarkId::from_parameter(sessions),
            &sessions,
            |bench, _| {
                bench.iter(|| {
                    rr = (rr + 1) % sessions;
                    env.request_ok("bench", rr, &[]);
                    black_box(env.kernel.now())
                })
            },
        );
    }
    group.finish();
}

fn bench_new_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("okws_new_session");
    group.sample_size(10);
    group.bench_function("request", |bench| {
        // Fresh users drawn from a large pre-registered pool; if a run ever
        // exhausts the pool, the tail iterations degrade to cached hits
        // rather than failing.
        let pool = 50_000;
        let mut env = deploy(78, pool, true);
        let mut next = 0usize;
        bench.iter(|| {
            let user = next % pool;
            next += 1;
            env.request_ok("bench", user, &[]);
            black_box(env.kernel.now())
        });
    });
    group.finish();
}

fn bench_store_roundtrip(c: &mut Criterion) {
    c.bench_function("okws_store_roundtrip", |bench| {
        let mut env = deploy(79, 1, true);
        env.request_ok("store", 0, &[("data", "seed")]);
        bench.iter(|| {
            env.request_ok("store", 0, &[("data", "next")]);
            black_box(env.kernel.now())
        });
    });
}

criterion_group!(
    benches,
    bench_cached_request,
    bench_new_session,
    bench_store_roundtrip
);
criterion_main!(benches);
