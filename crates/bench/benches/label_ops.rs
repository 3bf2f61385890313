//! Microbenchmarks of the label algebra: `⊑`/`⊔`/`⊓` and the fused
//! delivery check at the label sizes the OKWS evaluation produces
//! (§5.6's linear scaling, measured on the host).
//!
//! The last group pins the asymptotics of the chunk-run merge without a
//! clock: at the label sizes `benchmark/` records (774 entries on
//! `hot-1x1`, 2,498 on `churn-4x4`) it prints how many entries each
//! operation examined one by one and how many chunks it allocated, and —
//! in `--test` mode too — asserts that a large label against a small one
//! costs the chunks the small one reaches into, not the large label.

use asbestos_labels::chunk::{Chunk, CHUNK_CAP};
use asbestos_labels::{ops, Handle, HandleCipher, Label, Level};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn label_with_entries(n: usize, level: Level) -> Label {
    let pairs: Vec<(Handle, Level)> = (0..n)
        .map(|i| (Handle::from_raw(i as u64 * 7 + 1), level))
        .collect();
    Label::from_pairs(Level::L1, &pairs)
}

fn bench_leq(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_leq");
    for &n in &[1usize, 64, 1024, 10_000, 20_000] {
        let a = label_with_entries(n, Level::Star);
        let b = label_with_entries(n, Level::L3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.leq(black_box(&b))))
        });
    }
    group.finish();
}

fn bench_lub(c: &mut Criterion) {
    let mut group = c.benchmark_group("label_lub");
    for &n in &[64usize, 1024, 10_000] {
        let a = label_with_entries(n, Level::Star);
        let b = label_with_entries(n, Level::L3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.lub(black_box(&b))))
        });
    }
    group.finish();
}

fn bench_lub_fast_path(c: &mut Criterion) {
    // The §5.6 min/max fast path: L ⊔ {⋆} clones instead of merging.
    let big = label_with_entries(10_000, Level::L3);
    let bottom = Label::bottom();
    c.bench_function("label_lub_fast_path_10000", |bench| {
        bench.iter(|| black_box(big.lub(black_box(&bottom))))
    });
}

fn bench_delivery_check(c: &mut Criterion) {
    // The kernel's hot path: E_S ⊑ (Q_R ⊔ D_R) ⊓ V ⊓ p_R with a
    // netd-shaped receive label (one taint handle raised per session).
    let mut group = c.benchmark_group("check_delivery");
    for &sessions in &[1usize, 1000, 10_000] {
        let es = label_with_entries(4, Level::L3);
        let qr = {
            let pairs: Vec<(Handle, Level)> = (0..sessions)
                .map(|i| (Handle::from_raw(i as u64 * 7 + 1), Level::L3))
                .collect();
            Label::from_pairs(Level::L2, &pairs)
        };
        let dr = Label::bottom();
        let v = Label::top();
        let pr = Label::top();
        group.bench_with_input(
            BenchmarkId::from_parameter(sessions),
            &sessions,
            |bench, _| bench.iter(|| black_box(ops::check_delivery(&es, &qr, &dr, &v, &pr))),
        );
    }
    group.finish();
}

fn bench_contamination(c: &mut Criterion) {
    let mut group = c.benchmark_group("apply_contamination");
    for &n in &[64usize, 1024, 10_000] {
        let qs = label_with_entries(n, Level::Star);
        let ds = Label::top();
        let es = label_with_entries(4, Level::L3);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(ops::apply_receive_contamination(&qs, &ds, &es)))
        });
    }
    group.finish();
}

/// Entries examined one at a time and chunks allocated by one run of `op`.
fn counted<R>(op: impl FnOnce() -> R) -> (u64, u64) {
    let before = (Label::entries_visited(), Chunk::alloc_count());
    black_box(op());
    (
        Label::entries_visited() - before.0,
        Chunk::alloc_count() - before.1,
    )
}

fn bench_okws_shapes(c: &mut Criterion) {
    // Handles as the kernel allocates them: spread over the 61-bit space,
    // so a few entries land in as many different chunks of a large label.
    let cipher = HandleCipher::new(7);
    let handle = |i: usize| Handle::from_raw(cipher.encrypt(i as u64));
    // Grown one `set` at a time, like a front end's label: chunks split
    // and fill the way the kernel's do.
    let grown = |default: Level, range: std::ops::Range<usize>, level: Level| {
        let mut label = Label::new(default);
        for i in range {
            label.set(handle(i), level);
        }
        label
    };
    let mut group = c.benchmark_group("okws_shapes");
    for &n in &[774usize, 2_498] {
        // A send label holding `⋆` for n handles, and the receive label of
        // a process that accepts taint in the same n compartments.
        let privileged = grown(Level::L1, 0..n, Level::Star);
        let accepting = grown(Level::L2, 0..n, Level::L3);
        // Partners: taint in k compartments — ones the large labels name
        // (so the checks pass), or fresh ones (so the effects change
        // something); "equal" is as large as the large label itself.
        let partners = [
            ("1", n - 1..n, n..n + 1),
            ("4", n - 4..n, n..n + 4),
            ("equal", 0..n, n / 2..n / 2 + n),
        ];
        // A port only its creator's friends may send to (§5.5).
        let port = Label::from_pairs(Level::L3, &[(handle(0), Level::L0)]);
        let (bottom, top) = (Label::bottom(), Label::top());
        for (size, named, fresh) in partners {
            let tainted = grown(Level::L1, named.clone(), Level::L3);
            let cleared = grown(Level::L2, named, Level::L3);
            let taint = grown(Level::Star, fresh.clone(), Level::L3);
            let tainting = grown(Level::L1, fresh, Level::L3);
            type Op<'a> = (&'static str, Box<dyn Fn() -> usize + 'a>);
            let ops: [Op; 4] = [
                // A worker's reply reaching a front end, and a front end's
                // message reaching a worker's port.
                (
                    "check_small_sender",
                    Box::new(|| {
                        ops::check_delivery(&tainted, &accepting, &bottom, &top, &top).into()
                    }),
                ),
                (
                    "check_large_sender",
                    Box::new(|| {
                        ops::check_delivery(&privileged, &cleared, &bottom, &top, &port).into()
                    }),
                ),
                ("lub", Box::new(|| privileged.join(&taint).entry_count())),
                (
                    "contaminate",
                    Box::new(|| {
                        ops::apply_receive_contamination(&privileged, &top, &tainting).entry_count()
                    }),
                ),
            ];
            for (name, op) in &ops {
                let (visited, allocated) = counted(op);
                println!(
                    "okws_shapes/{name}/{n}x{size}: {visited} entries visited, \
                     {allocated} chunks allocated"
                );
                if size != "equal" {
                    // Two passes (is anything changed? then build it) over
                    // the chunk each partner entry lands in, and a split.
                    let reached = tainted.entry_count() as u64;
                    assert!(
                        visited <= 3 * CHUNK_CAP as u64 * reached,
                        "{name} {n}x{size} walked {visited} entries"
                    );
                    assert!(
                        allocated <= 2 * reached,
                        "{name} {n}x{size} allocated {allocated} chunks"
                    );
                }
                group.bench_function(format!("{name}/{n}x{size}"), |bench| {
                    bench.iter(|| black_box(op()))
                });
            }
        }
    }
    group.finish();
}

fn bench_handle_alloc(c: &mut Criterion) {
    use asbestos_labels::HandleAllocator;
    c.bench_function("handle_alloc", |bench| {
        let mut alloc = HandleAllocator::new(7);
        bench.iter(|| black_box(alloc.alloc()))
    });
}

criterion_group!(
    benches,
    bench_leq,
    bench_lub,
    bench_lub_fast_path,
    bench_delivery_check,
    bench_contamination,
    bench_okws_shapes,
    bench_handle_alloc
);
criterion_main!(benches);
