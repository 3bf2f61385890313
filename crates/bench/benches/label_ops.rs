//! Microbenchmarks of the label algebra: `⊑`/`⊔`/`⊓` and the fused
//! delivery check at the label sizes the OKWS evaluation produces
//! (§5.6's linear scaling, measured on the host).
//!
//! The last two groups pin the asymptotics of the label evaluation without
//! a clock. `okws_shapes`, at the label sizes `benchmark/` records (774
//! entries on `hot-1x1`, 2,498 on `churn-4x4`), prints how many entries
//! each operation examined one by one and how many chunks it allocated,
//! and — in `--test` mode too — asserts that a large label against a small
//! one costs the small one's entries, not the large label. `hot_1x1`
//! rebuilds the labels of `hot-1x1`'s three processes and runs Figure 4 on
//! each sender → receiver pair with the same counters, so the next label
//! change is sized here rather than with a profiler. Its
//! `contaminate/grant->netd` case is the one-entry `D_S` grant that does
//! change a receiver's `Q_S`, and it asserts that the result allocates at
//! most the one chunk the grant lands in.

use asbestos_labels::chunk::{Chunk, CHUNK_CAP};
use asbestos_labels::{ops, Handle, HandleCipher, Label, Level};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::borrow::Cow;
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
                    // One pass: each partner entry is read once (the port
                    // adds one), and every chunk of the large label fits
                    // its mask.
                    let reached = tainted.entry_count() as u64;
                    assert!(
                        visited <= reached + 1,
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

fn bench_hot_1x1(c: &mut Criterion) {
    // `hot-1x1`'s 256 users, each with a taint uT, a grant uG and a session
    // port uW, plus a few live connections uC, all cipher-allocated.
    let cipher = HandleCipher::new(11);
    let handle = |i: usize| Handle::from_raw(cipher.encrypt(i as u64));
    let taint = |u: usize| handle(3 * u);
    let grant = |u: usize| handle(3 * u + 1);
    let session = |u: usize| handle(3 * u + 2);
    let conn = |k: usize| handle(1_000 + k);
    let users = 0..256;
    let label = |default, pairs: Vec<(Handle, Level)>| Label::from_pairs(default, &pairs);
    let stars = |hs: &mut dyn Iterator<Item = Handle>| hs.map(|h| (h, Level::Star)).collect();
    // netd holds uT ⋆ for every user it serves and uC ⋆ for its
    // connections (≈ 260); ok-demux every user's three handles and its
    // connections (≈ 776); both accept every user's taint.
    let netd_send = label(
        Level::L1,
        stars(&mut users.clone().map(taint).chain((0..4).map(conn))),
    );
    let demux_send = label(
        Level::L1,
        stars(
            &mut users
                .clone()
                .flat_map(|u| [taint(u), grant(u), session(u)])
                .chain((0..8).map(conn)),
        ),
    );
    let accepting = label(
        Level::L2,
        users.clone().map(|u| (taint(u), Level::L3)).collect(),
    );
    // User 7's worker event process: 8 entries, one of them its taint.
    let u = 7;
    let mut worker_pairs: Vec<(Handle, Level)> = stars(
        &mut [conn(0), grant(u), session(u)]
            .into_iter()
            .chain((2_000..2_004).map(handle)),
    );
    worker_pairs.push((taint(u), Level::L3));
    let worker_send = label(Level::L1, worker_pairs);
    let worker_recv = label(Level::L2, vec![(taint(u), Level::L3)]);
    // netd's port for connection uC, once the user's taint is registered.
    let uc_port = label(Level::L2, vec![(conn(0), Level::L0), (taint(u), Level::L3)]);
    let taint_u = label(Level::Star, vec![(taint(u), Level::L3)]);
    let handoff_grant = label(
        Level::L3,
        vec![(conn(0), Level::Star), (grant(u), Level::Star)],
    );
    let (bottom, top) = (Label::bottom(), Label::top());
    // E_S with a message's contamination: data leaving netd or ok-demux
    // for a worker carries uT 3.
    let tainted = |ps: &Label| ps.join(&taint_u).into_owned();
    let (netd_data, demux_handoff) = (tainted(&netd_send), tainted(&demux_send));
    // (sender -> receiver, E_S, D_S, the receiver's Q_S and Q_R, p_R)
    let pairs: [(&str, &Label, &Label, &Label, &Label, &Label); 6] = [
        (
            "netd->demux",
            &netd_send,
            &top,
            &demux_send,
            &accepting,
            &top,
        ),
        (
            "netd->worker",
            &netd_data,
            &top,
            &worker_send,
            &worker_recv,
            &top,
        ),
        (
            "demux->netd",
            &demux_send,
            &top,
            &netd_send,
            &accepting,
            &uc_port,
        ),
        (
            "demux->worker",
            &demux_handoff,
            &handoff_grant,
            &worker_send,
            &worker_recv,
            &top,
        ),
        (
            "worker->netd",
            &worker_send,
            &top,
            &netd_send,
            &accepting,
            &uc_port,
        ),
        (
            "worker->demux",
            &worker_send,
            &top,
            &demux_send,
            &accepting,
            &top,
        ),
    ];
    // One pass: the small operands' entries, each read once, and at most
    // one chunk of each large label — the one holding a taint its mask
    // leaves undecided.
    let one_pass = |labels: [&Label; 3]| -> u64 {
        let cost = |l: &Label| match l.chunk_count() {
            0 | 1 => l.entry_count(),
            _ => CHUNK_CAP,
        };
        labels.into_iter().map(cost).sum::<usize>() as u64
    };
    let mut group = c.benchmark_group("hot_1x1");
    for (name, es, ds, qs, qr, port) in pairs {
        let check = || ops::check_delivery(es, qr, &bottom, &top, port);
        let contaminate = || ops::apply_receive_contamination(qs, ds, es);
        assert!(check(), "{name} must deliver");
        for (op, (visited, allocated), bound) in [
            ("check", counted(check), one_pass([es, qr, port])),
            ("contaminate", counted(contaminate), one_pass([qs, ds, es])),
        ] {
            println!(
                "hot_1x1/{op}/{name}: {visited} entries visited, {allocated} chunks allocated"
            );
            assert!(visited <= bound, "{op} {name} visited {visited} > {bound}");
        }
        group.bench_function(format!("check/{name}"), |bench| {
            bench.iter(|| black_box(check()))
        });
        group.bench_function(format!("contaminate/{name}"), |bench| {
            bench.iter(|| black_box(contaminate()))
        });
    }
    // ok-demux granting netd ⋆ for a connection handle netd does not yet
    // hold (`D_S = {uC' ⋆, 3}`), the one-entry change of Q_S that a third
    // of netd's deliveries make: the result is a new label that allocates
    // only the chunk the grant lands in. netd's label is grown one handle
    // at a time in allocation order, as the kernel grows it, so the chunks
    // split in half and the one a fresh handle lands in has room.
    let mut netd_grown = Label::default_send();
    for h in users.clone().map(taint).chain((0..4).map(conn)) {
        netd_grown.set(h, Level::Star);
    }
    assert_eq!(netd_grown, netd_send);
    let fresh_grant = label(Level::L3, vec![(conn(4), Level::Star)]);
    let grant = || ops::apply_receive_contamination(&netd_grown, &fresh_grant, &demux_send);
    let (visited, allocated) = counted(grant);
    println!(
        "hot_1x1/contaminate/grant->netd: {visited} entries visited, {allocated} chunks allocated"
    );
    assert!(matches!(grant(), Cow::Owned(_)), "the grant changes Q_S");
    assert!(allocated <= 1, "grant->netd allocated {allocated} chunks");
    group.bench_function("contaminate/grant->netd", |bench| {
        bench.iter(|| black_box(grant()))
    });
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
    bench_hot_1x1,
    bench_handle_alloc
);
criterion_main!(benches);
