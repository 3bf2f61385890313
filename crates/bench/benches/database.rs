//! Database microbenchmarks: the SQLite-substitute engine's point lookups,
//! scans, and writes — the OKDB cost of Figure 9 at the engine level.
//!
//! A scan costs its table (the WHERE clause is bound once per statement,
//! so the per-row test compares borrowed values and allocates nothing); a
//! probe costs the posting list of one declared index. OKWS declares an
//! index on `profiles.owner` and leaves `okws_users` a scan on purpose —
//! the two `login_lookup` groups below are that choice, measured.

use asbestos_db::{Database, SqlValue};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn users_db(n: usize, indexed: bool) -> Database {
    let mut db = Database::new();
    db.run("CREATE TABLE okws_users (name, pw)").unwrap();
    if indexed {
        db.run("CREATE INDEX ON okws_users (name)").unwrap();
    }
    for i in 0..n {
        db.run_with_params(
            "INSERT INTO okws_users VALUES (?, ?)",
            &[
                SqlValue::Text(format!("u{i}")),
                SqlValue::Text(format!("pw{i}")),
            ],
        )
        .unwrap();
    }
    db
}

fn bench_login_lookup(c: &mut Criterion) {
    // The idd authentication query, at the user counts of the sweep. The
    // unindexed variant is what OKWS runs (the paper's "unoptimized
    // SQLite" behaviour); the indexed variant shows what the engine could
    // do — the gap is Figure 9's OKDB growth.
    let mut group = c.benchmark_group("login_lookup_scan");
    for &n in &[100usize, 1000, 10_000] {
        let mut db = users_db(n, false);
        let params = [
            SqlValue::Text(format!("u{}", n / 2)),
            SqlValue::Text(format!("pw{}", n / 2)),
        ];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                black_box(
                    db.run_with_params(
                        "SELECT name FROM okws_users WHERE name = ? AND pw = ?",
                        &params,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("login_lookup_indexed");
    for &n in &[100usize, 1000, 10_000] {
        let mut db = users_db(n, true);
        let params = [
            SqlValue::Text(format!("u{}", n / 2)),
            SqlValue::Text(format!("pw{}", n / 2)),
        ];
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| {
                black_box(
                    db.run_with_params(
                        "SELECT name FROM okws_users WHERE name = ? AND pw = ?",
                        &params,
                    )
                    .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("insert_row", |bench| {
        let mut db = Database::new();
        db.run("CREATE TABLE t (k, v)").unwrap();
        let mut i = 0u64;
        bench.iter(|| {
            i += 1;
            black_box(
                db.run_with_params(
                    "INSERT INTO t VALUES (?, ?)",
                    &[SqlValue::Int(i as i64), SqlValue::Text("value".into())],
                )
                .unwrap(),
            )
        });
    });
}

fn bench_parse(c: &mut Criterion) {
    c.bench_function("sql_parse_select", |bench| {
        bench.iter(|| {
            black_box(
                asbestos_db::parse("SELECT owner, bio FROM profiles WHERE owner = ? AND bio != ''")
                    .unwrap(),
            )
        })
    });
}

criterion_group!(benches, bench_login_lookup, bench_insert, bench_parse);
criterion_main!(benches);
