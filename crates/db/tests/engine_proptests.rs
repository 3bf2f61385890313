//! Property tests for the SQL engine: equivalence against a flat key-value
//! oracle under random operation sequences, indexed ≡ unindexed as
//! sequences (no result set is ever sorted before it is compared), plus
//! no-panic parsing.

use asbestos_db::{parse, Database, SqlValue};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum DbOp {
    /// `INSERT INTO kv VALUES (k, v)` — duplicate keys allowed.
    Insert { k: u8, v: i64 },
    /// `SELECT v FROM kv WHERE k = ?`.
    Lookup { k: u8 },
    /// `UPDATE kv SET v = ? WHERE k = ?`.
    Update { k: u8, v: i64 },
    /// `DELETE FROM kv WHERE k = ?`.
    Delete { k: u8 },
    /// `SELECT v FROM kv WHERE v >= ?` (range over values).
    Range { min: i64 },
}

fn arb_op() -> impl Strategy<Value = DbOp> {
    prop_oneof![
        (any::<u8>(), -50i64..50).prop_map(|(k, v)| DbOp::Insert { k: k % 24, v }),
        any::<u8>().prop_map(|k| DbOp::Lookup { k: k % 24 }),
        (any::<u8>(), -50i64..50).prop_map(|(k, v)| DbOp::Update { k: k % 24, v }),
        any::<u8>().prop_map(|k| DbOp::Delete { k: k % 24 }),
        (-50i64..50).prop_map(|min| DbOp::Range { min }),
    ]
}

/// A value in a row or on the right of a comparison. Keys and numbers
/// are drawn from small ranges so rows collide and posting lists grow.
#[derive(Clone, Debug)]
enum Val {
    Null,
    Key(u8),
    Num(i64),
}

impl Val {
    fn value(&self) -> SqlValue {
        match self {
            Val::Null => SqlValue::Null,
            Val::Key(k) => SqlValue::Text(format!("k{k}")),
            Val::Num(n) => SqlValue::Int(*n),
        }
    }

    fn literal(&self) -> String {
        match self {
            Val::Null => "NULL".into(),
            Val::Key(k) => format!("'k{k}'"),
            Val::Num(n) => n.to_string(),
        }
    }
}

fn arb_key() -> impl Strategy<Value = Val> {
    (0u8..7).prop_map(|k| if k == 6 { Val::Null } else { Val::Key(k) })
}

fn arb_num() -> impl Strategy<Value = Val> {
    (-3i64..5).prop_map(|n| if n == 4 { Val::Null } else { Val::Num(n) })
}

/// One `column OP rhs` conjunct; the rhs goes in as a literal or as a `?`.
#[derive(Clone, Debug)]
struct Cond {
    column: &'static str,
    op: &'static str,
    rhs: Val,
    as_param: bool,
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    (
        0u8..12,
        0usize..6,
        prop_oneof![arb_key(), arb_num()],
        any::<bool>(),
    )
        .prop_map(|(column, op, rhs, as_param)| Cond {
            // Mostly the two real columns, with types free to mismatch the
            // rhs; now and then a column the table does not have.
            column: match column {
                0..=5 => "k",
                6..=10 => "v",
                _ => "nope",
            },
            op: ["=", "=", "!=", "<", ">=", ">"][op],
            rhs,
            as_param,
        })
}

#[derive(Clone, Debug)]
enum SeqOp {
    Insert {
        k: Val,
        v: Val,
    },
    /// `UPDATE kv SET k = ? WHERE k = ?` — rewrites the filtered (and,
    /// on one side, indexed) column, which moves rows between posting
    /// lists.
    Rekey {
        from: Val,
        to: Val,
    },
    Update {
        v: Val,
        filter: Vec<Cond>,
    },
    Delete {
        filter: Vec<Cond>,
    },
    Select {
        filter: Vec<Cond>,
    },
}

fn arb_seq_op() -> impl Strategy<Value = SeqOp> {
    let filter = || prop::collection::vec(arb_cond(), 1..4);
    prop_oneof![
        (arb_key(), arb_num()).prop_map(|(k, v)| SeqOp::Insert { k, v }),
        (arb_key(), arb_num()).prop_map(|(k, v)| SeqOp::Insert { k, v }),
        (arb_key(), arb_key()).prop_map(|(from, to)| SeqOp::Rekey { from, to }),
        (arb_num(), filter()).prop_map(|(v, filter)| SeqOp::Update { v, filter }),
        filter().prop_map(|filter| SeqOp::Delete { filter }),
        filter().prop_map(|filter| SeqOp::Select { filter }),
        filter().prop_map(|filter| SeqOp::Select { filter }),
    ]
}

/// Renders `WHERE …`, appending each parameterized rhs to `params`.
fn where_clause(filter: &[Cond], params: &mut Vec<SqlValue>) -> String {
    let conjuncts: Vec<String> = filter
        .iter()
        .map(|c| {
            let rhs = if c.as_param {
                params.push(c.rhs.value());
                "?".to_string()
            } else {
                c.rhs.literal()
            };
            format!("{} {} {rhs}", c.column, c.op)
        })
        .collect();
    format!("WHERE {}", conjuncts.join(" AND "))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn engine_matches_oracle(ops in prop::collection::vec(arb_op(), 0..80), indexed in any::<bool>()) {
        let mut db = Database::new();
        db.run("CREATE TABLE kv (k, v)").unwrap();
        if indexed {
            db.run("CREATE INDEX ON kv (k)").unwrap();
        }
        // Oracle: the live rows, in insertion order — which is the order
        // the engine must return them in, index or no index.
        let mut oracle: Vec<(String, i64)> = Vec::new();
        let ints = |rows: &[Vec<SqlValue>]| -> Vec<i64> {
            rows.iter().map(|r| r[0].as_int().unwrap()).collect()
        };

        for op in ops {
            match op {
                DbOp::Insert { k, v } => {
                    let key = format!("k{k}");
                    db.run_with_params(
                        "INSERT INTO kv VALUES (?, ?)",
                        &[SqlValue::Text(key.clone()), SqlValue::Int(v)],
                    )
                    .unwrap();
                    oracle.push((key, v));
                }
                DbOp::Lookup { k } => {
                    let key = format!("k{k}");
                    let result = db
                        .run_with_params(
                            "SELECT v FROM kv WHERE k = ?",
                            &[SqlValue::Text(key.clone())],
                        )
                        .unwrap();
                    let expect: Vec<i64> = oracle
                        .iter()
                        .filter(|(k, _)| *k == key)
                        .map(|&(_, v)| v)
                        .collect();
                    prop_assert_eq!(ints(&result.rows), expect);
                }
                DbOp::Update { k, v } => {
                    let key = format!("k{k}");
                    let result = db
                        .run_with_params(
                            "UPDATE kv SET v = ? WHERE k = ?",
                            &[SqlValue::Int(v), SqlValue::Text(key.clone())],
                        )
                        .unwrap();
                    let mut hits = 0;
                    for row in oracle.iter_mut().filter(|(k, _)| *k == key) {
                        row.1 = v;
                        hits += 1;
                    }
                    prop_assert_eq!(result.affected, hits);
                }
                DbOp::Delete { k } => {
                    let key = format!("k{k}");
                    let result = db
                        .run_with_params(
                            "DELETE FROM kv WHERE k = ?",
                            &[SqlValue::Text(key.clone())],
                        )
                        .unwrap();
                    let before = oracle.len();
                    oracle.retain(|(k, _)| *k != key);
                    prop_assert_eq!(result.affected, before - oracle.len());
                }
                DbOp::Range { min } => {
                    let result = db
                        .run_with_params(
                            "SELECT v FROM kv WHERE v >= ?",
                            &[SqlValue::Int(min)],
                        )
                        .unwrap();
                    let expect: Vec<i64> = oracle
                        .iter()
                        .map(|&(_, v)| v)
                        .filter(|&v| v >= min)
                        .collect();
                    prop_assert_eq!(ints(&result.rows), expect);
                }
            }
        }
        // Row count agrees at the end.
        prop_assert_eq!(db.table("kv").unwrap().len(), oracle.len());
    }

    /// Indexed ≡ unindexed, as sequences: one op stream against two
    /// databases that differ only in their index set gives the same rows
    /// in the same order, the same counts and the same errors — and the
    /// indexed side never examines more rows.
    #[test]
    fn index_set_changes_work_and_nothing_else(
        ops in prop::collection::vec((arb_seq_op(), 0u8..16), 0..60),
        index_mask in 1u8..4,
    ) {
        let mut scan = Database::new();
        let mut probe = Database::new();
        for db in [&mut scan, &mut probe] {
            db.run("CREATE TABLE kv (k, v)").unwrap();
        }
        for (bit, column) in ["k", "v"].into_iter().enumerate() {
            if index_mask >> bit & 1 == 1 {
                probe.run(&format!("CREATE INDEX ON kv ({column})")).unwrap();
            }
        }

        for (op, short) in ops {
            let mut params = Vec::new();
            let sql = match &op {
                SeqOp::Insert { k, v } => {
                    params.extend([k.value(), v.value()]);
                    "INSERT INTO kv VALUES (?, ?)".to_string()
                }
                SeqOp::Rekey { from, to } => {
                    params.extend([to.value(), from.value()]);
                    "UPDATE kv SET k = ? WHERE k = ?".to_string()
                }
                SeqOp::Update { v, filter } => {
                    params.push(v.value());
                    format!("UPDATE kv SET v = ? {}", where_clause(filter, &mut params))
                }
                SeqOp::Delete { filter } => {
                    format!("DELETE FROM kv {}", where_clause(filter, &mut params))
                }
                SeqOp::Select { filter } => {
                    format!("SELECT v, k FROM kv {}", where_clause(filter, &mut params))
                }
            };
            // One time in sixteen the last parameter goes missing.
            if short == 0 {
                params.pop();
            }
            let a = scan.run_with_params(&sql, &params);
            let b = probe.run_with_params(&sql, &params);
            prop_assert_eq!(
                a.as_ref().map(|r| (&r.columns, &r.rows, r.affected)),
                b.as_ref().map(|r| (&r.columns, &r.rows, r.affected)),
                "{} {:?}", sql, params
            );
            if let (Ok(a), Ok(b)) = (a, b) {
                prop_assert!(b.work <= a.work, "{}: probe {} > scan {}", sql, b.work, a.work);
            }
        }
        // Same table at the end, slot for slot.
        prop_assert_eq!(
            scan.run("SELECT * FROM kv").unwrap().rows,
            probe.run("SELECT * FROM kv").unwrap().rows
        );
    }

    #[test]
    fn parser_never_panics(sql in "\\PC{0,100}") {
        let _ = parse(&sql);
    }

    #[test]
    fn snapshot_roundtrips_random_contents(
        rows in prop::collection::vec(
            (any::<u8>(), prop::option::of(-1000i64..1000), prop::collection::vec(any::<u8>(), 0..16)),
            0..40,
        ),
    ) {
        let mut db = Database::new();
        db.run("CREATE TABLE t (k, n, b)").unwrap();
        for (k, n, b) in &rows {
            db.run_with_params(
                "INSERT INTO t VALUES (?, ?, ?)",
                &[
                    SqlValue::Text(format!("k{k}")),
                    n.map(SqlValue::Int).unwrap_or(SqlValue::Null),
                    SqlValue::Blob(b.clone()),
                ],
            )
            .unwrap();
        }
        let bytes = asbestos_db::snapshot(&db);
        let mut restored = asbestos_db::restore(&bytes).expect("roundtrip");
        let before = db.run("SELECT * FROM t").unwrap();
        let after = restored.run("SELECT * FROM t").unwrap();
        prop_assert_eq!(before.rows, after.rows);
    }

    #[test]
    fn restore_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = asbestos_db::restore(&bytes);
    }

    #[test]
    fn lexer_handles_any_ascii(sql in "[ -~]{0,100}") {
        let _ = asbestos_db::lexer::lex(&sql);
    }
}
