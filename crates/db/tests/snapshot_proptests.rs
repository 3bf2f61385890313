//! Property tests for the snapshot codec: adversarial bytes never panic,
//! and round-trips are identities for every `SqlValue` shape and every
//! index set.

use asbestos_db::{restore, snapshot, Database, SnapshotError, SqlValue};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = SqlValue> {
    prop_oneof![
        Just(SqlValue::Null),
        any::<i64>().prop_map(SqlValue::Int),
        // Includes empty strings and multi-byte UTF-8.
        "[a-z0-9 _é☃'%-]{0,16}".prop_map(SqlValue::Text),
        prop::collection::vec(any::<u8>(), 0..32).prop_map(SqlValue::Blob),
    ]
}

/// One table: name, rows, and a bit mask of indexed column positions.
type TableSpec = (String, Vec<Vec<SqlValue>>, u8);

fn arb_db() -> impl Strategy<Value = Vec<TableSpec>> {
    // Up to 3 tables, 1–3 columns each, up to 8 rows, any subset of the
    // columns indexed.
    prop::collection::vec(
        (
            1usize..4,
            prop::collection::vec(prop::collection::vec(arb_value(), 3..4), 0..8),
            any::<u8>(),
        ),
        0..3,
    )
    .prop_map(|tables| {
        tables
            .into_iter()
            .enumerate()
            .map(|(i, (ncols, rows, indexed))| {
                let rows = rows
                    .into_iter()
                    .map(|mut r| {
                        r.truncate(ncols);
                        r
                    })
                    .collect();
                (format!("t{i}"), rows, indexed)
            })
            .collect()
    })
}

fn build(tables: &[TableSpec]) -> Database {
    let mut db = Database::new();
    for (name, rows, indexed) in tables {
        let ncols = rows.first().map_or(2, Vec::len).max(1);
        let cols: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
        db.run(&format!("CREATE TABLE {name} ({})", cols.join(", ")))
            .unwrap();
        // Half the indexes are declared before the rows, half after: the
        // snapshot must not depend on which.
        let declare = |db: &mut Database, parity: usize| {
            for c in (0..ncols).filter(|c| indexed >> c & 1 == 1 && c % 2 == parity) {
                db.run(&format!("CREATE INDEX ON {name} (c{c})")).unwrap();
            }
        };
        declare(&mut db, 0);
        for row in rows {
            let placeholders: Vec<&str> = row.iter().map(|_| "?").collect();
            db.run_with_params(
                &format!("INSERT INTO {name} VALUES ({})", placeholders.join(", ")),
                row,
            )
            .unwrap();
        }
        declare(&mut db, 1);
    }
    db
}

fn index_sets(db: &Database) -> Vec<(String, Vec<usize>)> {
    db.table_names()
        .into_iter()
        .map(|t| {
            let indexed = db.table(t).unwrap().indexed_columns().collect();
            (t.to_string(), indexed)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Round-trip identity over arbitrary databases covering every
    /// `SqlValue` tag (NULL, extreme ints, empty and multi-byte text,
    /// empty and binary blobs) and arbitrary index sets.
    #[test]
    fn roundtrip_identity(tables in arb_db()) {
        let db = build(&tables);
        let bytes = snapshot(&db);
        let restored = restore(&bytes).expect("a fresh snapshot restores");
        // The schema comes back whole: same indexes on the same columns.
        prop_assert_eq!(index_sets(&restored), index_sets(&db));
        // Snapshot-of-restore is byte-identical: the codec is canonical.
        prop_assert_eq!(snapshot(&restored), bytes);
    }

    /// Every truncation of a valid snapshot either restores cleanly or
    /// returns a `SnapshotError` — never panics, never fabricates rows
    /// beyond what the prefix encodes.
    #[test]
    fn truncations_never_panic(tables in arb_db(), permille in 0u32..1000) {
        let db = build(&tables);
        let bytes = snapshot(&db);
        let cut = bytes.len() * permille as usize / 1000;
        match restore(&bytes[..cut]) {
            Ok(recovered) => {
                // A shorter prefix can only decode to fewer-or-equal rows.
                let orig: usize = db.table_names().iter().map(|t| db.table(t).unwrap().len()).sum();
                let got: usize = recovered
                    .table_names()
                    .iter()
                    .map(|t| recovered.table(t).unwrap().len())
                    .sum();
                prop_assert!(got <= orig);
            }
            Err(
                SnapshotError::BadMagic
                | SnapshotError::BadVersion(_)
                | SnapshotError::Truncated
                | SnapshotError::BadTag(_)
                | SnapshotError::BadText
                | SnapshotError::BadIndex(_),
            ) => {}
        }
    }

    /// Arbitrary byte flips never panic: restore returns *something* —
    /// `Ok` with whatever the flipped bytes legally encode, or an error.
    #[test]
    fn byte_flips_never_panic(
        tables in arb_db(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
    ) {
        let db = build(&tables);
        let mut bytes = snapshot(&db);
        if !bytes.is_empty() {
            let len = bytes.len();
            for (idx, mask) in flips {
                bytes[idx % len] ^= mask | 1; // nonzero mask: a real flip
            }
            let _ = restore(&bytes); // must not panic or hang
        }
    }

    /// Fully random byte soup never panics either.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = restore(&bytes);
    }
}

/// Pinned, non-random round-trip for every tag at its edge values (the
/// proptest generator covers the space; this pins the corners forever).
#[test]
fn all_sqlvalue_tags_round_trip_at_edges() {
    let mut db = Database::new();
    db.run("CREATE TABLE edges (v)").unwrap();
    let edge_values = vec![
        SqlValue::Null,
        SqlValue::Int(0),
        SqlValue::Int(i64::MIN),
        SqlValue::Int(i64::MAX),
        SqlValue::Text(String::new()),
        SqlValue::Text("ünïcødé \u{1F512} taint".into()),
        SqlValue::Blob(Vec::new()),
        SqlValue::Blob((0..=255).collect()),
    ];
    for v in &edge_values {
        db.run_with_params("INSERT INTO edges VALUES (?)", std::slice::from_ref(v))
            .unwrap();
    }
    let mut restored = restore(&snapshot(&db)).unwrap();
    let rows = restored.run("SELECT v FROM edges").unwrap().rows;
    let got: Vec<SqlValue> = rows.into_iter().map(|mut r| r.remove(0)).collect();
    assert_eq!(got, edge_values);
}

fn u32le(v: u32) -> [u8; 4] {
    v.to_le_bytes()
}

/// A version-2 header up to and including one table `t (a, b)`'s column
/// names; the caller appends the index section and the rows.
fn v2_one_table_prefix() -> Vec<u8> {
    let mut bytes = b"ASDB".to_vec();
    bytes.extend(u32le(2)); // version
    bytes.extend(u32le(1)); // tables
    bytes.extend(u32le(1));
    bytes.extend(b"t");
    bytes.extend(u32le(2)); // columns
    for col in [b"a", b"b"] {
        bytes.extend(u32le(1));
        bytes.extend(col);
    }
    bytes
}

#[test]
fn malformed_index_sections_are_rejected() {
    let with_indexes = |positions: &[u32]| {
        let mut bytes = v2_one_table_prefix();
        bytes.extend(u32le(positions.len() as u32));
        for &p in positions {
            bytes.extend(u32le(p));
        }
        bytes.extend(u32le(0)); // rows
        bytes
    };
    let ok = restore(&with_indexes(&[0, 1])).expect("both columns indexed");
    assert_eq!(
        ok.table("t").unwrap().indexed_columns().collect::<Vec<_>>(),
        vec![0, 1]
    );
    // A position the table does not have.
    assert_eq!(
        restore(&with_indexes(&[2])).err(),
        Some(SnapshotError::BadIndex(2))
    );
    assert_eq!(
        restore(&with_indexes(&[0, u32::MAX])).err(),
        Some(SnapshotError::BadIndex(u32::MAX))
    );
    // Not strictly ascending: the codec is canonical.
    assert_eq!(
        restore(&with_indexes(&[1, 0])).err(),
        Some(SnapshotError::BadIndex(0))
    );
    assert_eq!(
        restore(&with_indexes(&[1, 1])).err(),
        Some(SnapshotError::BadIndex(1))
    );
    // A count the remaining bytes cannot hold is refused before anything
    // is allocated for it.
    let mut oversized = v2_one_table_prefix();
    oversized.extend(u32le(0x4000_0000));
    oversized.extend(u32le(0));
    oversized.extend(u32le(0));
    assert_eq!(restore(&oversized).err(), Some(SnapshotError::Truncated));
}

/// A buffer written by the version-1 codec (the commit before indexes were
/// serialized; the database had an index on `notes.user_id`, which v1 did
/// not record) still restores — to the same rows, with no indexes.
#[test]
fn version_1_snapshot_still_restores() {
    const V1_HEX: &str = "41534442010000000200000005000000656d70747901000000010000006100000000\
        050000006e6f7465730300000007000000757365725f6964010000006b0100000076020000000108000000\
        01000000000000000205000000636f6c6f720203000000726564010800000002000000000000000000000000\
        030200000000ff";
    let bytes: Vec<u8> = (0..V1_HEX.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&V1_HEX[i..i + 2], 16).unwrap())
        .collect();
    let mut db = restore(&bytes).expect("version 1 is still read");
    assert_eq!(db.table_names(), vec!["empty", "notes"]);
    assert!(db.table("empty").unwrap().is_empty());
    let notes = db.table("notes").unwrap();
    assert_eq!(notes.columns, vec!["user_id", "k", "v"]);
    assert_eq!(notes.indexed_columns().count(), 0);
    assert_eq!(
        db.run("SELECT * FROM notes").unwrap().rows,
        vec![
            vec![SqlValue::Int(1), "color".into(), "red".into()],
            vec![
                SqlValue::Int(2),
                SqlValue::Null,
                SqlValue::Blob(vec![0, 255])
            ],
        ]
    );
    // Re-snapshotting upgrades: version 2, an empty index section per table.
    let upgraded = snapshot(&db);
    assert_eq!(upgraded[4..8], u32le(2));
    assert_eq!(upgraded.len(), bytes.len() + 2 * 4);
}
