//! One bounds property over every decoder behind `asbestos_store::codec::
//! Reader`: `restore`, `DbRecord::from_bytes`, `read_row` (redo parameters
//! and the OKWS worker's row buffer), and the wire's `decode_body`. Each
//! valid encoding is handed back with every 4-byte window set to
//! `u32::MAX` (so every count and length field), cut at every length and
//! with every byte flipped, and must come back `Ok` or `Err`. A decoder
//! that reserved `count × size_of::<T>()` before checking the count aborts
//! this process instead: `u32::MAX` cells is 128 GiB.

use asbestos_cluster::wire::{decode_body, HEADER_LEN};
use asbestos_cluster::{encode_frame, WireMsg};
use asbestos_db::{put_row, read_row, read_rows, restore, snapshot, Database, DbRecord, SqlValue};
use asbestos_kernel::{Handle, Label, Level, Payload, Value};
use asbestos_store::codec::Reader;
use proptest::prelude::*;

/// Every damaged copy of `valid`, each with the offset before which it is
/// intact.
fn damaged(valid: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    (0..valid.len()).flat_map(move |at| {
        let (mut flipped, mut maxed) = (valid.to_vec(), valid.to_vec());
        flipped[at] ^= 0xFF;
        let window = maxed.get_mut(at..at + 4).map(|w| w.fill(0xFF));
        [
            Some(valid[..at].to_vec()),
            Some(flipped),
            window.map(|()| maxed),
        ]
        .into_iter()
        .flatten()
        .map(move |bytes| (at, bytes))
    })
}

fn arb_row() -> impl Strategy<Value = Vec<SqlValue>> {
    let cell = prop_oneof![
        Just(SqlValue::Null),
        any::<i64>().prop_map(SqlValue::Int),
        "[a-z é☃]{0,8}".prop_map(SqlValue::Text),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(SqlValue::Blob),
    ];
    prop::collection::vec(cell, 0..4)
}

/// Walks `bytes` as the OKWS worker walks a `Rows` payload. The rows must
/// tile a prefix of `bytes`, and the walk may stop short of the end only
/// at a row `read_row` refuses.
fn walk(bytes: &[u8]) -> Vec<Vec<SqlValue>> {
    let mut end = 0;
    let rows = read_rows(bytes)
        .map(|(row, span)| {
            assert_eq!(span.start, end, "rows are contiguous");
            end = span.end;
            row
        })
        .collect();
    assert!(
        end == bytes.len() || read_row(&mut Reader::new(&bytes[end..])).is_err(),
        "the walk stopped at byte {end}, before a good row"
    );
    rows
}

fn arb_label() -> impl Strategy<Value = Label> {
    let level = |bits| Level::from_bits(bits).unwrap();
    (0u64..5, 0u64..5).prop_map(move |(d, l)| {
        Label::from_pairs(
            level(d),
            &[
                (Handle::from_raw(3), level(l)),
                (Handle::from_raw(9), Level::L3),
            ],
        )
    })
}

fn arb_body() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        "[a-z]{0,8}".prop_map(Value::from),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(|b| Value::Bytes(Payload::from(b))),
        (0u64..256).prop_map(|h| Value::Handle(Handle::from_raw(h))),
    ];
    prop::collection::vec(leaf, 0..4).prop_map(Value::List)
}

fn arb_msg() -> impl Strategy<Value = WireMsg> {
    let labels = (arb_label(), arb_label(), arb_label(), arb_label());
    prop_oneof![
        ("[a-z.]{0,12}", arb_body()).prop_map(|(key, value)| WireMsg::EnvSet { key, value }),
        (0u64..256, labels, arb_body()).prop_map(|(port, (es, ds, dr, v), body)| {
            WireMsg::Forward {
                port: Handle::from_raw(port),
                es,
                ds,
                dr,
                v,
                body,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_restore_or_refuse(rows in prop::collection::vec(arb_row(), 0..4), indexed in any::<bool>()) {
        let mut db = Database::new();
        db.run("CREATE TABLE t (a, b, c)").unwrap();
        db.run("CREATE TABLE u (x)").unwrap();
        if indexed {
            db.run("CREATE INDEX ON t (b)").unwrap();
        }
        for mut row in rows {
            row.resize(3, SqlValue::Null);
            db.run_with_params("INSERT INTO t VALUES (?, ?, ?)", &row).unwrap();
        }
        let valid = snapshot(&db);
        prop_assert!(restore(&valid).is_ok());
        damaged(&valid).for_each(|(_, bytes)| drop(restore(&bytes)));
    }

    #[test]
    fn redo_records_decode_or_refuse(uid in any::<i64>(), sql in "[a-z ?]{0,16}", params in arb_row()) {
        for record in [
            DbRecord::Ddl { sql: sql.clone() },
            DbRecord::Admin { sql: sql.clone(), params: params.clone() },
            DbRecord::Worker { uid, sql: sql.clone(), params: params.clone() },
        ] {
            let valid = record.to_bytes();
            prop_assert_eq!(DbRecord::from_bytes(&valid), Some(record));
            damaged(&valid).for_each(|(_, bytes)| drop(DbRecord::from_bytes(&bytes)));
        }
    }

    #[test]
    fn rows_decode_or_refuse(row in arb_row()) {
        let mut valid = Vec::new();
        put_row(&mut valid, &row);
        prop_assert_eq!(read_row(&mut Reader::new(&valid)), Ok(row));
        damaged(&valid).for_each(|(_, bytes)| drop(read_row(&mut Reader::new(&bytes))));
    }

    #[test]
    fn row_batches_walk_to_the_first_bad_row(
        rows in prop::collection::vec(arb_row(), 0..4),
        noise in prop::collection::vec(any::<u8>(), 0..48),
    ) {
        let (mut valid, mut ends) = (Vec::new(), Vec::new());
        for row in &rows {
            put_row(&mut valid, row);
            ends.push(valid.len());
        }
        prop_assert_eq!(walk(&valid), rows.clone());
        // Every row that ends before the damage comes back as written.
        for (at, bytes) in damaged(&valid) {
            let intact = ends.iter().filter(|&&end| end <= at).count();
            let got = walk(&bytes);
            prop_assert!(got.len() >= intact);
            prop_assert_eq!(&got[..intact], &rows[..intact]);
        }
        walk(&noise);
    }

    #[test]
    fn wire_bodies_decode_or_refuse(msg in arb_msg()) {
        let mut frame = Vec::new();
        encode_frame(&msg, &mut frame);
        prop_assert_eq!(decode_body(&frame[HEADER_LEN..]), Ok(msg));
        for (_, bytes) in damaged(&frame[HEADER_LEN..]) {
            let _ = decode_body(&bytes);
        }
    }
}
