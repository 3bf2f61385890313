//! Database snapshot and restore.
//!
//! §7.5: "With database access, OKWS can extend its label-based security
//! policy to one that persists across system reboots." Handles are per-boot
//! (61-bit values unique *since boot*, §5.1), so what persists is the
//! *data* plus the hidden ownership column; after a reboot, idd mints fresh
//! handles and re-binds users, and the stored user ids reconnect rows to
//! their owners.
//!
//! The format is a small length-prefixed binary codec (the workspace policy
//! avoids pulling in a serialization format crate):
//!
//! ```text
//! magic "ASDB" | version u32 | table count u32
//!   per table: name | column count u32 | columns…
//!              | index count u32 | indexed column position u32…   (v2)
//!              | row count u32 | rows…
//!   per cell:  tag u8 (0=null 1=int 2=text 3=blob) | len u32 | payload
//! ```
//!
//! Version 2 added the index section (positions strictly ascending), so a
//! table comes back with the schema it was declared with — an index
//! survives everything a row survives. Version 1 buffers, which have no
//! such section, still restore (to tables without indexes). Nothing may
//! follow the last table. A `u32` cell count and that many cells is a
//! *row* ([`put_row`] / [`read_row`]): a redo record's parameters, and laid
//! end to end ([`read_rows`]) a read result and the OKWS worker's row
//! buffer.

use asbestos_store::codec::{CodecError, Reader};

use crate::engine::Database;
use crate::table::{Row, Table};
use crate::value::SqlValue;

/// Format magic.
const MAGIC: &[u8; 4] = b"ASDB";
/// Format version written.
const VERSION: u32 = 2;
/// Oldest version still read: no index section.
const VERSION_NO_INDEXES: u32 = 1;

/// Errors from [`restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the ASDB magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended mid-structure or a length field overran it.
    Truncated,
    /// A cell tag byte was invalid.
    BadTag(u8),
    /// Text payload was not UTF-8.
    BadText,
    /// An index names a column position the table does not have, or the
    /// positions are not strictly ascending.
    BadIndex(u32),
    /// Bytes are left after the last table.
    TrailingBytes,
}

impl From<CodecError> for SnapshotError {
    fn from(e: CodecError) -> SnapshotError {
        match e {
            CodecError::Truncated => SnapshotError::Truncated,
            CodecError::BadText => SnapshotError::BadText,
            CodecError::TrailingBytes => SnapshotError::TrailingBytes,
        }
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a database snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Truncated => write!(f, "truncated snapshot"),
            SnapshotError::BadTag(t) => write!(f, "invalid cell tag {t}"),
            SnapshotError::BadText => write!(f, "non-UTF-8 text payload"),
            SnapshotError::BadIndex(c) => write!(f, "invalid index on column position {c}"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after the snapshot"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes the whole database.
pub fn snapshot(db: &Database) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    let names = db.table_names();
    put_u32(&mut out, names.len() as u32);
    for name in names {
        let table = db.table(name).expect("listed table exists");
        put_str(&mut out, name);
        put_u32(&mut out, table.columns.len() as u32);
        for col in &table.columns {
            put_str(&mut out, col);
        }
        let indexed: Vec<usize> = table.indexed_columns().collect();
        put_u32(&mut out, indexed.len() as u32);
        for col in indexed {
            put_u32(&mut out, col as u32);
        }
        put_u32(&mut out, table.len() as u32);
        for (_slot, row) in table.iter() {
            for cell in row {
                put_cell(&mut out, cell);
            }
        }
    }
    out
}

/// Rebuilds a database from a snapshot. Trailing bytes are rejected.
pub fn restore(bytes: &[u8]) -> Result<Database, SnapshotError> {
    let mut r = Reader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION && version != VERSION_NO_INDEXES {
        return Err(SnapshotError::BadVersion(version));
    }
    let mut db = Database::new();
    // Every count is checked against the bytes left before anything is
    // allocated or looped over for it: a table is at least three length
    // fields, a column name one, an index position one, a cell a tag and
    // a length.
    let tables = r.count(12)?;
    for _ in 0..tables {
        let name = r.str()?.to_owned();
        let ncols = r.count(4)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            columns.push(r.str()?.to_owned());
        }
        let nindexes = if version == VERSION_NO_INDEXES {
            0
        } else {
            r.count(4)?
        };
        let mut indexed: Vec<usize> = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let col = r.u32()?;
            let ascending = indexed.last().is_none_or(|&prev| prev < col as usize);
            if col as usize >= ncols || !ascending {
                return Err(SnapshotError::BadIndex(col));
            }
            indexed.push(col as usize);
        }
        let mut table = Table::new(columns);
        let nrows = r.count(ncols * 5)?;
        for _ in 0..nrows {
            let mut row: Row = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                row.push(read_cell(&mut r)?);
            }
            table.insert(row);
        }
        // Each index is built once, over the loaded rows.
        for col in indexed {
            table.create_index(col);
        }
        db.put_table(name, table);
    }
    r.finish()?;
    Ok(db)
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_cell(out: &mut Vec<u8>, cell: &SqlValue) {
    match cell {
        SqlValue::Null => {
            out.push(0);
            put_u32(out, 0);
        }
        SqlValue::Int(i) => {
            out.push(1);
            put_u32(out, 8);
            out.extend_from_slice(&i.to_le_bytes());
        }
        SqlValue::Text(t) => {
            out.push(2);
            put_str(out, t);
        }
        SqlValue::Blob(b) => {
            out.push(3);
            put_u32(out, b.len() as u32);
            out.extend_from_slice(b);
        }
    }
}

fn read_cell(r: &mut Reader<'_>) -> Result<SqlValue, SnapshotError> {
    let tag = r.u8()?;
    let payload = r.blob()?;
    match tag {
        0 => Ok(SqlValue::Null),
        1 => payload
            .try_into()
            .map(|bytes| SqlValue::Int(i64::from_le_bytes(bytes)))
            .map_err(|_| SnapshotError::Truncated),
        2 => std::str::from_utf8(payload)
            .map(|t| SqlValue::Text(t.to_owned()))
            .map_err(|_| SnapshotError::BadText),
        3 => Ok(SqlValue::Blob(payload.to_vec())),
        other => Err(SnapshotError::BadTag(other)),
    }
}

/// Appends a row: a `u32` cell count, then each cell as a snapshot cell
/// (tag, `u32` length, payload). A redo record's parameters and the OKWS
/// worker's row buffer are rows.
pub fn put_row(out: &mut Vec<u8>, row: &[SqlValue]) {
    put_u32(out, row.len() as u32);
    for cell in row {
        put_cell(out, cell);
    }
}

/// Reads one [`put_row`] row. The cell count is checked against the
/// bytes left (a cell is at least five) before anything is reserved.
pub fn read_row(r: &mut Reader<'_>) -> Result<Vec<SqlValue>, SnapshotError> {
    let n = r.count(5)?;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_cell(r)?);
    }
    Ok(row)
}

/// Walks [`put_row`] rows laid end to end — a `DbMsg::Rows` payload or
/// the OKWS worker's row buffer — yielding each row with the byte range
/// it was read from. Stops at the end of `bytes` or at the first row that
/// does not decode; each row reserves only what [`read_row`] allows.
pub fn read_rows(
    bytes: &[u8],
) -> impl Iterator<Item = (Vec<SqlValue>, std::ops::Range<usize>)> + '_ {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(move || {
        let start = r.pos();
        if start == bytes.len() {
            return None;
        }
        let row = read_row(&mut r).ok()?;
        Some((row, start..r.pos()))
    })
    .fuse()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Database {
        let mut db = Database::new();
        db.run("CREATE TABLE users (name, pw)").unwrap();
        db.run("INSERT INTO users VALUES ('alice', 'pw-a')")
            .unwrap();
        db.run("INSERT INTO users VALUES ('bob', NULL)").unwrap();
        db.run("CREATE TABLE blobs (data)").unwrap();
        db.run_with_params(
            "INSERT INTO blobs VALUES (?)",
            &[SqlValue::Blob(vec![0, 255, 7])],
        )
        .unwrap();
        db
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let db = sample();
        let bytes = snapshot(&db);
        let mut restored = restore(&bytes).unwrap();
        let r = restored
            .run("SELECT name, pw FROM users WHERE name = 'alice'")
            .unwrap();
        assert_eq!(r.rows, vec![vec!["alice".into(), "pw-a".into()]]);
        let r = restored
            .run("SELECT pw FROM users WHERE name = 'bob'")
            .unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Null]]);
        let r = restored.run("SELECT data FROM blobs").unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Blob(vec![0, 255, 7])]]);
    }

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(snapshot(&sample()), snapshot(&sample()));
    }

    #[test]
    fn corrupt_inputs_are_rejected() {
        let good = snapshot(&sample());
        assert_eq!(restore(b"nope").err(), Some(SnapshotError::BadMagic));
        assert_eq!(restore(&good[..10]).err(), Some(SnapshotError::Truncated));
        let mut trailing = good.clone();
        trailing.push(0);
        assert_eq!(restore(&trailing).err(), Some(SnapshotError::TrailingBytes));
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(
            restore(&bad_version).err(),
            Some(SnapshotError::BadVersion(99))
        );
        let mut bad_tag = good.clone();
        // Flip the first cell tag (search for the row section crudely: the
        // first 1/2/3 tag byte after the header survives this heuristic
        // because the format is deterministic for `sample()`).
        let tag_pos = good.len() - 1 - good.iter().rev().position(|&b| b == 2).unwrap();
        bad_tag[tag_pos] = 9;
        assert!(restore(&bad_tag).is_err());
    }

    #[test]
    fn oversized_counts_are_rejected_before_allocating() {
        // The header a byte flip produced on the CI host: one table whose
        // column count asks for 38,300,815,416 bytes of `String`s.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        put_u32(&mut bytes, VERSION);
        put_u32(&mut bytes, 1);
        put_str(&mut bytes, "t");
        put_u32(&mut bytes, 0x5F1F_00AD);
        assert_eq!(restore(&bytes).err(), Some(SnapshotError::Truncated));
        // Same for the table count, and for the row count of a table whose
        // rows are zero bytes wide (which would otherwise loop 2³² times).
        let mut many_tables = bytes[..8].to_vec();
        put_u32(&mut many_tables, u32::MAX);
        assert_eq!(restore(&many_tables).err(), Some(SnapshotError::Truncated));
        let mut no_columns = bytes[..bytes.len() - 4].to_vec();
        put_u32(&mut no_columns, 0);
        let mut many_rows = no_columns.clone();
        put_u32(&mut many_rows, 0);
        put_u32(&mut many_rows, u32::MAX);
        assert_eq!(restore(&many_rows).err(), Some(SnapshotError::Truncated));
        // And for the index count.
        let mut many_indexes = no_columns;
        put_u32(&mut many_indexes, u32::MAX);
        assert_eq!(restore(&many_indexes).err(), Some(SnapshotError::Truncated));
    }

    #[test]
    fn indexes_cross_the_codec() {
        let mut db = sample();
        db.run("CREATE INDEX ON users (pw)").unwrap();
        db.run("CREATE INDEX ON users (name)").unwrap();
        let bytes = snapshot(&db);
        let mut restored = restore(&bytes).unwrap();
        let users = restored.table("users").unwrap();
        assert_eq!(users.indexed_columns().collect::<Vec<_>>(), vec![0, 1]);
        assert!(restored.table("blobs").unwrap().index(0).is_none());
        assert_eq!(snapshot(&restored), bytes);
        let r = restored
            .run("SELECT pw FROM users WHERE name = 'alice'")
            .unwrap();
        assert_eq!(r.rows, vec![vec!["pw-a".into()]]);
        assert_eq!(r.work, 1, "the restored index is probed");
    }

    #[test]
    fn rows_round_trip_back_to_back() {
        // As the OKWS worker's row buffer holds them, one after another; a
        // cut inside the last row refuses just that row.
        let rows = [
            vec![SqlValue::Int(-3), "hi".into()],
            vec![],
            vec![SqlValue::Null, SqlValue::Blob(vec![1])],
        ];
        let mut bytes = Vec::new();
        rows.iter().for_each(|row| put_row(&mut bytes, row));
        for (cut, whole) in [(0, 3), (1, 2)] {
            let mut r = Reader::new(&bytes[..bytes.len() - cut]);
            let back: Vec<_> = (0..3).map_while(|_| read_row(&mut r).ok()).collect();
            assert_eq!(back, rows[..whole]);
        }
    }

    #[test]
    fn empty_database_roundtrips() {
        let db = Database::new();
        let restored = restore(&snapshot(&db)).unwrap();
        assert!(restored.table_names().is_empty());
    }
}
