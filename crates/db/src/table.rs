//! Heap tables with optional hash indexes.
//!
//! An index is part of a table's *schema*: it exists because a
//! `CREATE INDEX` declared it (and the snapshot and redo log carry that
//! declaration), never because some query would have liked one. Posting
//! lists are kept in slot order, so walking one visits rows in the same
//! order a scan of the table would — a probe changes how many rows are
//! examined, not which rows come back or in what sequence.

use std::collections::BTreeMap;
use std::collections::HashMap;

use crate::value::SqlValue;

/// A row: one value per table column.
pub type Row = Vec<SqlValue>;

/// A hash index over one column: value → row slots, ascending.
#[derive(Debug, Default)]
pub struct HashIndex {
    map: HashMap<SqlValue, Vec<usize>>,
}

impl HashIndex {
    /// Builds an index over existing rows.
    pub fn build(rows: &[Option<Row>], col: usize) -> HashIndex {
        let mut idx = HashIndex::default();
        for (slot, row) in rows.iter().enumerate() {
            if let Some(r) = row {
                idx.insert(&r[col], slot);
            }
        }
        idx
    }

    fn insert(&mut self, value: &SqlValue, slot: usize) {
        // The key is cloned only the first time a value is seen.
        let Some(slots) = self.map.get_mut(value) else {
            self.map.insert(value.clone(), vec![slot]);
            return;
        };
        // A new row takes the highest slot, so this is a push except when
        // `set_cell` moves an older row under a different value.
        if let Err(at) = slots.binary_search(&slot) {
            slots.insert(at, slot);
        }
    }

    fn remove(&mut self, value: &SqlValue, slot: usize) {
        if let Some(slots) = self.map.get_mut(value) {
            if let Ok(at) = slots.binary_search(&slot) {
                slots.remove(at);
            }
            if slots.is_empty() {
                self.map.remove(value);
            }
        }
    }

    /// Row slots whose indexed column equals `value`, in slot order.
    pub fn lookup(&self, value: &SqlValue) -> &[usize] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A table: named columns, slotted rows (tombstoned on delete), and
/// optional hash indexes.
#[derive(Debug)]
pub struct Table {
    /// Column names, in order.
    pub columns: Vec<String>,
    rows: Vec<Option<Row>>,
    live: usize,
    /// Column position → index.
    indexes: BTreeMap<usize, HashIndex>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(columns: Vec<String>) -> Table {
        Table {
            columns,
            rows: Vec::new(),
            live: 0,
            indexes: BTreeMap::new(),
        }
    }

    /// Position of a column by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the table has no live rows.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Appends a row (must match the column count).
    pub fn insert(&mut self, row: Row) {
        debug_assert_eq!(row.len(), self.columns.len());
        let slot = self.rows.len();
        for (&col, idx) in self.indexes.iter_mut() {
            idx.insert(&row[col], slot);
        }
        self.rows.push(Some(row));
        self.live += 1;
    }

    /// Iterates `(slot, row)` for live rows.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().map(|row| (i, row)))
    }

    /// The live row in `slot`, if any.
    pub fn row(&self, slot: usize) -> Option<&Row> {
        self.rows.get(slot).and_then(Option::as_ref)
    }

    /// Replaces one cell, maintaining indexes.
    pub fn set_cell(&mut self, slot: usize, col: usize, value: SqlValue) {
        let Some(Some(row)) = self.rows.get_mut(slot) else {
            return;
        };
        let old = std::mem::replace(&mut row[col], value.clone());
        if let Some(idx) = self.indexes.get_mut(&col) {
            idx.remove(&old, slot);
            idx.insert(&value, slot);
        }
    }

    /// Tombstones a row, maintaining indexes.
    pub fn delete(&mut self, slot: usize) {
        if let Some(Some(row)) = self.rows.get(slot) {
            let row = row.clone();
            for (&col, idx) in self.indexes.iter_mut() {
                idx.remove(&row[col], slot);
            }
            self.rows[slot] = None;
            self.live -= 1;
        }
    }

    /// Creates a hash index on `col` (no-op if it exists).
    pub fn create_index(&mut self, col: usize) {
        self.indexes
            .entry(col)
            .or_insert_with(|| HashIndex::build(&self.rows, col));
    }

    /// The index on `col`, if one exists.
    pub fn index(&self, col: usize) -> Option<&HashIndex> {
        self.indexes.get(&col)
    }

    /// Positions of the indexed columns, ascending.
    pub fn indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.indexes.keys().copied()
    }

    /// Approximate heap bytes (for memory-style accounting).
    pub fn approx_bytes(&self) -> usize {
        let row_bytes: usize = self
            .iter()
            .map(|(_, r)| {
                r.iter()
                    .map(|v| match v {
                        SqlValue::Null => 8,
                        SqlValue::Int(_) => 16,
                        SqlValue::Text(t) => 24 + t.len(),
                        SqlValue::Blob(b) => 24 + b.len(),
                    })
                    .sum::<usize>()
            })
            .sum();
        64 + self.columns.iter().map(|c| 24 + c.len()).sum::<usize>() + row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Table {
        let mut table = Table::new(vec!["k".into(), "v".into()]);
        table.insert(vec!["a".into(), SqlValue::Int(1)]);
        table.insert(vec!["b".into(), SqlValue::Int(2)]);
        table.insert(vec!["a".into(), SqlValue::Int(3)]);
        table
    }

    #[test]
    fn insert_iter_len() {
        let table = t();
        assert_eq!(table.len(), 3);
        assert_eq!(table.iter().count(), 3);
        assert_eq!(table.col("v"), Some(1));
        assert_eq!(table.col("missing"), None);
    }

    #[test]
    fn delete_tombstones() {
        let mut table = t();
        table.delete(1);
        assert_eq!(table.len(), 2);
        assert!(table.row(1).is_none());
        assert!(table.row(0).is_some());
        // Double delete is a no-op.
        table.delete(1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn index_lookup_and_maintenance() {
        let mut table = t();
        table.create_index(0);
        let idx = table.index(0).unwrap();
        assert_eq!(idx.lookup(&"a".into()), &[0, 2]);
        assert_eq!(idx.lookup(&"b".into()), &[1]);
        assert_eq!(idx.lookup(&"zz".into()), &[] as &[usize]);

        table.set_cell(0, 0, "b".into());
        let idx = table.index(0).unwrap();
        assert_eq!(idx.lookup(&"a".into()), &[2]);
        // Slot order, not arrival order: a probe walks rows as a scan would.
        assert_eq!(idx.lookup(&"b".into()), &[0, 1]);
        assert_eq!(table.indexed_columns().collect::<Vec<_>>(), vec![0]);

        table.delete(2);
        let idx = table.index(0).unwrap();
        assert_eq!(idx.lookup(&"a".into()), &[] as &[usize]);

        // Inserts keep the index current.
        table.insert(vec!["a".into(), SqlValue::Int(9)]);
        let idx = table.index(0).unwrap();
        assert_eq!(idx.lookup(&"a".into()), &[3]);
    }

    #[test]
    fn approx_bytes_grows() {
        let mut table = Table::new(vec!["k".into()]);
        let before = table.approx_bytes();
        table.insert(vec![SqlValue::Text("x".repeat(100))]);
        assert!(table.approx_bytes() > before + 100);
    }
}
