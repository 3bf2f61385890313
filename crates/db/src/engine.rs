//! Statement execution.
//!
//! Which rows a statement examines is decided here and in `table.rs`,
//! once per statement: `for_each_match` binds the WHERE clause to
//! column positions and borrowed right-hand sides, then walks either the
//! posting list of the first equality conjunct whose column has a
//! declared index, or the whole table. Both walks run in slot order and
//! apply every conjunct, so an index changes [`QueryResult::work`] and
//! nothing else.

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{CmpOp, Expr, SelectCols, Stmt, Where};
use crate::parser::{parse, ParseError};
use crate::table::{Row, Table};
use crate::value::SqlValue;

/// An execution error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// SQL failed to parse.
    Parse(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A table with this name already exists.
    TableExists(String),
    /// INSERT arity doesn't match the column count.
    ArityMismatch {
        /// Columns expected.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A `?` placeholder had no bound parameter.
    MissingParam(usize),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "{m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::TableExists(t) => write!(f, "table exists: {t}"),
            DbError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            DbError::MissingParam(i) => write!(f, "missing parameter {i}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<ParseError> for DbError {
    fn from(e: ParseError) -> DbError {
        DbError::Parse(e.to_string())
    }
}

/// The result of executing a statement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryResult {
    /// Result column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows inserted/updated/deleted.
    pub affected: usize,
    /// Row slots examined (at least 1) — the engine's work metric, charged
    /// by callers as cycles so database cost scales with data volume
    /// (Figure 9's OKDB series): the live rows of the table on a scan, the
    /// length of one posting list on an index probe, 1 for an INSERT.
    pub work: u64,
}

/// An in-memory relational database (the SQLite substitute of §7.5).
#[derive(Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Parses and executes `sql` with no parameters.
    pub fn run(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.run_with_params(sql, &[])
    }

    /// Parses and executes `sql`, binding `?` placeholders to `params`.
    pub fn run_with_params(
        &mut self,
        sql: &str,
        params: &[SqlValue],
    ) -> Result<QueryResult, DbError> {
        let stmt = parse(sql)?;
        self.execute(&stmt, params)
    }

    /// Executes a parsed statement.
    pub fn execute(&mut self, stmt: &Stmt, params: &[SqlValue]) -> Result<QueryResult, DbError> {
        match stmt {
            Stmt::CreateTable { name, columns } => {
                if self.tables.contains_key(name) {
                    return Err(DbError::TableExists(name.clone()));
                }
                self.tables
                    .insert(name.clone(), Table::new(columns.clone()));
                Ok(QueryResult::default())
            }
            Stmt::CreateIndex { table, column } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let col = t
                    .col(column)
                    .ok_or_else(|| DbError::NoSuchColumn(column.clone()))?;
                t.create_index(col);
                Ok(QueryResult::default())
            }
            Stmt::Insert {
                table,
                columns,
                values,
            } => {
                let t = self
                    .tables
                    .get_mut(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let vals: Vec<SqlValue> = values
                    .iter()
                    .map(|e| resolve(e, params).cloned())
                    .collect::<Result<_, _>>()?;
                let row = match columns {
                    None => {
                        if vals.len() != t.columns.len() {
                            return Err(DbError::ArityMismatch {
                                expected: t.columns.len(),
                                got: vals.len(),
                            });
                        }
                        vals
                    }
                    Some(cols) => {
                        if vals.len() != cols.len() {
                            return Err(DbError::ArityMismatch {
                                expected: cols.len(),
                                got: vals.len(),
                            });
                        }
                        let mut row = vec![SqlValue::Null; t.columns.len()];
                        for (c, v) in cols.iter().zip(vals) {
                            let pos = t.col(c).ok_or_else(|| DbError::NoSuchColumn(c.clone()))?;
                            row[pos] = v;
                        }
                        row
                    }
                };
                t.insert(row);
                Ok(QueryResult {
                    affected: 1,
                    work: 1,
                    ..QueryResult::default()
                })
            }
            Stmt::Select {
                columns,
                table,
                filter,
            } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let proj: Vec<(String, usize)> = match columns {
                    SelectCols::Star => t
                        .columns
                        .iter()
                        .enumerate()
                        .map(|(i, c)| (c.clone(), i))
                        .collect(),
                    SelectCols::Named(cols) => cols
                        .iter()
                        .map(|c| {
                            t.col(c)
                                .map(|i| (c.clone(), i))
                                .ok_or_else(|| DbError::NoSuchColumn(c.clone()))
                        })
                        .collect::<Result<_, _>>()?,
                };
                let mut rows = Vec::new();
                let work = for_each_match(t, filter, params, |_, row| {
                    rows.push(proj.iter().map(|&(_, i)| row[i].clone()).collect());
                })?;
                Ok(QueryResult {
                    columns: proj.into_iter().map(|(c, _)| c).collect(),
                    rows,
                    affected: 0,
                    work,
                })
            }
            Stmt::Update {
                table,
                sets,
                filter,
            } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let set_cols: Vec<(usize, &SqlValue)> = sets
                    .iter()
                    .map(|(c, e)| {
                        let pos = t.col(c).ok_or_else(|| DbError::NoSuchColumn(c.clone()))?;
                        Ok((pos, resolve(e, params)?))
                    })
                    .collect::<Result<_, DbError>>()?;
                let mut hits = Vec::new();
                let work = for_each_match(t, filter, params, |slot, _| hits.push(slot))?;
                let t = self.tables.get_mut(table).expect("checked above");
                for &slot in &hits {
                    for &(col, v) in &set_cols {
                        t.set_cell(slot, col, v.clone());
                    }
                }
                Ok(QueryResult {
                    affected: hits.len(),
                    work,
                    ..QueryResult::default()
                })
            }
            Stmt::Delete { table, filter } => {
                let t = self
                    .tables
                    .get(table)
                    .ok_or_else(|| DbError::NoSuchTable(table.clone()))?;
                let mut hits = Vec::new();
                let work = for_each_match(t, filter, params, |slot, _| hits.push(slot))?;
                let t = self.tables.get_mut(table).expect("checked above");
                for &slot in &hits {
                    t.delete(slot);
                }
                Ok(QueryResult {
                    affected: hits.len(),
                    work,
                    ..QueryResult::default()
                })
            }
        }
    }

    /// The table names currently defined.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// A table by name (read-only).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Approximate heap usage (for Figure 6-style accounting of the DB).
    pub fn approx_bytes(&self) -> usize {
        self.tables.values().map(Table::approx_bytes).sum()
    }

    /// Installs a fully built table (snapshot restore path; bypasses SQL).
    pub(crate) fn put_table(&mut self, name: String, table: Table) {
        self.tables.insert(name, table);
    }
}

fn resolve<'a>(expr: &'a Expr, params: &'a [SqlValue]) -> Result<&'a SqlValue, DbError> {
    match expr {
        Expr::Lit(v) => Ok(v),
        Expr::Param(i) => params.get(*i).ok_or(DbError::MissingParam(*i)),
    }
}

/// Calls `hit(slot, row)` for every live row of `t` that satisfies
/// `filter`, in slot order, and returns the work done (row slots examined,
/// at least 1).
///
/// The WHERE clause is bound first — each conjunct to its column position
/// and a right-hand side borrowed from the literal or from `params` — so
/// an unknown column or a missing parameter is an error even when the
/// table is empty, and the per-row test allocates nothing.
fn for_each_match(
    t: &Table,
    filter: &Where,
    params: &[SqlValue],
    mut hit: impl FnMut(usize, &Row),
) -> Result<u64, DbError> {
    let bound: Vec<(usize, CmpOp, &SqlValue)> = filter
        .conjuncts
        .iter()
        .map(|c| {
            let col = t
                .col(&c.column)
                .ok_or_else(|| DbError::NoSuchColumn(c.column.clone()))?;
            Ok((col, c.op, resolve(&c.rhs, params)?))
        })
        .collect::<Result<_, DbError>>()?;
    let matches = |row: &Row| bound.iter().all(|&(col, op, rhs)| op.eval(&row[col], rhs));
    let probe = bound
        .iter()
        .filter(|&&(_, op, _)| op == CmpOp::Eq)
        .find_map(|&(col, _, rhs)| Some(t.index(col)?.lookup(rhs)));
    let examined = match probe {
        Some(slots) => {
            for &slot in slots {
                match t.row(slot) {
                    Some(row) if matches(row) => hit(slot, row),
                    _ => {}
                }
            }
            slots.len()
        }
        None => {
            for (slot, row) in t.iter().filter(|(_, row)| matches(row)) {
                hit(slot, row);
            }
            t.len()
        }
    };
    Ok((examined as u64).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut db = Database::new();
        db.run("CREATE TABLE users (name, pw, uid)").unwrap();
        db.run("INSERT INTO users VALUES ('alice', 'pw-a', 1)")
            .unwrap();
        db.run("INSERT INTO users VALUES ('bob', 'pw-b', 2)")
            .unwrap();
        db.run("INSERT INTO users VALUES ('carol', 'pw-c', 3)")
            .unwrap();
        db
    }

    #[test]
    fn select_where() {
        let mut d = db();
        let r = d.run("SELECT uid FROM users WHERE name = 'bob'").unwrap();
        assert_eq!(r.rows, vec![vec![SqlValue::Int(2)]]);
        assert_eq!(r.columns, vec!["uid"]);
        let r = d.run("SELECT name FROM users WHERE uid >= 2").unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn select_star_and_params() {
        let mut d = db();
        let r = d
            .run_with_params(
                "SELECT * FROM users WHERE name = ? AND pw = ?",
                &["alice".into(), "pw-a".into()],
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.columns, vec!["name", "pw", "uid"]);
        // Wrong password: no rows.
        let r = d
            .run_with_params(
                "SELECT * FROM users WHERE name = ? AND pw = ?",
                &["alice".into(), "wrong".into()],
            )
            .unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn update_and_delete() {
        let mut d = db();
        let r = d
            .run("UPDATE users SET pw = 'new' WHERE name = 'alice'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let r = d.run("SELECT pw FROM users WHERE name = 'alice'").unwrap();
        assert_eq!(r.rows[0][0], SqlValue::Text("new".into()));
        let r = d.run("DELETE FROM users WHERE uid > 1").unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(d.table("users").unwrap().len(), 1);
    }

    #[test]
    fn insert_with_columns_fills_nulls() {
        let mut d = db();
        d.run("INSERT INTO users (name) VALUES ('dave')").unwrap();
        let r = d
            .run("SELECT pw, uid FROM users WHERE name = 'dave'")
            .unwrap();
        assert_eq!(r.rows[0], vec![SqlValue::Null, SqlValue::Null]);
    }

    #[test]
    fn index_reduces_work() {
        let mut d = Database::new();
        d.run("CREATE TABLE big (k, v)").unwrap();
        for i in 0..1000 {
            d.run_with_params(
                "INSERT INTO big VALUES (?, ?)",
                &[SqlValue::Text(format!("k{i}")), SqlValue::Int(i)],
            )
            .unwrap();
        }
        let scan = d
            .run_with_params("SELECT v FROM big WHERE k = ?", &["k500".into()])
            .unwrap();
        assert_eq!(scan.work, 1000, "full scan without index");
        d.run("CREATE INDEX ON big (k)").unwrap();
        let probe = d
            .run_with_params("SELECT v FROM big WHERE k = ?", &["k500".into()])
            .unwrap();
        assert_eq!(probe.rows, scan.rows);
        assert_eq!(probe.work, 1, "index probe");
        // A value with several rows: the probe examines exactly those.
        for v in [7, 8, 9] {
            d.run_with_params("INSERT INTO big VALUES ('k500', ?)", &[SqlValue::Int(v)])
                .unwrap();
        }
        let probe = d.run("SELECT v FROM big WHERE k = 'k500'").unwrap();
        assert_eq!(probe.rows.len(), 4);
        assert_eq!(probe.work, 4, "work = posting-list length = matches");
        let narrowed = d
            .run("SELECT v FROM big WHERE v < 9 AND k = 'k500'")
            .unwrap();
        assert_eq!(
            narrowed.rows,
            vec![vec![SqlValue::Int(7)], vec![SqlValue::Int(8)]]
        );
        assert_eq!(narrowed.work, 4, "other conjuncts filter, the probe bounds");
    }

    #[test]
    fn where_is_bound_before_any_row_is_read() {
        // Binding does not wait for a row to compare: an empty table
        // reports both errors too.
        let mut d = Database::new();
        d.run("CREATE TABLE users (name, pw)").unwrap();
        for sql in [
            "SELECT * FROM users WHERE nope = 1",
            "UPDATE users SET pw = 'x' WHERE nope > 1",
            "DELETE FROM users WHERE name = 'a' AND nope != 1",
        ] {
            assert_eq!(d.run(sql), Err(DbError::NoSuchColumn("nope".into())));
        }
        for sql in [
            "SELECT * FROM users WHERE name = ?",
            "DELETE FROM users WHERE name >= ?",
        ] {
            assert_eq!(d.run(sql), Err(DbError::MissingParam(0)));
        }
        assert_eq!(
            d.run_with_params("UPDATE users SET pw = ? WHERE name = ?", &["x".into()]),
            Err(DbError::MissingParam(1))
        );
    }

    #[test]
    fn null_never_matches_through_an_index() {
        let mut d = db();
        d.run("INSERT INTO users (pw) VALUES ('orphan')").unwrap();
        d.run("CREATE INDEX ON users (name)").unwrap();
        let r = d.run("SELECT pw FROM users WHERE name = NULL").unwrap();
        assert!(r.rows.is_empty(), "NULL = NULL is not true");
        let r = d
            .run_with_params("SELECT pw FROM users WHERE name = ?", &[SqlValue::Null])
            .unwrap();
        assert!(r.rows.is_empty());
        assert_eq!(
            d.run("DELETE FROM users WHERE name = NULL")
                .unwrap()
                .affected,
            0
        );
        assert_eq!(d.table("users").unwrap().len(), 4);
    }

    #[test]
    fn errors() {
        let mut d = db();
        assert!(matches!(
            d.run("SELECT * FROM nope"),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            d.run("SELECT zip FROM users"),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(
            d.run("CREATE TABLE users (x)"),
            Err(DbError::TableExists(_))
        ));
        assert!(matches!(
            d.run("INSERT INTO users VALUES (1)"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            d.run("SELECT * FROM users WHERE name = ?"),
            Err(DbError::MissingParam(0))
        ));
        assert!(matches!(d.run("BOGUS"), Err(DbError::Parse(_))));
    }

    #[test]
    fn update_via_index_path() {
        let mut d = db();
        d.run("CREATE INDEX ON users (name)").unwrap();
        let r = d
            .run("UPDATE users SET uid = 9 WHERE name = 'carol'")
            .unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(r.work, 1);
        // Index reflects cell updates.
        let r = d.run("DELETE FROM users WHERE name = 'carol'").unwrap();
        assert_eq!(r.affected, 1);
        let r = d.run("SELECT * FROM users WHERE name = 'carol'").unwrap();
        assert!(r.rows.is_empty());
    }
}
