//! The durable engine: every committed statement redo-logged through
//! `asbestos-store` before it is acknowledged.
//!
//! §7.5's persistence claim needs more than the in-memory snapshot codec:
//! a crash between snapshots must not lose acknowledged writes, and a
//! torn write must not resurrect unacknowledged ones. [`DurableDb`] wraps
//! the relational [`Database`] with a write-ahead log:
//!
//! * every *mutating* statement that executes successfully is appended to
//!   the WAL as a [`DbRecord`] — the logical redo record (original SQL,
//!   parameters, and the acting uid for worker writes, so replay passes
//!   through the identical rewrite path);
//! * group commit: records batch until [`DurableDb::flush`] (or the
//!   configured batch size) writes one commit marker and syncs — callers
//!   that acknowledge a statement flush first, so an ack implies
//!   durability;
//! * recovery = newest snapshot + committed WAL replay; compaction folds
//!   a long log back into an ASDB snapshot;
//! * the schema — tables *and* indexes — is state like any row: declared
//!   by a DDL script on the trusted path ([`DurableDb::apply_ddl`]; a
//!   worker's `Exec` / `Query` still parses exactly one statement),
//!   logged only when it changed something, carried by the snapshot, and
//!   so identical after recovery. Nothing builds an index from traffic.
//!
//! Reads never log. The proxy's policy layer (hidden ownership column,
//! write gates, per-owner taint) stays in `proxy.rs`; this module owns only
//! *how state changes become durable*, plus the worker-statement rewrite
//! (shared verbatim between live execution and replay).

use asbestos_store::codec::Reader;
use asbestos_store::{BlockDev, Store};

use crate::ast::{CmpOp, Comparison, Expr, Stmt};
use crate::engine::{Database, DbError, QueryResult};
use crate::parser::{parse, parse_script};
use crate::proxy::USER_ID_COLUMN;
use crate::snapshot::{put_row, put_str, read_row};
use crate::value::SqlValue;

/// One redo record: enough to re-execute a committed statement through
/// the same code path it originally took.
#[derive(Clone, Debug, PartialEq)]
pub enum DbRecord {
    /// Trusted DDL (worker-table creation: hidden column prepended on
    /// replay exactly as on first execution).
    Ddl {
        /// The original statement.
        sql: String,
    },
    /// Trusted raw statement (idd's credential tables, proxy metadata).
    Admin {
        /// The statement.
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
    },
    /// A worker write already gated by the §7.5 policy; replay re-applies
    /// the ownership rewrite for `uid`.
    Worker {
        /// Owner uid the write was accepted for (0 = declassified).
        uid: i64,
        /// The original statement.
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
    },
}

impl DbRecord {
    /// Serializes the record (WAL payload bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            DbRecord::Ddl { sql } => {
                out.push(1);
                put_str(&mut out, sql);
            }
            DbRecord::Admin { sql, params } => {
                out.push(2);
                put_str(&mut out, sql);
                put_row(&mut out, params);
            }
            DbRecord::Worker { uid, sql, params } => {
                out.push(3);
                out.extend_from_slice(&uid.to_le_bytes());
                put_str(&mut out, sql);
                put_row(&mut out, params);
            }
        }
        out
    }

    /// Deserializes a record; `None` on anything malformed (the WAL CRC
    /// already rules out torn bytes, so `None` means format skew).
    pub fn from_bytes(bytes: &[u8]) -> Option<DbRecord> {
        let mut r = Reader::new(bytes);
        let record = match r.u8().ok()? {
            1 => DbRecord::Ddl {
                sql: r.str().ok()?.to_owned(),
            },
            2 => DbRecord::Admin {
                sql: r.str().ok()?.to_owned(),
                params: read_row(&mut r).ok()?,
            },
            3 => DbRecord::Worker {
                uid: r.u64().ok()? as i64,
                sql: r.str().ok()?.to_owned(),
                params: read_row(&mut r).ok()?,
            },
            _ => return None,
        };
        r.finish().ok()?;
        Some(record)
    }
}

/// Applies trusted DDL — a schema script of `;`-separated `CREATE TABLE`
/// and `CREATE INDEX` statements. `CREATE TABLE` gets the hidden ownership
/// column prepended and indexed (§7.5: "ok-dbproxy adds a 'user ID' column
/// to the table definition of every table accessed by OKWS workers");
/// `CREATE INDEX` passes through. A script that fails to parse, or holds
/// anything but schema statements, applies nothing. Each statement is
/// applied on its own, and one that declares what already exists is a
/// no-op, so the schema can be re-declared at every boot. Returns whether
/// anything *changed*.
pub(crate) fn ddl_apply(db: &mut Database, sql: &str) -> bool {
    let Ok(script) = parse_script(sql) else {
        return false;
    };
    let schema_only = |s: &Stmt| matches!(s, Stmt::CreateTable { .. } | Stmt::CreateIndex { .. });
    if !script.iter().all(schema_only) {
        return false;
    }
    let mut changed = false;
    for stmt in script {
        changed |= match stmt {
            Stmt::CreateTable { name, mut columns } => {
                columns.insert(0, USER_ID_COLUMN.to_string());
                let owner_index = Stmt::CreateIndex {
                    table: name.clone(),
                    column: USER_ID_COLUMN.to_string(),
                };
                let created = db
                    .execute(&Stmt::CreateTable { name, columns }, &[])
                    .is_ok();
                if created {
                    let _ = db.execute(&owner_index, &[]);
                }
                created
            }
            Stmt::CreateIndex {
                ref table,
                ref column,
            } => {
                let declared = db
                    .table(table)
                    .and_then(|t| t.index(t.col(column)?))
                    .is_some();
                !declared && db.execute(&stmt, &[]).is_ok()
            }
            _ => unreachable!("schema statements only, checked above"),
        };
    }
    changed
}

/// Whether `table` is worker-visible: it exists and carries the hidden
/// ownership column in position 0 — i.e. it was created through the DDL
/// path above. Tables created raw over the admin port (idd's credential
/// table, the proxy's own metadata) fail this and are unreachable from
/// worker statements entirely.
pub(crate) fn worker_table(db: &Database, table: &str) -> bool {
    db.table(table)
        .is_some_and(|t| t.columns.first().is_some_and(|c| c == USER_ID_COLUMN))
}

/// Rewrites a worker write so it can only touch rows owned by `uid`,
/// then executes it. Returns `(affected, work)`; `None` refuses the
/// statement. Replay calls this with the logged uid, so recovery applies
/// byte-identical effects.
pub(crate) fn worker_apply(
    db: &mut Database,
    sql: &str,
    params: &[SqlValue],
    uid: i64,
) -> Option<(usize, u64)> {
    let stmt = parse(sql).ok()?;
    if stmt
        .mentioned_columns()
        .iter()
        .any(|c| c.eq_ignore_ascii_case(USER_ID_COLUMN))
    {
        return None; // workers cannot access or change this column
    }
    let owner_guard = Comparison {
        column: USER_ID_COLUMN.to_string(),
        op: CmpOp::Eq,
        rhs: Expr::Lit(SqlValue::Int(uid)),
    };
    let rewritten = match stmt {
        Stmt::Insert {
            table,
            columns,
            values,
        } => {
            if !worker_table(db, &table) {
                return None;
            }
            // Prepend the owner id. With an explicit column list we add
            // the hidden column explicitly; without one we rely on
            // user_id being the first column.
            let columns = columns.map(|mut cs| {
                cs.insert(0, USER_ID_COLUMN.to_string());
                cs
            });
            let mut vals = Vec::with_capacity(values.len() + 1);
            vals.push(Expr::Lit(SqlValue::Int(uid)));
            vals.extend(values);
            Stmt::Insert {
                table,
                columns,
                values: vals,
            }
        }
        Stmt::Update {
            table,
            sets,
            mut filter,
        } => {
            if !worker_table(db, &table) {
                return None;
            }
            filter.conjuncts.push(owner_guard);
            Stmt::Update {
                table,
                sets,
                filter,
            }
        }
        Stmt::Delete { table, mut filter } => {
            if !worker_table(db, &table) {
                return None;
            }
            filter.conjuncts.push(owner_guard);
            Stmt::Delete { table, filter }
        }
        // Everything else is not a worker write.
        _ => return None,
    };
    let result = db.execute(&rewritten, params).ok()?;
    Some((result.affected, result.work))
}

/// Whether a successfully-executed admin statement mutated state (and so
/// belongs in the redo log).
fn is_mutation(sql: &str) -> bool {
    !matches!(parse(sql), Ok(Stmt::Select { .. }))
}

/// What recovery found when opening a [`DurableDb`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DbRecovery {
    /// Whether a snapshot was restored.
    pub from_snapshot: bool,
    /// Committed WAL records replayed on top of it.
    pub replayed: usize,
    /// Committed records that failed to decode or re-apply (format skew;
    /// 0 in any healthy log).
    pub skipped: usize,
    /// The boot epoch the underlying store was opened under.
    pub boot_epoch: u64,
}

/// A [`Database`] whose mutations are write-ahead logged.
///
/// In *volatile* mode (no store) it is a plain in-memory database with
/// the identical API — the pre-durability configuration, bit for bit.
pub struct DurableDb {
    db: Database,
    store: Option<Store>,
    /// Group-commit batch: records per sync. 1 — sync per mutation —
    /// unless [`DurableDb::set_group_commit`] says otherwise; a larger
    /// batch acknowledges before it syncs.
    group_commit: usize,
    recovery: DbRecovery,
}

impl DurableDb {
    /// A purely in-memory database (no WAL, nothing survives drop).
    pub fn volatile() -> DurableDb {
        DurableDb::from_database(Database::new())
    }

    /// Volatile mode over an existing database.
    pub fn from_database(db: Database) -> DurableDb {
        DurableDb {
            db,
            store: None,
            group_commit: 1,
            recovery: DbRecovery::default(),
        }
    }

    /// Opens (and recovers) a durable database over `dev`: newest intact
    /// snapshot, then committed WAL records replayed through the same
    /// apply paths live execution uses. The group-commit batch is 1 —
    /// sync per mutation — until [`DurableDb::set_group_commit`].
    pub fn open(dev: Box<dyn BlockDev>) -> DurableDb {
        let (store, recovery) = Store::open(dev);
        let mut db = match &recovery.snapshot {
            Some(bytes) => crate::snapshot::restore(bytes)
                .expect("CRC-valid snapshot must restore; format skew is a bug"),
            None => Database::new(),
        };
        let mut replayed = 0;
        let mut skipped = 0;
        for raw in &recovery.records {
            match DbRecord::from_bytes(raw) {
                Some(DbRecord::Ddl { sql }) => {
                    ddl_apply(&mut db, &sql);
                    replayed += 1;
                }
                Some(DbRecord::Admin { sql, params }) => {
                    if db.run_with_params(&sql, &params).is_ok() {
                        replayed += 1;
                    } else {
                        skipped += 1;
                    }
                }
                Some(DbRecord::Worker { uid, sql, params }) => {
                    if worker_apply(&mut db, &sql, &params, uid).is_some() {
                        replayed += 1;
                    } else {
                        skipped += 1;
                    }
                }
                None => skipped += 1,
            }
        }
        DurableDb {
            db,
            store: Some(store),
            group_commit: 1,
            recovery: DbRecovery {
                from_snapshot: recovery.snapshot.is_some(),
                replayed,
                skipped,
                boot_epoch: recovery.boot_epoch,
            },
        }
    }

    /// What recovery found (all zeros in volatile mode).
    pub fn recovery(&self) -> DbRecovery {
        self.recovery
    }

    /// Whether mutations are write-ahead logged.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Sets the group-commit batch size (records per sync).
    pub fn set_group_commit(&mut self, records: usize) {
        self.group_commit = records.max(1);
    }

    /// Read access to the engine (SELECT paths; never logged).
    pub fn engine(&self) -> &Database {
        &self.db
    }

    /// Mutable engine access for *read* execution (the engine API takes
    /// `&mut self`). Callers must not route mutations through this — they
    /// would bypass the log; use the `apply`/`exec` methods.
    pub fn engine_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Trusted schema script (worker tables get the hidden column
    /// prepended), logged when — and only when — it changed the schema.
    /// Returns whether it did.
    pub fn apply_ddl(&mut self, sql: &str) -> bool {
        if ddl_apply(&mut self.db, sql) {
            self.log(DbRecord::Ddl {
                sql: sql.to_string(),
            });
            true
        } else {
            false
        }
    }

    /// Trusted raw statement; mutations are logged on success.
    pub fn admin_exec(&mut self, sql: &str, params: &[SqlValue]) -> Result<QueryResult, DbError> {
        let result = self.db.run_with_params(sql, params)?;
        if is_mutation(sql) {
            self.log(DbRecord::Admin {
                sql: sql.to_string(),
                params: params.to_vec(),
            });
        }
        Ok(result)
    }

    /// A policy-gated worker write for `uid`, logged on success.
    pub fn worker_exec(
        &mut self,
        sql: &str,
        params: &[SqlValue],
        uid: i64,
    ) -> Option<(usize, u64)> {
        let outcome = worker_apply(&mut self.db, sql, params, uid)?;
        self.log(DbRecord::Worker {
            uid,
            sql: sql.to_string(),
            params: params.to_vec(),
        });
        Some(outcome)
    }

    fn log(&mut self, record: DbRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record.to_bytes());
            if store.pending() >= self.group_commit {
                self.flush();
            }
        }
    }

    /// Group commit: makes every logged record durable (one sync), then
    /// compacts the WAL into a snapshot if it has outgrown its bound.
    /// Call before acknowledging a statement; a no-op when nothing is
    /// pending or in volatile mode.
    pub fn flush(&mut self) {
        let Some(store) = &mut self.store else { return };
        store.commit();
        if store.needs_compaction() {
            let snapshot = crate::snapshot::snapshot(&self.db);
            store.compact(&snapshot);
        }
    }

    /// Sets the WAL-size bound past which [`DurableDb::flush`] compacts
    /// (volatile mode: no-op).
    pub fn set_compact_threshold(&mut self, bytes: usize) {
        if let Some(store) = &mut self.store {
            store.set_compact_threshold(bytes);
        }
    }

    /// Serializes the current state (the ASDB snapshot codec).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        crate::snapshot::snapshot(&self.db)
    }

    /// The boot epoch of the underlying store (0 in volatile mode).
    pub fn boot_epoch(&self) -> u64 {
        self.recovery.boot_epoch
    }

    /// Uncommitted logged records (0 in volatile mode).
    pub fn pending(&self) -> usize {
        self.store.as_ref().map_or(0, Store::pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asbestos_store::MemDev;

    #[test]
    fn record_codec_round_trips() {
        let records = vec![
            DbRecord::Ddl {
                sql: "CREATE TABLE t (a, b)".into(),
            },
            DbRecord::Admin {
                sql: "INSERT INTO okws_users VALUES (?, ?)".into(),
                params: vec!["alice".into(), SqlValue::Blob(vec![1, 2, 3])],
            },
            DbRecord::Worker {
                uid: -7,
                sql: "INSERT INTO store VALUES (?, ?)".into(),
                params: vec![SqlValue::Null, SqlValue::Int(i64::MIN)],
            },
        ];
        for r in records {
            assert_eq!(DbRecord::from_bytes(&r.to_bytes()), Some(r));
        }
        assert_eq!(DbRecord::from_bytes(b""), None);
        assert_eq!(DbRecord::from_bytes(&[9, 0, 0]), None);
        // Trailing garbage is rejected, not silently ignored.
        let mut bytes = DbRecord::Ddl { sql: "x".into() }.to_bytes();
        bytes.push(0);
        assert_eq!(DbRecord::from_bytes(&bytes), None);
    }

    #[test]
    fn committed_mutations_survive_reopen() {
        let dev = MemDev::new();
        {
            let mut db = DurableDb::open(Box::new(dev.clone()));
            assert!(db.apply_ddl("CREATE TABLE notes (body)"));
            assert!(db
                .worker_exec("INSERT INTO notes VALUES (?)", &["hi".into()], 3)
                .is_some());
            db.flush();
            // Logged but never flushed (wide batch): lost on crash.
            db.set_group_commit(64);
            db.worker_exec("INSERT INTO notes VALUES ('volatile')", &[], 3);
            assert_eq!(db.pending(), 1);
        }
        dev.crash(0);
        let mut db = DurableDb::open(Box::new(dev));
        assert_eq!(db.recovery().replayed, 2);
        assert_eq!(db.recovery().skipped, 0);
        let rows = db
            .engine_mut()
            .run("SELECT user_id, body FROM notes")
            .unwrap()
            .rows;
        assert_eq!(rows, vec![vec![SqlValue::Int(3), "hi".into()]]);
    }

    #[test]
    fn selects_are_never_logged() {
        let dev = MemDev::new();
        let mut db = DurableDb::open(Box::new(dev.clone()));
        db.admin_exec("CREATE TABLE t (a)", &[]).unwrap();
        db.admin_exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        db.flush();
        let wal_before = dev.dump("wal.00000000").len();
        db.admin_exec("SELECT a FROM t", &[]).unwrap();
        db.flush();
        assert_eq!(dev.dump("wal.00000000").len(), wal_before);
    }

    #[test]
    fn group_commit_batches_syncs() {
        let dev = MemDev::new();
        let mut db = DurableDb::open(Box::new(dev.clone()));
        db.apply_ddl("CREATE TABLE t (v)");
        db.flush();
        db.set_group_commit(8);
        let syncs_before = dev.sync_count();
        for i in 0..16 {
            db.worker_exec("INSERT INTO t VALUES (?)", &[SqlValue::Int(i)], 1);
        }
        assert_eq!(dev.sync_count() - syncs_before, 2, "16 records, batch 8");
        assert_eq!(db.pending(), 0);
    }

    #[test]
    fn compaction_folds_wal_into_snapshot_and_recovers() {
        let dev = MemDev::new();
        let mut db = DurableDb::open(Box::new(dev.clone()));
        db.set_compact_threshold(512);
        db.apply_ddl("CREATE TABLE t (v)");
        for i in 0..50 {
            db.worker_exec("INSERT INTO t VALUES (?)", &[SqlValue::Int(i)], 1);
        }
        db.flush();
        let live = db.snapshot_bytes();
        assert!(
            dev.list().iter().any(|n| n.starts_with("snap.")),
            "threshold crossed: a snapshot exists"
        );
        drop(db);
        let db2 = DurableDb::open(Box::new(dev));
        assert!(db2.recovery().from_snapshot);
        assert_eq!(db2.snapshot_bytes(), live, "recovery is state-identical");
    }

    #[test]
    fn volatile_mode_has_no_side_channel() {
        let mut db = DurableDb::volatile();
        assert!(!db.is_durable());
        db.apply_ddl("CREATE TABLE t (v)");
        db.worker_exec("INSERT INTO t VALUES (1)", &[], 1);
        db.flush();
        assert_eq!(db.pending(), 0);
        assert_eq!(db.boot_epoch(), 0);
    }

    #[test]
    fn worker_writes_cannot_touch_raw_tables() {
        let mut db = DurableDb::volatile();
        // A raw (admin-created) table has no hidden column.
        db.admin_exec("CREATE TABLE okws_users (name, pw)", &[])
            .unwrap();
        db.admin_exec("INSERT INTO okws_users VALUES ('alice', 'secret')", &[])
            .unwrap();
        assert!(
            db.worker_exec("INSERT INTO okws_users VALUES ('evil', 'x')", &[], 5)
                .is_none(),
            "worker INSERT into a raw table must be refused"
        );
        assert!(
            db.worker_exec("DELETE FROM okws_users", &[], 5).is_none(),
            "worker DELETE from a raw table must be refused"
        );
        assert_eq!(db.engine().table("okws_users").unwrap().len(), 1);
    }
}
