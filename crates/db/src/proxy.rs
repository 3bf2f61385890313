//! ok-dbproxy: the trusted database interposer (§7.5, §7.6).
//!
//! "A separate process called ok-dbproxy interposes on all OKWS database
//! accesses, converting Asbestos labels and security policies to data types
//! and functions native to standard SQLite. ... ok-dbproxy adds a 'user ID'
//! column to the table definition of every table accessed by OKWS workers.
//! The workers themselves cannot access or change this column."
//!
//! Enforced policies:
//!
//! * **Writes** require a bound user `u` and `V ⊑ {uT 3, uG 0, 2}`: the
//!   sender is uncontaminated by anyone else's data and speaks for `u`.
//!   Accepted writes are rewritten so every row carries `u`'s user id.
//! * **Declassifiers** prove `V(uT) = ⋆` and write rows with user id 0
//!   (§7.6); such rows read back untainted.
//! * **Reads** return one `Rows` message per distinct owner in the result,
//!   holding that owner's rows in scan order and contaminated with the
//!   owner's taint at 3, then an untainted `Done`. Messages go out in order
//!   of each owner's first row. The kernel drops the messages the querying
//!   worker may not see; the worker cannot count them.
//!
//!   Rows are grouped by owner, never by run of consecutive rows: with runs,
//!   a worker that got its own rows in two messages would learn that an
//!   invisible row sat between them. Per owner, what a worker receives is
//!   the same whatever other users' rows the result holds.
//!
//!   Rows owned by a user with no binding in this boot are withheld: after
//!   a reboot, no taint handle exists for them until that user's `Bind`, and
//!   nobody may read them untainted. A worker cannot tell a withheld
//!   message from one the kernel dropped.

use std::collections::BTreeMap;

use asbestos_kernel::{
    Category, Handle, Kernel, Label, Level, Message, ProcessId, SendArgs, Service, Sys, Value,
};
use asbestos_store::BlockDev;

use crate::ast::{SelectCols, Stmt};
use crate::durable::{worker_table, DurableDb};
use crate::parser::parse;
use crate::proto::DbMsg;
use crate::snapshot::put_row;
use crate::value::SqlValue;

/// The hidden ownership column the proxy adds to every table.
pub const USER_ID_COLUMN: &str = "user_id";

/// The proxy's private metadata table mapping usernames to their
/// persistent uids. Rows here are what re-connect recovered data to a
/// user whose handles were re-minted after a reboot (§7.5): `Bind`
/// reuses the stored uid instead of allocating by arrival order. Created
/// raw (no hidden column), so workers can never reach it.
pub const OWNERS_TABLE: &str = "dbproxy_owners";

/// Environment key for the proxy's worker-facing port.
pub const DB_PORT_ENV: &str = "db.port";

/// Environment key naming the port that should receive the admin-port
/// grant at startup (set by the launcher before spawning the proxy).
pub const DB_TRUSTED_ENV: &str = "db.trusted";

/// Base cycles charged per proxy request (parse, rewrite, policy checks).
pub const PROXY_MSG_CYCLES: u64 = 60_000;

/// Cycles charged per row slot the engine examines.
pub const PROXY_ROW_CYCLES: u64 = 500;

/// §7.5's write gate, `V ⊑ {uT 3, uG 0, 2}`: the sender proves it speaks
/// for the user whose taint and grant handles are `taint` and `grant`.
/// ok-dbproxy and ok-cache gate every write on it.
pub fn write_allowed(verify: &Label, taint: Handle, grant: Handle) -> bool {
    verify.leq(&Label::from_pairs(
        Level::L2,
        &[(taint, Level::L3), (grant, Level::L0)],
    ))
}

struct Binding {
    uid: i64,
    taint: Handle,
    grant: Handle,
}

/// One owner's share of a result: the hidden owner uid, and that owner's
/// visible rows in scan order, laid end to end in [`put_row`]'s encoding.
type OwnerRows = (i64, Vec<u8>);

/// The ok-dbproxy service.
pub struct DbProxy {
    db: DurableDb,
    users: BTreeMap<String, Binding>,
    uid_taint: BTreeMap<i64, Handle>,
    next_uid: i64,
    admin_port: Option<Handle>,
}

impl DbProxy {
    /// Creates an empty proxy (volatile: nothing survives the boot).
    pub fn new() -> DbProxy {
        DbProxy::with_durable(DurableDb::volatile())
    }

    /// Creates a proxy whose every committed statement is write-ahead
    /// logged to `dev` before acknowledgement — the full §7.5 durability
    /// path. Opening recovers: newest snapshot, then the committed WAL
    /// prefix, then uid bindings from the recovered [`OWNERS_TABLE`].
    pub fn with_store(dev: Box<dyn BlockDev>) -> DbProxy {
        DbProxy::with_durable(DurableDb::open(dev))
    }

    fn with_durable(mut db: DurableDb) -> DbProxy {
        // The owners table is proxy metadata: created raw (workers cannot
        // reach tables without the hidden column) and itself WAL-logged,
        // so uid bindings recover with the data they own. Its index is
        // schema like any other: declared at every open, logged the one
        // time that changes anything.
        if db.engine().table(OWNERS_TABLE).is_none() {
            let _ = db.admin_exec(&format!("CREATE TABLE {OWNERS_TABLE} (name, uid)"), &[]);
        }
        db.apply_ddl(&format!("CREATE INDEX ON {OWNERS_TABLE} (name)"));
        let next_uid = db
            .engine_mut()
            .run(&format!("SELECT uid FROM {OWNERS_TABLE}"))
            .map(|r| {
                r.rows
                    .iter()
                    .filter_map(|row| row.first().and_then(SqlValue::as_int))
                    .max()
                    .unwrap_or(0)
                    + 1
            })
            .unwrap_or(1);
        DbProxy {
            db,
            users: BTreeMap::new(),
            uid_taint: BTreeMap::new(),
            next_uid,
            admin_port: None,
        }
    }

    /// Serializes the proxy's database (for §7.5 persistence).
    pub fn snapshot(&self) -> Vec<u8> {
        self.db.snapshot_bytes()
    }

    /// The boot epoch of the underlying store (0 when volatile).
    pub fn boot_epoch(&self) -> u64 {
        self.db.boot_epoch()
    }

    /// The persistent uid bound to `user`, if one exists (stored in
    /// [`OWNERS_TABLE`]; survives reboots).
    fn persisted_uid(&mut self, user: &str) -> Option<i64> {
        self.db
            .engine_mut()
            .run_with_params(
                &format!("SELECT uid FROM {OWNERS_TABLE} WHERE name = ?"),
                &[SqlValue::Text(user.to_string())],
            )
            .ok()?
            .rows
            .first()
            .and_then(|row| row.first().and_then(SqlValue::as_int))
    }

    /// Looks up — or allocates and persists — the uid for `user`. The
    /// allocation rides the WAL: it is flushed no later than the first
    /// acknowledged write it guards, so durable rows can never outlive
    /// their owner binding.
    fn lookup_or_assign_uid(&mut self, user: &str) -> i64 {
        if let Some(uid) = self.persisted_uid(user) {
            return uid;
        }
        let uid = self.next_uid;
        self.next_uid += 1;
        let _ = self.db.admin_exec(
            &format!("INSERT INTO {OWNERS_TABLE} VALUES (?, ?)"),
            &[SqlValue::Text(user.to_string()), SqlValue::Int(uid)],
        );
        uid
    }

    /// [`write_allowed`] for `user`'s binding, if it has one.
    fn write_allowed(&self, user: &str, verify: &Label) -> Option<&Binding> {
        let binding = self.users.get(user)?;
        write_allowed(verify, binding.taint, binding.grant).then_some(binding)
    }

    /// §7.6's declassifier proof: `V(uT) = ⋆`.
    fn declassify_allowed(&self, user: &str, verify: &Label) -> bool {
        match self.users.get(user) {
            Some(b) => verify.get(b.taint) == Level::Star,
            None => false,
        }
    }

    fn handle_admin(&mut self, sys: &mut Sys<'_>, msg: DbMsg) {
        match msg {
            DbMsg::Bind {
                user,
                taint,
                grant,
                reply,
            } => {
                // The binder granted us taint ⋆ via D_S on this message;
                // raise our receive label so arbitrarily-tainted workers
                // can still reach us.
                sys.raise_recv(taint, Level::L3)
                    .expect("Bind must arrive with a ⋆ grant for the taint handle");
                // §7.5 reboot re-binding: a user seen in any earlier boot
                // keeps the uid persisted in the owners table, so fresh
                // per-boot handles reconnect to the rows they owned.
                let uid = self.lookup_or_assign_uid(&user);
                self.uid_taint.insert(uid, taint);
                self.users.insert(user, Binding { uid, taint, grant });
                // Ack once the receive label is raised; the binder gates
                // the user's first tainted query on this.
                if let Some(reply) = reply {
                    let _ = sys.send(reply, DbMsg::BindR.to_value());
                }
            }
            DbMsg::Ddl { sql } => {
                sys.charge(PROXY_MSG_CYCLES);
                // A schema script: tables get the hidden ownership column
                // prepended and indexed; redo-logged if anything changed,
                // so recovered tables keep their schema.
                let _ = self.db.apply_ddl(&sql);
            }
            // §7.4's "special access": the trusted party (idd) runs raw
            // statements on its private tables — no hidden-column rewriting,
            // no per-row taint. Only admin-port (⋆-granted) senders get here.
            DbMsg::Exec {
                sql, params, reply, ..
            } => {
                sys.charge(PROXY_MSG_CYCLES);
                let result = self.db.admin_exec(&sql, &params);
                let (ok, affected, work) = match &result {
                    Ok(r) => (true, r.affected as u64, r.work),
                    Err(_) => (false, 0, 1),
                };
                sys.charge(work * PROXY_ROW_CYCLES);
                if let Some(reply) = reply {
                    // Redo-logged before acknowledgement: the ack flushes
                    // the WAL batch it rides on.
                    self.db.flush();
                    let _ = sys.send(reply, DbMsg::ExecR { ok, affected }.to_value());
                }
            }
            DbMsg::Query { sql, params, reply } => {
                sys.charge(PROXY_MSG_CYCLES);
                // The Query arm is strictly read-only: a mutation smuggled
                // in here would execute without being redo-logged and
                // silently diverge memory from the durable log.
                if matches!(parse(&sql), Ok(Stmt::Select { .. })) {
                    if let Ok(result) = self.db.engine_mut().run_with_params(&sql, &params) {
                        sys.charge(result.work * PROXY_ROW_CYCLES);
                        if !result.rows.is_empty() {
                            let _ = sys.send(reply, DbMsg::rows(&result.rows).to_value());
                        }
                    }
                }
                let _ = sys.send(reply, DbMsg::Done.to_value());
            }
            _ => {}
        }
    }

    fn handle_exec(
        &mut self,
        sys: &mut Sys<'_>,
        user: String,
        sql: String,
        params: Vec<SqlValue>,
        reply: Option<Handle>,
        verify: &Label,
    ) {
        sys.charge(PROXY_MSG_CYCLES);
        let declassify = self.declassify_allowed(&user, verify);
        let binding = self.write_allowed(&user, verify);
        let (uid, taint) = match (&binding, declassify) {
            // §7.6: declassifier writes land with user id 0.
            (_, true) => {
                let b = self.users.get(&user).expect("declassify implies binding");
                (0i64, b.taint)
            }
            (Some(b), false) => (b.uid, b.taint),
            (None, false) => {
                // Refused: reply (if any) still flows, untainted, saying no.
                if let Some(reply) = reply {
                    let _ = sys.send(
                        reply,
                        DbMsg::ExecR {
                            ok: false,
                            affected: 0,
                        }
                        .to_value(),
                    );
                }
                return;
            }
        };

        let outcome = self.db.worker_exec(&sql, &params, uid);
        let (ok, affected, work) = match outcome {
            Some(r) => (true, r.0, r.1),
            None => (false, 0, 1),
        };
        sys.charge(work * PROXY_ROW_CYCLES);
        if let Some(reply) = reply {
            // §7.5: redo-logged before acknowledgement — flush the WAL
            // batch (group commit) before the worker hears the verdict.
            self.db.flush();
            // The outcome of a write to u's rows is u's information.
            let args =
                SendArgs::new().contaminate(Label::from_pairs(Level::Star, &[(taint, Level::L3)]));
            let _ = sys.send_args(
                reply,
                DbMsg::ExecR {
                    ok,
                    affected: affected as u64,
                }
                .to_value(),
                &args,
            );
        }
    }

    fn handle_query(
        &mut self,
        sys: &mut Sys<'_>,
        sql: String,
        params: Vec<SqlValue>,
        reply: Handle,
    ) {
        sys.charge(PROXY_MSG_CYCLES);
        let response = self.run_select(&sql, &params);
        if let Some((groups, work)) = response {
            sys.charge(work * PROXY_ROW_CYCLES);
            for (owner, bytes) in groups {
                // §7.5: "If a row's user ID column contains u's ID, then
                // ok-dbproxy returns the row's data contaminated with
                // uT 3"; declassified rows (id 0) go out untainted. Rows
                // belonging to other users are tainted with *their*
                // handles — the kernel drops what the receiver may not
                // see. Rows of an owner not bound in this boot have no
                // taint to carry, so nobody may read them.
                let args = match (owner, self.uid_taint.get(&owner)) {
                    (0, _) => SendArgs::new(),
                    (_, Some(&t)) => SendArgs::new()
                        .contaminate(Label::from_pairs(Level::Star, &[(t, Level::L3)])),
                    (_, None) => continue,
                };
                let rows = DbMsg::Rows {
                    bytes: bytes.into(),
                };
                let _ = sys.send_args(reply, rows.to_value(), &args);
            }
        }
        // Untainted end-of-results marker (§7.5).
        let _ = sys.send(reply, DbMsg::Done.to_value());
    }

    /// Runs a worker SELECT with the hidden owner column prepended to the
    /// projection; returns the rows grouped by owner (see [`OwnerRows`])
    /// in order of each owner's first row, plus work.
    fn run_select(&mut self, sql: &str, params: &[SqlValue]) -> Option<(Vec<OwnerRows>, u64)> {
        let stmt = parse(sql).ok()?;
        let Stmt::Select {
            columns,
            table,
            filter,
        } = stmt
        else {
            return None;
        };
        // Workers may only read worker-visible tables (hidden ownership
        // column in position 0). Raw admin tables — idd's credential
        // store, the proxy's own uid map — are unreachable: without this
        // check a `SELECT *` would treat the first projected cell as the
        // owner id and leak raw rows untainted.
        if !worker_table(self.db.engine(), &table) {
            return None;
        }
        if let SelectCols::Named(ref cs) = columns {
            if cs.iter().any(|c| c.eq_ignore_ascii_case(USER_ID_COLUMN)) {
                return None;
            }
        }
        if filter
            .conjuncts
            .iter()
            .any(|c| c.column.eq_ignore_ascii_case(USER_ID_COLUMN))
        {
            return None;
        }
        // Prepend user_id to the projection so we can group rows by owner.
        let columns = match columns {
            SelectCols::Star => SelectCols::Star,
            SelectCols::Named(mut cs) => {
                cs.insert(0, USER_ID_COLUMN.to_string());
                SelectCols::Named(cs)
            }
        };
        let result = self
            .db
            .engine_mut()
            .execute(
                &Stmt::Select {
                    columns,
                    table,
                    filter,
                },
                params,
            )
            .ok()?;
        let mut groups: Vec<OwnerRows> = Vec::new();
        let mut group_of = BTreeMap::new();
        for (owner, cells) in result.rows.iter().filter_map(|row| row.split_first()) {
            let owner = owner.as_int().unwrap_or(0);
            let at = *group_of.entry(owner).or_insert_with(|| {
                groups.push((owner, Vec::new()));
                groups.len() - 1
            });
            put_row(&mut groups[at].1, cells);
        }
        Some((groups, result.work))
    }
}

impl Default for DbProxy {
    fn default() -> DbProxy {
        DbProxy::new()
    }
}

impl Service for DbProxy {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        // Worker-facing port: open; taint protection comes from labels on
        // the data, not from hiding the port.
        let port = sys.new_port(Label::top());
        sys.set_port_label(port, Label::top())
            .expect("creator owns the port");
        sys.publish_env(DB_PORT_ENV, Value::Handle(port));

        // Admin port: stays closed (new_port leaves p_R(admin) = 0); we
        // grant it to the configured trusted party only.
        let admin = sys.new_port(Label::top());
        self.admin_port = Some(admin);
        if let Some(trusted) = sys.env(DB_TRUSTED_ENV).and_then(|v| v.as_handle()) {
            let grant = Label::from_pairs(Level::L3, &[(admin, Level::Star)]);
            let _ = sys.send_args(
                trusted,
                DbMsg::AdminPort { port: admin }.to_value(),
                &SendArgs::new().grant(grant),
            );
        }
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        let Some(db_msg) = DbMsg::from_value(&msg.body) else {
            return;
        };
        if Some(msg.port) == self.admin_port {
            self.handle_admin(sys, db_msg);
            return;
        }
        match db_msg {
            DbMsg::Exec {
                user,
                sql,
                params,
                reply,
            } => self.handle_exec(sys, user, sql, params, reply, &msg.verify),
            DbMsg::Query { sql, params, reply } => self.handle_query(sys, sql, params, reply),
            // Admin messages on the worker port are ignored outright.
            _ => {}
        }
    }

    fn on_teardown(&mut self, _sys: &mut Sys<'_>) {
        // Clean shutdown: group-commit whatever is still buffered. A
        // crash skips this — recovery then yields the committed prefix.
        self.db.flush();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Spawn info for a running proxy.
pub struct DbHandle {
    /// The proxy's process id.
    pub pid: ProcessId,
    /// The worker-facing port.
    pub port: Handle,
}

/// Spawns ok-dbproxy. The `DB_TRUSTED_ENV` global should already name the
/// trusted party's notification port (idd's, or a test harness's).
pub fn spawn_dbproxy(kernel: &mut Kernel) -> DbHandle {
    let pid = kernel.spawn("ok-dbproxy", Category::Okdb, Box::new(DbProxy::new()));
    let port = kernel
        .global_env(DB_PORT_ENV)
        .and_then(|v| v.as_handle())
        .expect("proxy publishes its worker port");
    DbHandle { pid, port }
}
