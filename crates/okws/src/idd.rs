//! idd: the OKWS identity server (§7.4).
//!
//! idd associates persistent identification data (username, password) with
//! the per-boot taint and grant handles `uT`/`uG`. It stores user records
//! in a relational database reached through ok-dbproxy's trusted admin path
//! ("idd has special access through ok-dbproxy to this password database,
//! which other processes such as workers cannot access directly"), mints
//! handle pairs on first login, caches them, and grants every new taint
//! handle to ok-dbproxy at `⋆` (§7.5).

use std::collections::{BTreeMap, BTreeSet};

use asbestos_db::{DbMsg, SqlValue, DB_TRUSTED_ENV};
use asbestos_kernel::{Handle, Label, Level, Message, SendArgs, Service, Sys, Value};

use crate::proto::OkwsMsg;

/// Environment key for idd's login port.
pub const IDD_PORT_ENV: &str = "okws.idd.port";

/// Environment key holding the demux verification handle value (set by the
/// launcher; idd checks `V(demux_verify) ≤ 0` on Login).
pub const IDD_DEMUX_VERIFY_ENV: &str = "okws.idd.demux_verify";

/// Environment key holding the launcher verification handle value (idd
/// checks it on AddUser and worker-table DDL).
pub const LAUNCHER_VERIFY_ENV: &str = "okws.launcher.verify";

/// Cycles idd charges per login (cache bookkeeping, excluding DB work,
/// which ok-dbproxy charges itself).
pub const IDD_LOGIN_CYCLES: u64 = 60_000;

/// Environment key for idd's shared-cache trusted port (published only
/// when a shared cache is deployed; the cache announces its admin port
/// here and receives user bindings, mirroring ok-dbproxy's §7.5 flow).
pub const CACHE_TRUSTED_ENV: &str = "okws.cache.trusted";

struct PendingLogin {
    user: String,
    password_matched: bool,
    reply: Handle,
    /// Outstanding `BindR` acks this login is waiting on (first login of
    /// a user only; zero once every admin party holds the binding).
    awaiting_binds: usize,
}

/// The idd service.
pub struct Idd {
    trusted_port: Option<Handle>,
    cache_trusted_port: Option<Handle>,
    admin: Option<Handle>,
    /// The shared cache's admin port, when one is deployed.
    cache_admin: Option<Handle>,
    /// Cached user → (uT, uG) bindings ("never cleans its cache", §7.4).
    cache: BTreeMap<String, (Handle, Handle)>,
    /// In-flight logins keyed by their private reply port.
    pending: BTreeMap<Handle, PendingLogin>,
    /// Users whose `Bind` every admin party has acked. A `LoginR` is
    /// released only for bound users: the worker's first tainted query
    /// takes a different port than the `Bind`, so the kernel gives no
    /// ordering between them — without the ack the query can be
    /// label-dropped and the event process wedges awaiting the reply.
    bound: BTreeSet<String>,
    /// Logins parked behind another login's in-flight `Bind` for the
    /// same user (they hit the handle cache but must not overtake the
    /// registration).
    bind_waiters: BTreeMap<String, Vec<Handle>>,
}

impl Idd {
    /// Creates an idd with an empty cache.
    pub fn new() -> Idd {
        Idd {
            trusted_port: None,
            cache_trusted_port: None,
            admin: None,
            cache_admin: None,
            cache: BTreeMap::new(),
            pending: BTreeMap::new(),
            bound: BTreeSet::new(),
            bind_waiters: BTreeMap::new(),
        }
    }

    fn verify_ok(&self, sys: &Sys<'_>, env_key: &str, verify: &Label) -> bool {
        match sys.env(env_key).and_then(|v| v.as_handle()) {
            Some(h) => verify.get(h) <= Level::L0,
            None => false,
        }
    }

    fn finish_login(&mut self, sys: &mut Sys<'_>, port: Handle) {
        let Some(mut pending) = self.pending.remove(&port) else {
            return;
        };
        sys.charge(IDD_LOGIN_CYCLES);
        if !pending.password_matched {
            let _ = sys.send(
                pending.reply,
                OkwsMsg::LoginR {
                    ok: false,
                    user: pending.user,
                    taint: None,
                    grant: None,
                }
                .to_value(),
            );
            self.release_login_caps(sys, port, pending.reply);
            return;
        }
        // Get or mint the user's handles (§7.2 step 4: "it either generates
        // new uT and uG handles (if u has not logged in recently), or
        // returns cached uT and uG handles").
        if !self.cache.contains_key(&pending.user) {
            let taint = sys.new_handle();
            let grant = sys.new_handle();
            // Accept this user's taint from now on: tainted worker
            // event processes send us password-change requests, and we
            // hold ⋆ (as creator), so contamination never sticks.
            sys.raise_recv(taint, Level::L3)
                .expect("we created the taint handle");
            self.cache.insert(pending.user.clone(), (taint, grant));
            // §7.5: register the binding with ok-dbproxy — and with the
            // shared cache when one is deployed — granting each the
            // handles at ⋆. Each party acks on our per-login port; the
            // LoginR is withheld until every ack is in (see `bound`).
            let bind = DbMsg::Bind {
                user: pending.user.clone(),
                taint,
                grant,
                reply: Some(port),
            };
            let grant_args = SendArgs::new().grant(Label::from_pairs(
                Level::L3,
                &[
                    (taint, Level::Star),
                    (grant, Level::Star),
                    (port, Level::Star),
                ],
            ));
            let mut sent = 0;
            for admin in [self.admin, self.cache_admin].into_iter().flatten() {
                let _ = sys.send_args(admin, bind.to_value(), &grant_args);
                sent += 1;
            }
            if sent > 0 {
                pending.awaiting_binds = sent;
                self.pending.insert(port, pending);
                return;
            }
        } else if !self.bound.contains(&pending.user) {
            // Another login's Bind for this user is still in flight; park
            // behind it so this session cannot overtake the registration.
            self.bind_waiters
                .entry(pending.user.clone())
                .or_default()
                .push(port);
            self.pending.insert(port, pending);
            return;
        }
        self.bound.insert(pending.user.clone());
        self.complete_login(sys, port, pending);
    }

    /// Releases the `LoginR` for a login whose binding is registered
    /// everywhere it needs to be.
    fn complete_login(&mut self, sys: &mut Sys<'_>, port: Handle, pending: PendingLogin) {
        let &(taint, grant) = self
            .cache
            .get(&pending.user)
            .expect("binding cached before any Bind was sent");
        // §7.2 step 4: grant ok-demux both handles at ⋆.
        let _ = sys.send_args(
            pending.reply,
            OkwsMsg::LoginR {
                ok: true,
                user: pending.user,
                taint: Some(taint),
                grant: Some(grant),
            }
            .to_value(),
            &SendArgs::new().grant(Label::from_pairs(
                Level::L3,
                &[(taint, Level::Star), (grant, Level::Star)],
            )),
        );
        self.release_login_caps(sys, port, pending.reply);
    }

    /// One admin party acked a `Bind` on per-login port `port`. Once all
    /// acks are in, the user is bound: release the initiating login and
    /// any same-user logins parked behind it.
    fn on_bind_ack(&mut self, sys: &mut Sys<'_>, port: Handle) {
        let done = match self.pending.get_mut(&port) {
            Some(p) => {
                p.awaiting_binds = p.awaiting_binds.saturating_sub(1);
                p.awaiting_binds == 0
            }
            None => false,
        };
        if !done {
            return;
        }
        let pending = self.pending.remove(&port).expect("checked above");
        let user = pending.user.clone();
        self.bound.insert(user.clone());
        self.complete_login(sys, port, pending);
        for waiter in self.bind_waiters.remove(&user).unwrap_or_default() {
            if let Some(parked) = self.pending.remove(&waiter) {
                self.complete_login(sys, waiter, parked);
            }
        }
    }

    /// Drops the per-login capabilities: our private reply port and the
    /// ⋆ ok-demux granted us for its connection port. §9.3 calls this out —
    /// labels "must be updated to include a capability for each new TCP
    /// connection, and then to release that capability" — or idd's send
    /// label would grow per connection instead of per user.
    fn release_login_caps(&mut self, sys: &mut Sys<'_>, port: Handle, demux_reply: Handle) {
        let _ = sys.dissociate_port(port);
        sys.self_contaminate(&Label::from_pairs(
            Level::Star,
            &[(port, Level::L1), (demux_reply, Level::L1)],
        ));
    }
}

impl Default for Idd {
    fn default() -> Idd {
        Idd::new()
    }
}

impl Service for Idd {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        // Login port: open; access control is the V check, not secrecy.
        let login = sys.new_port(Label::top());
        sys.set_port_label(login, Label::top())
            .expect("creator owns the port");
        sys.publish_env(IDD_PORT_ENV, Value::Handle(login));

        // Trusted notification port for ok-dbproxy's admin-port grant.
        let trusted = sys.new_port(Label::top());
        sys.set_port_label(trusted, Label::top())
            .expect("creator owns the port");
        sys.publish_env(DB_TRUSTED_ENV, Value::Handle(trusted));
        self.trusted_port = Some(trusted);

        // Trusted notification port for the shared cache (if deployed).
        let cache_trusted = sys.new_port(Label::top());
        sys.set_port_label(cache_trusted, Label::top())
            .expect("creator owns the port");
        sys.publish_env(CACHE_TRUSTED_ENV, Value::Handle(cache_trusted));
        self.cache_trusted_port = Some(cache_trusted);
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        // ok-dbproxy announces its admin port (with an admin ⋆ grant).
        if Some(msg.port) == self.trusted_port {
            if let Some(DbMsg::AdminPort { port }) = DbMsg::from_value(&msg.body) {
                self.admin = Some(port);
                // Create the private credential table (§7.4). Raw access:
                // workers can never reach this table. Deliberately left
                // unindexed: the paper attributes Figure 9's fast-growing
                // OKDB line to the unoptimized SQLite lookup path ("This
                // may simply represent another cost of using unoptimized
                // system components, in this case SQLite"), and a linear
                // scan per first-time login reproduces exactly that growth.
                let _ = sys.send(
                    port,
                    DbMsg::Exec {
                        user: String::new(),
                        sql: "CREATE TABLE okws_users (name, pw)".into(),
                        params: vec![],
                        reply: None,
                    }
                    .to_value(),
                );
            }
            return;
        }

        // The shared cache announces its admin port (with an admin ⋆ grant).
        if Some(msg.port) == self.cache_trusted_port {
            if let Some(DbMsg::AdminPort { port }) = DbMsg::from_value(&msg.body) {
                self.cache_admin = Some(port);
                // Bind any already-known users so a late-started cache
                // still gets the full taint table.
                for (user, &(taint, grant)) in &self.cache {
                    let _ = sys.send_args(
                        port,
                        DbMsg::Bind {
                            user: user.clone(),
                            taint,
                            grant,
                            reply: None,
                        }
                        .to_value(),
                        &SendArgs::new().grant(Label::from_pairs(
                            Level::L3,
                            &[(taint, Level::Star), (grant, Level::Star)],
                        )),
                    );
                }
            }
            return;
        }

        // Login replies from the database land on per-login ports.
        if let Some(pending) = self.pending.get_mut(&msg.port) {
            match DbMsg::from_value(&msg.body) {
                Some(DbMsg::Rows { .. }) => {
                    pending.password_matched = true;
                }
                Some(DbMsg::Done) => {
                    self.finish_login(sys, msg.port);
                }
                Some(DbMsg::BindR) => {
                    self.on_bind_ack(sys, msg.port);
                }
                _ => {}
            }
            return;
        }

        let Some(okws_msg) = OkwsMsg::from_value(&msg.body) else {
            // Worker-table DDL relayed from the launcher: ["worker-ddl", sql]
            // with the launcher's verification label.
            if let Some(items) = msg.body.as_list() {
                if items.first().and_then(Value::as_str) == Some("worker-ddl")
                    && self.verify_ok(sys, LAUNCHER_VERIFY_ENV, &msg.verify)
                {
                    if let (Some(sql), Some(admin)) =
                        (items.get(1).and_then(Value::as_str), self.admin)
                    {
                        let _ = sys.send(
                            admin,
                            DbMsg::Ddl {
                                sql: sql.to_string(),
                            }
                            .to_value(),
                        );
                    }
                }
            }
            return;
        };
        match okws_msg {
            OkwsMsg::AddUser { user, password } => {
                // Only the launcher may create accounts (§7.1's V pattern).
                if !self.verify_ok(sys, LAUNCHER_VERIFY_ENV, &msg.verify) {
                    return;
                }
                if let Some(admin) = self.admin {
                    let _ = sys.send(
                        admin,
                        DbMsg::Exec {
                            user: String::new(),
                            sql: "INSERT INTO okws_users VALUES (?, ?)".into(),
                            params: vec![SqlValue::Text(user), SqlValue::Text(password)],
                            reply: None,
                        }
                        .to_value(),
                    );
                }
            }
            OkwsMsg::ChangePassword {
                user,
                new_password,
                reply,
            } => {
                sys.charge(IDD_LOGIN_CYCLES);
                // The sender must speak for the user: V(uG) ≤ 0 against the
                // *bound* grant handle (§5.4's discretionary integrity).
                let authorized = self
                    .cache
                    .get(&user)
                    .map(|&(_t, g)| msg.verify.get(g) <= Level::L0)
                    .unwrap_or(false);
                if !authorized {
                    let _ = sys.send(
                        reply,
                        DbMsg::ExecR {
                            ok: false,
                            affected: 0,
                        }
                        .to_value(),
                    );
                    return;
                }
                if let Some(admin) = self.admin {
                    // Raw update on the private credential table; the
                    // outcome flows back to the worker's reply port.
                    let _ = sys.send_args(
                        admin,
                        DbMsg::Exec {
                            user: String::new(),
                            sql: "UPDATE okws_users SET pw = ? WHERE name = ?".into(),
                            params: vec![SqlValue::Text(new_password), SqlValue::Text(user)],
                            reply: Some(reply),
                        }
                        .to_value(),
                        &SendArgs::new()
                            .grant(Label::from_pairs(Level::L3, &[(reply, Level::Star)])),
                    );
                }
            }
            OkwsMsg::Login {
                user,
                password,
                reply,
            } => {
                // Only ok-demux may drive logins.
                if !self.verify_ok(sys, IDD_DEMUX_VERIFY_ENV, &msg.verify) {
                    return;
                }
                sys.charge(IDD_LOGIN_CYCLES);
                let Some(admin) = self.admin else { return };
                // Per-login reply port; the DB answer routes back here.
                let port = sys.new_port(Label::top());
                self.pending.insert(
                    port,
                    PendingLogin {
                        user: user.clone(),
                        password_matched: false,
                        reply,
                        awaiting_binds: 0,
                    },
                );
                let _ = sys.send_args(
                    admin,
                    DbMsg::Query {
                        sql: "SELECT name FROM okws_users WHERE name = ? AND pw = ?".into(),
                        params: vec![SqlValue::Text(user), SqlValue::Text(password)],
                        reply: port,
                    }
                    .to_value(),
                    &SendArgs::new().grant(Label::from_pairs(Level::L3, &[(port, Level::Star)])),
                );
            }
            _ => {}
        }
    }
}
