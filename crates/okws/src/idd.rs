//! idd: the OKWS identity server (§7.4).
//!
//! idd associates persistent identification data (username, password) with
//! the per-boot taint and grant handles `uT`/`uG`. It stores user records
//! in a relational database reached through ok-dbproxy's admin port
//! ("idd has special access through ok-dbproxy to this password database,
//! which other processes such as workers cannot access directly"), mints
//! handle pairs on first login, caches them, and grants every new taint
//! handle to ok-dbproxy at `⋆` (§7.5).
//!
//! idd reads the environment only in its `on_start` (the launcher's wiring
//! rule): the admin port and the launcher's and ok-demux's verification
//! handles are fixed there.

use std::collections::BTreeMap;

use asbestos_db::{DbMsg, SqlValue, DB_ADMIN_ENV};
use asbestos_kernel::{Handle, HandleMap, Label, Level, Message, SendArgs, Service, Sys, Value};

use crate::proto::OkwsMsg;

/// Environment key for idd's login port.
pub const IDD_PORT_ENV: &str = "okws.idd.port";

/// Environment key holding ok-demux's verification handle value (published
/// by the launcher; ok-demux proves `V(demux_verify) = 0` on Login, and
/// idd checks it).
pub const IDD_DEMUX_VERIFY_ENV: &str = "okws.idd.demux_verify";

/// Environment key holding the launcher verification handle value (idd
/// checks it on AddUser and worker-table DDL).
pub const LAUNCHER_VERIFY_ENV: &str = "okws.launcher.verify";

/// Cycles idd charges per login (cache bookkeeping, excluding DB work,
/// which ok-dbproxy charges itself).
pub const IDD_LOGIN_CYCLES: u64 = 60_000;

struct PendingLogin {
    user: String,
    password_matched: bool,
    reply: Handle,
}

/// A user's handles ("never cleans its cache", §7.4).
struct User {
    taint: Handle,
    grant: Handle,
    /// While the user's first `Bind` is out: the logins (the initiating
    /// one first) whose `LoginR` waits for ok-dbproxy's `BindR`. A
    /// worker's first tainted query takes a different port than the
    /// `Bind`, so the kernel gives no ordering between them: released
    /// early, the query can be label-dropped and the event process wedges
    /// awaiting the reply.
    binding: Option<Vec<Handle>>,
}

/// The idd service.
pub struct Idd {
    /// ok-dbproxy's admin port.
    admin: Option<Handle>,
    /// The launcher's verification handle (account and DDL management).
    launcher_verify: Option<Handle>,
    /// ok-demux's verification handle (logins).
    demux_verify: Option<Handle>,
    users: BTreeMap<String, User>,
    /// In-flight logins keyed by their private reply port.
    pending: HandleMap<PendingLogin>,
}

impl Idd {
    /// Creates an idd with an empty cache.
    pub fn new() -> Idd {
        Idd {
            admin: None,
            launcher_verify: None,
            demux_verify: None,
            users: BTreeMap::new(),
            pending: HandleMap::default(),
        }
    }

    fn finish_login(&mut self, sys: &mut Sys<'_>, port: Handle) {
        let Some(pending) = self.pending.remove(&port) else {
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
        match self.users.get_mut(&pending.user) {
            Some(User {
                binding: Some(waiters),
                ..
            }) => {
                // Another login's Bind for this user is still in flight;
                // park behind it so this session cannot overtake the
                // registration.
                waiters.push(port);
                self.pending.insert(port, pending);
            }
            Some(_) => self.complete_login(sys, port, pending),
            None => self.mint(sys, port, pending),
        }
    }

    /// Mints `pending.user`'s handles and registers them (§7.5) with
    /// ok-dbproxy, granting it the handles at ⋆. ok-dbproxy acks on the
    /// per-login `port`; the `LoginR` waits for that ack (see
    /// `User::binding`).
    fn mint(&mut self, sys: &mut Sys<'_>, port: Handle, pending: PendingLogin) {
        let taint = sys.new_handle();
        let grant = sys.new_handle();
        // Accept this user's taint from now on: tainted worker event
        // processes send us password-change requests, and we hold ⋆ (as
        // creator), so contamination never sticks.
        sys.raise_recv(taint, Level::L3)
            .expect("we created the taint handle");
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
        // The login's own answer came through ok-dbproxy, so `admin` is
        // set.
        if let Some(admin) = self.admin {
            let _ = sys.send_args(admin, bind.to_value(), &grant_args);
        }
        let user = User {
            taint,
            grant,
            binding: Some(vec![port]),
        };
        self.users.insert(pending.user.clone(), user);
        self.pending.insert(port, pending);
    }

    /// Releases the `LoginR` for a login whose binding is registered.
    fn complete_login(&mut self, sys: &mut Sys<'_>, port: Handle, pending: PendingLogin) {
        let Some(&User { taint, grant, .. }) = self.users.get(&pending.user) else {
            return;
        };
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

    /// ok-dbproxy acked the `Bind` sent on per-login port `port`: the user
    /// is bound, so release every login waiting on the binding, the
    /// initiating one first.
    fn on_bind_ack(&mut self, sys: &mut Sys<'_>, port: Handle) {
        let Some(user) = self
            .pending
            .get(&port)
            .and_then(|p| self.users.get_mut(&p.user))
        else {
            return;
        };
        let Some(waiters) = user.binding.take() else {
            return;
        };
        for waiter in waiters {
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

        let handle = |sys: &Sys<'_>, key| sys.env(key).and_then(|v| v.as_handle());
        self.launcher_verify = handle(sys, LAUNCHER_VERIFY_ENV);
        self.demux_verify = handle(sys, IDD_DEMUX_VERIFY_ENV);
        self.admin = handle(sys, DB_ADMIN_ENV);
        if let Some(admin) = self.admin {
            // Create the private credential table (§7.4). Raw access:
            // workers can never reach this table. Deliberately left
            // unindexed: the paper attributes Figure 9's fast-growing
            // OKDB line to the unoptimized SQLite lookup path ("This
            // may simply represent another cost of using unoptimized
            // system components, in this case SQLite"), and a linear
            // scan per first-time login reproduces exactly that growth.
            let _ = sys.send(
                admin,
                DbMsg::Exec {
                    user: String::new(),
                    sql: "CREATE TABLE okws_users (name, pw)".into(),
                    params: vec![],
                    reply: None,
                }
                .to_value(),
            );
        }
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
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
            return;
        };
        match okws_msg {
            OkwsMsg::WorkerDdl { sql } => {
                // Worker-table DDL relayed from the launcher, proven with
                // its verification handle.
                if !proves(&msg.verify, self.launcher_verify) {
                    return;
                }
                if let Some(admin) = self.admin {
                    let _ = sys.send(admin, DbMsg::Ddl { sql }.to_value());
                }
            }
            OkwsMsg::AddUser { user, password } => {
                // Only the launcher may create accounts (§7.1's V pattern).
                if !proves(&msg.verify, self.launcher_verify) {
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
                    .users
                    .get(&user)
                    .is_some_and(|u| msg.verify.get(u.grant) <= Level::L0);
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
                if !proves(&msg.verify, self.demux_verify) {
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

/// Whether verification label `verify` proves its sender holds `handle`
/// at `⋆` or 0 (§7.1's `V(h) ≤ 0`). An unknown handle proves nothing.
fn proves(verify: &Label, handle: Option<Handle>) -> bool {
    handle.is_some_and(|h| verify.get(h) <= Level::L0)
}
