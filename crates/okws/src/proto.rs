//! OKWS-internal protocol messages (§7.1–§7.4).

use asbestos_kernel::{Fields, Handle, Value};

/// A message between OKWS components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OkwsMsg {
    /// Launcher → worker base port: carries the worker's verification
    /// handle at level 0 (via `D_S`); the receiving event process registers
    /// with ok-demux and exits.
    Activate {
        /// The service name this worker provides.
        service: String,
        /// The worker's launcher-issued verification handle.
        verify: Handle,
    },
    /// Worker → ok-demux: service registration, proven with
    /// `V(verify handle) = 0` (§7.1).
    Register {
        /// Service name.
        service: String,
        /// The worker's public service port.
        port: Handle,
    },
    /// ok-demux → idd: check a username/password pair (§7.2 step 3).
    Login {
        /// Username.
        user: String,
        /// Password.
        password: String,
        /// Reply port.
        reply: Handle,
    },
    /// idd → ok-demux: login verdict (§7.2 step 4). On success the message
    /// grants `uT ⋆` and `uG ⋆`.
    LoginR {
        /// Whether the credentials checked out.
        ok: bool,
        /// Username echoed back.
        user: String,
        /// The user's taint handle (valid when `ok`).
        taint: Option<Handle>,
        /// The user's grant handle (valid when `ok`).
        grant: Option<Handle>,
    },
    /// Launcher/admin → idd: create an account.
    AddUser {
        /// Username.
        user: String,
        /// Password.
        password: String,
    },
    /// Launcher → idd: create a worker-visible table (DDL relayed to
    /// ok-dbproxy), proven with the launcher's verification handle.
    WorkerDdl {
        /// The `CREATE TABLE` statement.
        sql: String,
    },
    /// Worker → idd: change a user's password. The §7 intro names this as
    /// one of the three standard workers. The sender must prove it speaks
    /// for the user with `V(uG) ≤ 0`; idd replies with a
    /// [`asbestos_db::DbMsg::ExecR`]-shaped outcome to `reply`.
    ChangePassword {
        /// Username.
        user: String,
        /// The replacement password.
        new_password: String,
        /// Reply port (granted to idd at ⋆ alongside this message).
        reply: Handle,
    },
    /// ok-demux → worker (base port for new sessions, session port uW for
    /// existing ones): hand off a connection (§7.2 step 6). Grants carried
    /// by the send's optional labels; handle *values* ride in the body so
    /// the worker can name them in later verification labels.
    ConnHandoff {
        /// The connection port `uC` (granted at ⋆).
        conn: Handle,
        /// Username of the authenticated user.
        user: String,
        /// The user's taint handle value.
        taint: Handle,
        /// The user's grant handle value.
        grant: Handle,
    },
    /// Worker event process → ok-demux: a new session port uW exists for
    /// `(user, service)` (§7.3); grants `uW ⋆`. Sent with `V = {uG 0, 3}`:
    /// ok-demux ignores it unless `V` proves the user's grant handle.
    SessionNew {
        /// Username.
        user: String,
        /// Service name.
        service: String,
        /// The session port `uW`.
        port: Handle,
    },
    /// Worker event process → ok-demux: the session ended (logout);
    /// ok-demux drops its table entry (§7.3). Proven like
    /// [`OkwsMsg::SessionNew`].
    SessionEnd {
        /// Username.
        user: String,
        /// Service name.
        service: String,
    },
    /// ok-demux → worker event process (on the ending session's `uW`):
    /// the session-table entry is gone. Connections ok-demux handed off
    /// before processing the `SessionEnd` travel the same per-port FIFO
    /// as this ack, so once it arrives no further handoffs can target
    /// the port and the event process may safely `ep_exit`.
    SessionEndR,
}

impl OkwsMsg {
    /// Encodes to a [`Value`] payload.
    pub fn to_value(&self) -> Value {
        match self {
            OkwsMsg::Activate { service, verify } => Value::message("activate", &[service, verify]),
            OkwsMsg::Register { service, port } => Value::message("register", &[service, port]),
            OkwsMsg::Login {
                user,
                password,
                reply,
            } => Value::message("login", &[user, password, reply]),
            OkwsMsg::LoginR {
                ok,
                user,
                taint,
                grant,
            } => Value::message("login-r", &[ok, user, taint, grant]),
            OkwsMsg::AddUser { user, password } => Value::message("add-user", &[user, password]),
            OkwsMsg::WorkerDdl { sql } => Value::message("worker-ddl", &[sql]),
            OkwsMsg::ChangePassword {
                user,
                new_password,
                reply,
            } => Value::message("change-pw", &[user, new_password, reply]),
            OkwsMsg::ConnHandoff {
                conn,
                user,
                taint,
                grant,
            } => Value::message("conn", &[conn, user, taint, grant]),
            OkwsMsg::SessionNew {
                user,
                service,
                port,
            } => Value::message("session-new", &[user, service, port]),
            OkwsMsg::SessionEnd { user, service } => {
                Value::message("session-end", &[user, service])
            }
            OkwsMsg::SessionEndR => Value::message("session-end-r", &[]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<OkwsMsg> {
        let (tag, mut f) = Fields::open(value)?;
        let msg = match tag {
            "activate" => OkwsMsg::Activate {
                service: f.field()?,
                verify: f.field()?,
            },
            "register" => OkwsMsg::Register {
                service: f.field()?,
                port: f.field()?,
            },
            "login" => OkwsMsg::Login {
                user: f.field()?,
                password: f.field()?,
                reply: f.field()?,
            },
            "login-r" => OkwsMsg::LoginR {
                ok: f.field()?,
                user: f.field()?,
                taint: f.field()?,
                grant: f.field()?,
            },
            "add-user" => OkwsMsg::AddUser {
                user: f.field()?,
                password: f.field()?,
            },
            "worker-ddl" => OkwsMsg::WorkerDdl { sql: f.field()? },
            "change-pw" => OkwsMsg::ChangePassword {
                user: f.field()?,
                new_password: f.field()?,
                reply: f.field()?,
            },
            "conn" => OkwsMsg::ConnHandoff {
                conn: f.field()?,
                user: f.field()?,
                taint: f.field()?,
                grant: f.field()?,
            },
            "session-new" => OkwsMsg::SessionNew {
                user: f.field()?,
                service: f.field()?,
                port: f.field()?,
            },
            "session-end" => OkwsMsg::SessionEnd {
                user: f.field()?,
                service: f.field()?,
            },
            "session-end-r" => OkwsMsg::SessionEndR,
            _ => return None,
        };
        f.end(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = Handle::from_raw(9);
        let msgs = vec![
            OkwsMsg::Activate {
                service: "store".into(),
                verify: h,
            },
            OkwsMsg::Register {
                service: "store".into(),
                port: h,
            },
            OkwsMsg::Login {
                user: "u".into(),
                password: "p".into(),
                reply: h,
            },
            OkwsMsg::LoginR {
                ok: true,
                user: "u".into(),
                taint: Some(h),
                grant: Some(h),
            },
            OkwsMsg::LoginR {
                ok: false,
                user: "u".into(),
                taint: None,
                grant: None,
            },
            OkwsMsg::AddUser {
                user: "u".into(),
                password: "p".into(),
            },
            OkwsMsg::WorkerDdl {
                sql: "CREATE TABLE t (a)".into(),
            },
            OkwsMsg::ChangePassword {
                user: "u".into(),
                new_password: "p2".into(),
                reply: h,
            },
            OkwsMsg::ConnHandoff {
                conn: h,
                user: "u".into(),
                taint: h,
                grant: h,
            },
            OkwsMsg::SessionNew {
                user: "u".into(),
                service: "s".into(),
                port: h,
            },
            OkwsMsg::SessionEnd {
                user: "u".into(),
                service: "s".into(),
            },
            OkwsMsg::SessionEndR,
        ];
        for m in msgs {
            assert_eq!(OkwsMsg::from_value(&m.to_value()), Some(m));
        }
    }
}
