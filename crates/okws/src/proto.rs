//! OKWS-internal protocol messages (§7.1–§7.4).

use asbestos_kernel::{Handle, Value};

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
            OkwsMsg::Activate { service, verify } => Value::List(vec![
                Value::Str("activate".into()),
                Value::Str(service.clone()),
                Value::Handle(*verify),
            ]),
            OkwsMsg::Register { service, port } => Value::List(vec![
                Value::Str("register".into()),
                Value::Str(service.clone()),
                Value::Handle(*port),
            ]),
            OkwsMsg::Login {
                user,
                password,
                reply,
            } => Value::List(vec![
                Value::Str("login".into()),
                Value::Str(user.clone()),
                Value::Str(password.clone()),
                Value::Handle(*reply),
            ]),
            OkwsMsg::LoginR {
                ok,
                user,
                taint,
                grant,
            } => Value::List(vec![
                Value::Str("login-r".into()),
                Value::Bool(*ok),
                Value::Str(user.clone()),
                taint.map(Value::Handle).unwrap_or(Value::Unit),
                grant.map(Value::Handle).unwrap_or(Value::Unit),
            ]),
            OkwsMsg::AddUser { user, password } => Value::List(vec![
                Value::Str("add-user".into()),
                Value::Str(user.clone()),
                Value::Str(password.clone()),
            ]),
            OkwsMsg::ChangePassword {
                user,
                new_password,
                reply,
            } => Value::List(vec![
                Value::Str("change-pw".into()),
                Value::Str(user.clone()),
                Value::Str(new_password.clone()),
                Value::Handle(*reply),
            ]),
            OkwsMsg::ConnHandoff {
                conn,
                user,
                taint,
                grant,
            } => Value::List(vec![
                Value::Str("conn".into()),
                Value::Handle(*conn),
                Value::Str(user.clone()),
                Value::Handle(*taint),
                Value::Handle(*grant),
            ]),
            OkwsMsg::SessionNew {
                user,
                service,
                port,
            } => Value::List(vec![
                Value::Str("session-new".into()),
                Value::Str(user.clone()),
                Value::Str(service.clone()),
                Value::Handle(*port),
            ]),
            OkwsMsg::SessionEnd { user, service } => Value::List(vec![
                Value::Str("session-end".into()),
                Value::Str(user.clone()),
                Value::Str(service.clone()),
            ]),
            OkwsMsg::SessionEndR => Value::List(vec![Value::Str("session-end-r".into())]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<OkwsMsg> {
        let items = value.as_list()?;
        match items.first()?.as_str()? {
            "activate" => Some(OkwsMsg::Activate {
                service: items.get(1)?.as_str()?.to_string(),
                verify: items.get(2)?.as_handle()?,
            }),
            "register" => Some(OkwsMsg::Register {
                service: items.get(1)?.as_str()?.to_string(),
                port: items.get(2)?.as_handle()?,
            }),
            "login" => Some(OkwsMsg::Login {
                user: items.get(1)?.as_str()?.to_string(),
                password: items.get(2)?.as_str()?.to_string(),
                reply: items.get(3)?.as_handle()?,
            }),
            "login-r" => Some(OkwsMsg::LoginR {
                ok: items.get(1)?.as_bool()?,
                user: items.get(2)?.as_str()?.to_string(),
                taint: items.get(3).and_then(|v| v.as_handle()),
                grant: items.get(4).and_then(|v| v.as_handle()),
            }),
            "add-user" => Some(OkwsMsg::AddUser {
                user: items.get(1)?.as_str()?.to_string(),
                password: items.get(2)?.as_str()?.to_string(),
            }),
            "change-pw" => Some(OkwsMsg::ChangePassword {
                user: items.get(1)?.as_str()?.to_string(),
                new_password: items.get(2)?.as_str()?.to_string(),
                reply: items.get(3)?.as_handle()?,
            }),
            "conn" => Some(OkwsMsg::ConnHandoff {
                conn: items.get(1)?.as_handle()?,
                user: items.get(2)?.as_str()?.to_string(),
                taint: items.get(3)?.as_handle()?,
                grant: items.get(4)?.as_handle()?,
            }),
            "session-new" => Some(OkwsMsg::SessionNew {
                user: items.get(1)?.as_str()?.to_string(),
                service: items.get(2)?.as_str()?.to_string(),
                port: items.get(3)?.as_handle()?,
            }),
            "session-end" => Some(OkwsMsg::SessionEnd {
                user: items.get(1)?.as_str()?.to_string(),
                service: items.get(2)?.as_str()?.to_string(),
            }),
            "session-end-r" => Some(OkwsMsg::SessionEndR),
            _ => None,
        }
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
