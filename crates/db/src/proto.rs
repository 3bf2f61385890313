//! The ok-dbproxy wire protocol (§7.5).

use asbestos_kernel::{Field, Fields, Handle, Payload, Value};

use crate::snapshot::put_row;
use crate::value::SqlValue;

/// A cell is `Unit` (NULL), `Str` (text), `Bytes` (blob) or, for an
/// integer, the two-item list `["i", U64]` holding its two's-complement
/// bits.
impl Field for SqlValue {
    fn to_field(&self) -> Value {
        match self {
            SqlValue::Null => Value::Unit,
            SqlValue::Int(i) => Value::message("i", &[&(*i as u64)]),
            SqlValue::Text(t) => t.to_field(),
            SqlValue::Blob(b) => Value::Bytes(b.clone().into()),
        }
    }

    fn from_field(value: &Value) -> Option<SqlValue> {
        match value {
            Value::Unit => Some(SqlValue::Null),
            Value::Str(s) => Some(SqlValue::Text(s.clone())),
            Value::Bytes(b) => Some(SqlValue::Blob(b.to_vec())),
            Value::List(_) => {
                let (tag, mut f) = Fields::open(value)?;
                if tag != "i" {
                    return None;
                }
                let bits: u64 = f.field()?;
                f.end(SqlValue::Int(bits as i64))
            }
            _ => None,
        }
    }
}

/// A message in the database-proxy protocol.
#[derive(Clone, Debug, PartialEq)]
pub enum DbMsg {
    /// Trusted (admin-port) registration of a user ↔ handle binding; the
    /// sender also grants the proxy `taint ⋆` via `D_S`, reproducing §7.5's
    /// "idd grants it all user taint handles at level ⋆".
    Bind {
        /// Username.
        user: String,
        /// The user's taint handle `uT`.
        taint: Handle,
        /// The user's grant handle `uG`.
        grant: Handle,
        /// Optional ack port for [`DbMsg::BindR`]. The binder withholds
        /// the login reply until the ack: the user's first tainted query
        /// travels a different port than the `Bind`, so without the ack
        /// the kernel may deliver the query first and label-drop it.
        reply: Option<Handle>,
    },
    /// Acknowledges a [`DbMsg::Bind`]: the binding (and the raised
    /// receive label) is in place, so arbitrarily-tainted traffic from
    /// the bound user will now be delivered.
    BindR,
    /// Trusted DDL (CREATE TABLE / CREATE INDEX), admin port only.
    Ddl {
        /// The statement.
        sql: String,
    },
    /// A write (INSERT/UPDATE/DELETE) on behalf of `user`. The message's
    /// verification label must satisfy `V ⊑ {uT 3, uG 0, 2}` (§7.5).
    Exec {
        /// The acting user.
        user: String,
        /// The statement.
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
        /// Optional reply port for [`DbMsg::ExecR`].
        reply: Option<Handle>,
    },
    /// Reply to [`DbMsg::Exec`].
    ExecR {
        /// Whether the write was accepted.
        ok: bool,
        /// Rows affected.
        affected: u64,
    },
    /// A SELECT. Rows come back as one [`DbMsg::Rows`] message per distinct
    /// owner, tainted by that owner; an untainted [`DbMsg::Done`]
    /// terminates the result set.
    Query {
        /// The statement.
        sql: String,
        /// Bound parameters.
        params: Vec<SqlValue>,
        /// Reply port.
        reply: Handle,
    },
    /// Every result row of one owner, in scan order, contaminated with
    /// that owner's taint at 3 (§7.5); declassified rows come untainted.
    Rows {
        /// The rows laid end to end in [`put_row`]'s encoding (hidden
        /// `user_id` column already stripped); walk them with
        /// [`crate::read_rows`].
        bytes: Payload,
    },
    /// End of result set. Deliberately carries no row or message count —
    /// either would reveal how much of *other* users' data was dropped
    /// (§7.5: a worker "cannot tell how many other rows were sent").
    Done,
    /// Announces the proxy's admin port to the trusted party (sent at
    /// startup with an `admin ⋆` grant).
    AdminPort {
        /// The admin port.
        port: Handle,
    },
}

impl DbMsg {
    /// A [`DbMsg::Rows`] holding `rows` in order.
    pub fn rows(rows: &[Vec<SqlValue>]) -> DbMsg {
        let mut bytes = Vec::new();
        for row in rows {
            put_row(&mut bytes, row);
        }
        DbMsg::Rows {
            bytes: bytes.into(),
        }
    }

    /// Encodes to a [`Value`] payload.
    pub fn to_value(&self) -> Value {
        match self {
            DbMsg::Bind {
                user,
                taint,
                grant,
                reply,
            } => Value::message("bind", &[user, taint, grant, reply]),
            DbMsg::BindR => Value::message("bind-r", &[]),
            DbMsg::Ddl { sql } => Value::message("ddl", &[sql]),
            DbMsg::Exec {
                user,
                sql,
                params,
                reply,
            } => Value::message("exec", &[user, sql, params, reply]),
            DbMsg::ExecR { ok, affected } => Value::message("exec-r", &[ok, affected]),
            DbMsg::Query { sql, params, reply } => Value::message("query", &[sql, params, reply]),
            DbMsg::Rows { bytes } => Value::message("rows", &[bytes]),
            DbMsg::Done => Value::message("done", &[]),
            DbMsg::AdminPort { port } => Value::message("admin-port", &[port]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<DbMsg> {
        let (tag, mut f) = Fields::open(value)?;
        let msg = match tag {
            "bind" => DbMsg::Bind {
                user: f.field()?,
                taint: f.field()?,
                grant: f.field()?,
                reply: f.field()?,
            },
            "bind-r" => DbMsg::BindR,
            "ddl" => DbMsg::Ddl { sql: f.field()? },
            "exec" => DbMsg::Exec {
                user: f.field()?,
                sql: f.field()?,
                params: f.field()?,
                reply: f.field()?,
            },
            "exec-r" => DbMsg::ExecR {
                ok: f.field()?,
                affected: f.field()?,
            },
            "query" => DbMsg::Query {
                sql: f.field()?,
                params: f.field()?,
                reply: f.field()?,
            },
            "rows" => DbMsg::Rows { bytes: f.field()? },
            "done" => DbMsg::Done,
            "admin-port" => DbMsg::AdminPort { port: f.field()? },
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
        let h = Handle::from_raw(5);
        let msgs = vec![
            DbMsg::Bind {
                user: "u".into(),
                taint: h,
                grant: h,
                reply: None,
            },
            DbMsg::Bind {
                user: "u".into(),
                taint: h,
                grant: h,
                reply: Some(h),
            },
            DbMsg::BindR,
            DbMsg::Ddl {
                sql: "CREATE TABLE t (a)".into(),
            },
            DbMsg::Exec {
                user: "u".into(),
                sql: "INSERT INTO t VALUES (?)".into(),
                params: vec![SqlValue::Int(-7), SqlValue::Null, "x".into()],
                reply: Some(h),
            },
            DbMsg::Exec {
                user: "u".into(),
                sql: "s".into(),
                params: vec![],
                reply: None,
            },
            DbMsg::ExecR {
                ok: true,
                affected: 2,
            },
            DbMsg::Query {
                sql: "SELECT * FROM t".into(),
                params: vec![],
                reply: h,
            },
            DbMsg::rows(&[vec![SqlValue::Blob(vec![1, 2])], vec![]]),
            DbMsg::rows(&[]),
            DbMsg::Done,
            DbMsg::AdminPort { port: h },
        ];
        for m in msgs {
            assert_eq!(DbMsg::from_value(&m.to_value()), Some(m));
        }
    }

    #[test]
    fn negative_ints_roundtrip() {
        let rows = vec![vec![SqlValue::Int(i64::MIN)], vec![SqlValue::Int(-1)]];
        let m = DbMsg::rows(&rows);
        assert_eq!(DbMsg::from_value(&m.to_value()), Some(m.clone()));
        let DbMsg::Rows { bytes } = m else {
            unreachable!()
        };
        let back: Vec<_> = crate::read_rows(&bytes).map(|(row, _)| row).collect();
        assert_eq!(back, rows);
    }
}
