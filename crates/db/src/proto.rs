//! The ok-dbproxy wire protocol (§7.5).

use asbestos_kernel::{Handle, Payload, Value};

use crate::snapshot::put_row;
use crate::value::SqlValue;

fn sql_to_value(v: &SqlValue) -> Value {
    match v {
        SqlValue::Null => Value::Unit,
        SqlValue::Int(i) => Value::List(vec![Value::Str("i".into()), Value::U64(*i as u64)]),
        SqlValue::Text(t) => Value::Str(t.clone()),
        SqlValue::Blob(b) => Value::Bytes(b.clone().into()),
    }
}

fn value_to_sql(v: &Value) -> Option<SqlValue> {
    match v {
        Value::Unit => Some(SqlValue::Null),
        Value::Str(s) => Some(SqlValue::Text(s.clone())),
        Value::Bytes(b) => Some(SqlValue::Blob(b.to_vec())),
        Value::List(items) => {
            if items.len() == 2 && items[0].as_str() == Some("i") {
                Some(SqlValue::Int(items[1].as_u64()? as i64))
            } else {
                None
            }
        }
        _ => None,
    }
}

fn params_to_value(params: &[SqlValue]) -> Value {
    Value::List(params.iter().map(sql_to_value).collect())
}

fn value_to_params(v: &Value) -> Option<Vec<SqlValue>> {
    v.as_list()?.iter().map(value_to_sql).collect()
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
            } => Value::List(vec![
                Value::Str("bind".into()),
                Value::Str(user.clone()),
                Value::Handle(*taint),
                Value::Handle(*grant),
                match reply {
                    Some(r) => Value::Handle(*r),
                    None => Value::Unit,
                },
            ]),
            DbMsg::BindR => Value::List(vec![Value::Str("bind-r".into())]),
            DbMsg::Ddl { sql } => {
                Value::List(vec![Value::Str("ddl".into()), Value::Str(sql.clone())])
            }
            DbMsg::Exec {
                user,
                sql,
                params,
                reply,
            } => Value::List(vec![
                Value::Str("exec".into()),
                Value::Str(user.clone()),
                Value::Str(sql.clone()),
                params_to_value(params),
                match reply {
                    Some(r) => Value::Handle(*r),
                    None => Value::Unit,
                },
            ]),
            DbMsg::ExecR { ok, affected } => Value::List(vec![
                Value::Str("exec-r".into()),
                Value::Bool(*ok),
                Value::U64(*affected),
            ]),
            DbMsg::Query { sql, params, reply } => Value::List(vec![
                Value::Str("query".into()),
                Value::Str(sql.clone()),
                params_to_value(params),
                Value::Handle(*reply),
            ]),
            DbMsg::Rows { bytes } => {
                Value::List(vec![Value::Str("rows".into()), Value::Bytes(bytes.clone())])
            }
            DbMsg::Done => Value::List(vec![Value::Str("done".into())]),
            DbMsg::AdminPort { port } => {
                Value::List(vec![Value::Str("admin-port".into()), Value::Handle(*port)])
            }
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<DbMsg> {
        let items = value.as_list()?;
        match items.first()?.as_str()? {
            "bind" => Some(DbMsg::Bind {
                user: items.get(1)?.as_str()?.to_string(),
                taint: items.get(2)?.as_handle()?,
                grant: items.get(3)?.as_handle()?,
                // Always written: `Unit` when there is no reply port.
                reply: items.get(4)?.as_handle(),
            }),
            "bind-r" => Some(DbMsg::BindR),
            "ddl" => Some(DbMsg::Ddl {
                sql: items.get(1)?.as_str()?.to_string(),
            }),
            "exec" => Some(DbMsg::Exec {
                user: items.get(1)?.as_str()?.to_string(),
                sql: items.get(2)?.as_str()?.to_string(),
                params: value_to_params(items.get(3)?)?,
                reply: items.get(4).and_then(|v| v.as_handle()),
            }),
            "exec-r" => Some(DbMsg::ExecR {
                ok: items.get(1)?.as_bool()?,
                affected: items.get(2)?.as_u64()?,
            }),
            "query" => Some(DbMsg::Query {
                sql: items.get(1)?.as_str()?.to_string(),
                params: value_to_params(items.get(2)?)?,
                reply: items.get(3)?.as_handle()?,
            }),
            "rows" => Some(DbMsg::Rows {
                bytes: items.get(1)?.as_payload()?.clone(),
            }),
            "done" => Some(DbMsg::Done),
            "admin-port" => Some(DbMsg::AdminPort {
                port: items.get(1)?.as_handle()?,
            }),
            _ => None,
        }
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
