//! The service protocols decode exactly what their encoders write.
//!
//! netd, ok-demux, idd, ok-dbproxy and ok-cache are trusted, and they
//! parse every message a compromised worker sends (§7). Each protocol
//! below has one fixture per variant (both arms of every optional field).
//! Every fixture must roundtrip. Then every mutation of a fixture's
//! `Value` must either be refused or decode to a message that re-encodes
//! to the mutated `Value` itself, so a decoder can never act on a field
//! its encoder would not have written. The mutations, applied at every
//! list depth: append a field, drop the last field, and replace each
//! field with each other `Value` kind.

use std::fmt::Debug;
use std::mem::discriminant;

use asbestos_db::{DbMsg, SqlValue};
use asbestos_fs::FsMsg;
use asbestos_kernel::{Handle, Payload, Value};
use asbestos_net::NetMsg;
use asbestos_okws::{CacheMsg, OkwsMsg};

/// One value of each `Value` kind.
fn kinds() -> [Value; 7] {
    [
        Value::Unit,
        Value::Bool(true),
        Value::U64(7),
        Value::Bytes(vec![1, 2, 3].into()),
        Value::Str("x".into()),
        Value::Handle(Handle::from_raw(0x77)),
        Value::List(Vec::new()),
    ]
}

/// Every mutation of `value`, at every list depth.
fn mutations(value: &Value) -> Vec<Value> {
    let Value::List(items) = value else {
        return Vec::new();
    };
    let with = |i: usize, item: Value| {
        let mut items = items.clone();
        items[i] = item;
        Value::List(items)
    };
    let mut out = Vec::new();
    for extra in kinds() {
        let mut longer = items.clone();
        longer.push(extra);
        out.push(Value::List(longer));
    }
    if let Some((_, shorter)) = items.split_last() {
        out.push(Value::List(shorter.to_vec()));
    }
    for (i, item) in items.iter().enumerate() {
        for other in kinds() {
            if discriminant(&other) != discriminant(item) {
                out.push(with(i, other));
            }
        }
        for inner in mutations(item) {
            out.push(with(i, inner));
        }
    }
    out
}

fn check<M: PartialEq + Debug>(
    fixtures: &[M],
    encode: fn(&M) -> Value,
    decode: fn(&Value) -> Option<M>,
) {
    for msg in fixtures {
        let value = encode(msg);
        assert_eq!(decode(&value).as_ref(), Some(msg), "roundtrip of {value}");
        for mutated in mutations(&value) {
            if let Some(decoded) = decode(&mutated) {
                assert_eq!(
                    encode(&decoded),
                    mutated,
                    "{mutated} (a mutation of {value}) decoded as {decoded:?}"
                );
            }
        }
    }
}

fn h(raw: u64) -> Handle {
    Handle::from_raw(raw)
}

#[test]
fn net_messages_decode_exactly() {
    let fixtures = [
        NetMsg::DevNewConn {
            conn: 7,
            tcp_port: 80,
        },
        NetMsg::Listen {
            tcp_port: 443,
            notify: h(1),
        },
        NetMsg::Read {
            max: 512,
            reply: h(2),
            peek: true,
        },
        NetMsg::Write {
            bytes: vec![1, 2].into(),
        },
        NetMsg::AddTaint { taint: h(3) },
        NetMsg::Close,
        NetMsg::Select { reply: h(4) },
        NetMsg::NewConn { port: h(5) },
        NetMsg::ReadR {
            bytes: Payload::new(),
        },
        NetMsg::SelectR { available: 9 },
    ];
    check(&fixtures, NetMsg::to_value, NetMsg::from_value);
}

#[test]
fn okws_messages_decode_exactly() {
    let fixtures = [
        OkwsMsg::Activate {
            service: "store".into(),
            verify: h(1),
        },
        OkwsMsg::Register {
            service: "store".into(),
            port: h(2),
        },
        OkwsMsg::Login {
            user: "u".into(),
            password: "p".into(),
            reply: h(3),
        },
        OkwsMsg::LoginR {
            ok: true,
            user: "u".into(),
            taint: Some(h(4)),
            grant: Some(h(5)),
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
            reply: h(6),
        },
        OkwsMsg::ConnHandoff {
            conn: h(7),
            user: "u".into(),
            taint: h(8),
            grant: h(9),
        },
        OkwsMsg::SessionNew {
            user: "u".into(),
            service: "s".into(),
            port: h(10),
        },
        OkwsMsg::SessionEnd {
            user: "u".into(),
            service: "s".into(),
        },
        OkwsMsg::SessionEndR,
    ];
    check(&fixtures, OkwsMsg::to_value, OkwsMsg::from_value);
}

#[test]
fn db_messages_decode_exactly() {
    let fixtures = [
        DbMsg::Bind {
            user: "u".into(),
            taint: h(1),
            grant: h(2),
            reply: Some(h(3)),
        },
        DbMsg::Bind {
            user: "u".into(),
            taint: h(1),
            grant: h(2),
            reply: None,
        },
        DbMsg::BindR,
        DbMsg::Ddl {
            sql: "CREATE TABLE t (a)".into(),
        },
        DbMsg::Exec {
            user: "u".into(),
            sql: "INSERT INTO t VALUES (?, ?, ?, ?)".into(),
            params: vec![
                SqlValue::Int(-7),
                SqlValue::Null,
                "x".into(),
                SqlValue::Blob(vec![4]),
            ],
            reply: Some(h(4)),
        },
        DbMsg::Exec {
            user: "u".into(),
            sql: "DELETE FROM t".into(),
            params: Vec::new(),
            reply: None,
        },
        DbMsg::ExecR {
            ok: true,
            affected: 2,
        },
        DbMsg::Query {
            sql: "SELECT * FROM t WHERE a = ?".into(),
            params: vec![SqlValue::Int(i64::MIN)],
            reply: h(5),
        },
        DbMsg::rows(&[vec![SqlValue::Int(1), "r".into()]]),
        DbMsg::Done,
        DbMsg::AdminPort { port: h(6) },
    ];
    check(&fixtures, DbMsg::to_value, DbMsg::from_value);
}

#[test]
fn fs_messages_decode_exactly() {
    let fixtures = [
        FsMsg::AddUser {
            user: "u".into(),
            reply: h(1),
        },
        FsMsg::AddUserR {
            taint: h(2),
            grant: h(3),
        },
        FsMsg::Create {
            name: "f".into(),
            user: "u".into(),
        },
        FsMsg::Read {
            name: "f".into(),
            reply: h(4),
        },
        FsMsg::ReadR {
            name: "f".into(),
            data: Some(vec![1].into()),
        },
        FsMsg::ReadR {
            name: "f".into(),
            data: None,
        },
        FsMsg::Write {
            name: "f".into(),
            data: vec![2].into(),
            reply: Some(h(5)),
        },
        FsMsg::Write {
            name: "f".into(),
            data: Payload::new(),
            reply: None,
        },
        FsMsg::WriteR {
            name: "f".into(),
            ok: false,
        },
        FsMsg::CreateSystem {
            name: "passwd".into(),
        },
    ];
    check(&fixtures, FsMsg::to_value, FsMsg::from_value);
}

#[test]
fn cache_messages_decode_exactly() {
    let fixtures = [
        CacheMsg::Put {
            user: "u".into(),
            key: "k".into(),
            bytes: vec![1].into(),
        },
        CacheMsg::Get {
            key: "k".into(),
            reply: h(1),
        },
        CacheMsg::Hit {
            key: "k".into(),
            bytes: vec![2].into(),
        },
        CacheMsg::GetDone { key: "k".into() },
        CacheMsg::Evict {
            user: "u".into(),
            key: "k".into(),
        },
    ];
    check(&fixtures, CacheMsg::to_value, CacheMsg::from_value);
}

/// The leniencies the exact reader removed, one message each.
#[test]
fn refuses_fields_no_encoder_writes() {
    let s = |text: &str| Value::Str(text.into());
    let handle = Value::Handle(h(1));
    // A trailing field.
    let close = Value::List(vec![s("close"), Value::U64(1)]);
    assert_eq!(NetMsg::from_value(&close), None);
    // A reply that is neither a handle nor `Unit`.
    let bind = Value::List(vec![
        s("bind"),
        s("u"),
        handle.clone(),
        handle,
        Value::U64(1),
    ]);
    assert_eq!(DbMsg::from_value(&bind), None);
    // A missing optional field.
    let exec = Value::List(vec![s("exec"), s("u"), s("sql"), Value::List(Vec::new())]);
    assert_eq!(DbMsg::from_value(&exec), None);
    let login_r = Value::List(vec![s("login-r"), Value::Bool(false), s("u")]);
    assert_eq!(OkwsMsg::from_value(&login_r), None);
    let write = Value::List(vec![s("write"), s("f"), Value::Bytes(Payload::new())]);
    assert_eq!(FsMsg::from_value(&write), None);
    // File data that is neither bytes nor `Unit`.
    let read_r = Value::List(vec![s("read-r"), s("f"), Value::U64(0)]);
    assert_eq!(FsMsg::from_value(&read_r), None);
}
