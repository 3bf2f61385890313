//! The file-server protocol, inspired by Plan 9's 9P as §4 notes:
//! "to read a file, for example, the client sends a READ message to the
//! fileserver's port and awaits the corresponding READ_R reply."

use asbestos_kernel::{Fields, Handle, Payload, Value};

/// A message in the file-server protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsMsg {
    /// Register a user; the server creates taint/grant handles and replies
    /// [`FsMsg::AddUserR`] to `reply`, granting both handles at `⋆`.
    AddUser {
        /// Username.
        user: String,
        /// Reply port.
        reply: Handle,
    },
    /// Reply to `AddUser`: the user's taint and grant handles.
    AddUserR {
        /// The user's taint handle `uT`.
        taint: Handle,
        /// The user's grant handle `uG`.
        grant: Handle,
    },
    /// Create a file owned by `user` (empty string = public file).
    Create {
        /// File name.
        name: String,
        /// Owning user, or empty for public.
        user: String,
    },
    /// Read a file; the server replies [`FsMsg::ReadR`] to `reply`,
    /// contaminated with the owner's taint at 3.
    Read {
        /// File name.
        name: String,
        /// Reply port.
        reply: Handle,
    },
    /// Reply to `Read`.
    ReadR {
        /// File name.
        name: String,
        /// Contents (shared with the server's stored copy); `None` if the
        /// file does not exist.
        data: Option<Payload>,
    },
    /// Write a file. For owned files the sender must prove it speaks for
    /// the owner with `V(uG) ≤ 0` (§5.4); for system files, `V(s) ≤ 1`.
    Write {
        /// File name.
        name: String,
        /// New contents.
        data: Payload,
        /// Optional reply port for [`FsMsg::WriteR`].
        reply: Option<Handle>,
    },
    /// Reply to `Write`.
    WriteR {
        /// File name.
        name: String,
        /// Whether the write was accepted.
        ok: bool,
    },
    /// Create a system file (integrity-protected by the `s` compartment).
    CreateSystem {
        /// File name.
        name: String,
    },
}

impl FsMsg {
    /// Encodes to a [`Value`] payload.
    pub fn to_value(&self) -> Value {
        match self {
            FsMsg::AddUser { user, reply } => Value::message("add-user", &[user, reply]),
            FsMsg::AddUserR { taint, grant } => Value::message("add-user-r", &[taint, grant]),
            FsMsg::Create { name, user } => Value::message("create", &[name, user]),
            FsMsg::Read { name, reply } => Value::message("read", &[name, reply]),
            FsMsg::ReadR { name, data } => Value::message("read-r", &[name, data]),
            FsMsg::Write { name, data, reply } => Value::message("write", &[name, data, reply]),
            FsMsg::WriteR { name, ok } => Value::message("write-r", &[name, ok]),
            FsMsg::CreateSystem { name } => Value::message("create-system", &[name]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<FsMsg> {
        let (tag, mut f) = Fields::open(value)?;
        let msg = match tag {
            "add-user" => FsMsg::AddUser {
                user: f.field()?,
                reply: f.field()?,
            },
            "add-user-r" => FsMsg::AddUserR {
                taint: f.field()?,
                grant: f.field()?,
            },
            "create" => FsMsg::Create {
                name: f.field()?,
                user: f.field()?,
            },
            "read" => FsMsg::Read {
                name: f.field()?,
                reply: f.field()?,
            },
            "read-r" => FsMsg::ReadR {
                name: f.field()?,
                data: f.field()?,
            },
            "write" => FsMsg::Write {
                name: f.field()?,
                data: f.field()?,
                reply: f.field()?,
            },
            "write-r" => FsMsg::WriteR {
                name: f.field()?,
                ok: f.field()?,
            },
            "create-system" => FsMsg::CreateSystem { name: f.field()? },
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
        let h = Handle::from_raw(7);
        let msgs = vec![
            FsMsg::AddUser {
                user: "u".into(),
                reply: h,
            },
            FsMsg::AddUserR { taint: h, grant: h },
            FsMsg::Create {
                name: "f".into(),
                user: "u".into(),
            },
            FsMsg::Read {
                name: "f".into(),
                reply: h,
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
                reply: Some(h),
            },
            FsMsg::Write {
                name: "f".into(),
                data: Payload::new(),
                reply: None,
            },
            FsMsg::WriteR {
                name: "f".into(),
                ok: true,
            },
            FsMsg::CreateSystem {
                name: "passwd".into(),
            },
        ];
        for m in msgs {
            assert_eq!(FsMsg::from_value(&m.to_value()), Some(m));
        }
    }
}
