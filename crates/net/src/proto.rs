//! The netd wire protocol (§7.7).
//!
//! "Once a process has a port to an open connection, it may perform READ
//! and WRITE operations to transfer data, CONTROL operations to close the
//! connection or change the low-water mark, and SELECT operations to
//! determine available buffer space. ... When a process tells netd to add a
//! taint handle to a connection, later messages sent in response to
//! operations on that connection will be contaminated with the taint handle
//! at level 3."
//!
//! Requests to a connection's own port `uC`; LISTEN to netd's control port;
//! device events are injected by the external world.

use asbestos_kernel::{Fields, Handle, Payload, Value};

/// A message in the netd protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    // -------------------- device events (injected) --------------------
    /// A client opened a TCP connection to `tcp_port`.
    DevNewConn {
        /// Substrate connection id.
        conn: u64,
        /// Server-side TCP port.
        tcp_port: u16,
    },

    // -------------------- application → netd --------------------
    /// Register `notify` to receive new-connection notifications for
    /// `tcp_port` (sent to netd's control port).
    Listen {
        /// TCP port to listen on.
        tcp_port: u16,
        /// Where netd should announce new connections.
        notify: Handle,
    },
    /// Read up to `max` request bytes; netd replies `ReadR` to `reply`.
    Read {
        /// Maximum bytes.
        max: u64,
        /// Reply port (granted to netd at ⋆ alongside this message).
        reply: Handle,
        /// Peek without consuming (ok-demux reads the head this way so the
        /// worker can still read the whole request, §7.2 steps 3 and 8).
        peek: bool,
    },
    /// Write response bytes to the connection.
    Write {
        /// Payload (a refcounted view; encoding and decoding share it).
        bytes: Payload,
    },
    /// Attach a taint handle: future replies for this connection are
    /// contaminated `taint 3`, and the connection port accepts `taint 3`
    /// senders (§7.2 step 5).
    AddTaint {
        /// The user taint handle (granted to netd at ⋆ with this message).
        taint: Handle,
    },
    /// Close the connection (CONTROL).
    Close,
    /// Ask for pending input bytes; netd replies `SelectR` to `reply`.
    Select {
        /// Reply port.
        reply: Handle,
    },

    // -------------------- netd → application --------------------
    /// New connection announcement; netd grants the receiver `port ⋆`.
    NewConn {
        /// The connection's Asbestos port `uC`.
        port: Handle,
    },
    /// Read reply: the requested bytes (possibly empty).
    ReadR {
        /// Data read (a refcounted view of the NIC buffer; the bytes
        /// were written once, at the substrate edge).
        bytes: Payload,
    },
    /// Select reply: pending input bytes.
    SelectR {
        /// Bytes available to read.
        available: u64,
    },
}

impl NetMsg {
    /// Encodes to a [`Value`] payload.
    pub fn to_value(&self) -> Value {
        match self {
            NetMsg::DevNewConn { conn, tcp_port } => {
                Value::message("dev-new-conn", &[conn, tcp_port])
            }
            NetMsg::Listen { tcp_port, notify } => Value::message("listen", &[tcp_port, notify]),
            NetMsg::Read { max, reply, peek } => Value::message("read", &[max, reply, peek]),
            NetMsg::Write { bytes } => Value::message("write", &[bytes]),
            NetMsg::AddTaint { taint } => Value::message("add-taint", &[taint]),
            NetMsg::Close => Value::message("close", &[]),
            NetMsg::Select { reply } => Value::message("select", &[reply]),
            NetMsg::NewConn { port } => Value::message("new-conn", &[port]),
            NetMsg::ReadR { bytes } => Value::message("read-r", &[bytes]),
            NetMsg::SelectR { available } => Value::message("select-r", &[available]),
        }
    }

    /// Decodes from a [`Value`] payload.
    pub fn from_value(value: &Value) -> Option<NetMsg> {
        let (tag, mut f) = Fields::open(value)?;
        let msg = match tag {
            "dev-new-conn" => NetMsg::DevNewConn {
                conn: f.field()?,
                tcp_port: f.field()?,
            },
            "listen" => NetMsg::Listen {
                tcp_port: f.field()?,
                notify: f.field()?,
            },
            "read" => NetMsg::Read {
                max: f.field()?,
                reply: f.field()?,
                peek: f.field()?,
            },
            "write" => NetMsg::Write { bytes: f.field()? },
            "add-taint" => NetMsg::AddTaint { taint: f.field()? },
            "close" => NetMsg::Close,
            "select" => NetMsg::Select { reply: f.field()? },
            "new-conn" => NetMsg::NewConn { port: f.field()? },
            "read-r" => NetMsg::ReadR { bytes: f.field()? },
            "select-r" => NetMsg::SelectR {
                available: f.field()?,
            },
            _ => return None,
        };
        f.end(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_variants() {
        let h = Handle::from_raw(0x42);
        let msgs = vec![
            NetMsg::DevNewConn {
                conn: 7,
                tcp_port: 80,
            },
            NetMsg::Listen {
                tcp_port: 80,
                notify: h,
            },
            NetMsg::Read {
                max: 512,
                reply: h,
                peek: false,
            },
            NetMsg::Read {
                max: 64,
                reply: h,
                peek: true,
            },
            NetMsg::Write {
                bytes: vec![1, 2, 3].into(),
            },
            NetMsg::AddTaint { taint: h },
            NetMsg::Close,
            NetMsg::Select { reply: h },
            NetMsg::NewConn { port: h },
            NetMsg::ReadR {
                bytes: vec![9].into(),
            },
            NetMsg::SelectR { available: 5 },
        ];
        for msg in msgs {
            assert_eq!(NetMsg::from_value(&msg.to_value()), Some(msg));
        }
    }

    #[test]
    fn payload_roundtrip_shares_the_buffer() {
        let original: Payload = vec![7u8; 32].into();
        let msg = NetMsg::Write {
            bytes: original.clone(),
        };
        let before = Payload::deep_copies();
        let decoded = NetMsg::from_value(&msg.to_value());
        let Some(NetMsg::Write { bytes }) = decoded else {
            panic!("roundtrip failed");
        };
        assert_eq!(bytes.backing_id(), original.backing_id());
        assert_eq!(
            Payload::deep_copies(),
            before,
            "encode/decode must move refcounts, not bytes"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(NetMsg::from_value(&Value::Unit), None);
        assert_eq!(
            NetMsg::from_value(&Value::List(vec![Value::Str("bogus".into())])),
            None
        );
        // Out-of-range TCP port.
        assert_eq!(
            NetMsg::from_value(&Value::List(vec![
                Value::Str("dev-new-conn".into()),
                Value::U64(1),
                Value::U64(1 << 20),
            ])),
            None
        );
    }
}
