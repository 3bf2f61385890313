//! The simulated TCP substrate.
//!
//! Substitutes for the paper's LWIP port and E1000 driver (§7.7). The model
//! is byte-stream connections with two buffers each; connection setup,
//! teardown, and data movement are what netd's cost accounting measures, so
//! wire-level details (segments, retransmission, congestion control) are
//! deliberately absent — no figure in the paper depends on them.

use std::collections::BTreeMap;
use std::sync::Arc;

use asbestos_kernel::Payload;

/// Identifies a simulated TCP connection.
pub type ConnId = u64;

/// One byte-stream connection between the external client and netd.
#[derive(Debug, Default)]
pub struct SimConn {
    /// Bytes the client has sent that netd has not yet consumed.
    client_to_server: Vec<u8>,
    /// Bytes netd has written toward the client.
    server_to_client: Vec<u8>,
    /// The server-side TCP port this connection targets.
    pub tcp_port: u16,
    /// Whether either side has closed.
    pub closed: bool,
}

/// The shared network state: connections plus per-side buffers.
///
/// Lives in an `Rc<RefCell<…>>` shared between the netd service (inside
/// the kernel) and the external [`crate::driver::ClientDriver`].
#[derive(Debug, Default)]
pub struct SimNet {
    conns: BTreeMap<ConnId, SimConn>,
    next_conn: ConnId,
    /// Total bytes ever carried (god-mode stat).
    pub bytes_carried: u64,
}

impl SimNet {
    /// Creates an empty network.
    pub fn new() -> SimNet {
        SimNet::default()
    }

    /// Client side: opens a connection to `tcp_port` carrying `request`.
    pub fn client_open(&mut self, tcp_port: u16, request: &[u8]) -> ConnId {
        let id = self.next_conn;
        self.next_conn += 1;
        let mut conn = SimConn {
            tcp_port,
            ..SimConn::default()
        };
        conn.client_to_server.extend_from_slice(request);
        self.bytes_carried += request.len() as u64;
        self.conns.insert(id, conn);
        id
    }

    /// Client side: sends additional request bytes.
    pub fn client_send(&mut self, conn: ConnId, data: &[u8]) {
        if let Some(c) = self.conns.get_mut(&conn) {
            if !c.closed {
                c.client_to_server.extend_from_slice(data);
                self.bytes_carried += data.len() as u64;
            }
        }
    }

    /// Client side: takes everything the server has written so far.
    pub fn client_take_response(&mut self, conn: ConnId) -> Vec<u8> {
        match self.conns.get_mut(&conn) {
            Some(c) => std::mem::take(&mut c.server_to_client),
            None => Vec::new(),
        }
    }

    /// Server side (netd): reads up to `max` pending request bytes. The
    /// bytes are frozen once, into the buffer the returned payload shares
    /// with every later copy of it — the NIC's write at the edge, so not
    /// a counted [`Payload`] materialization.
    pub fn server_read(&mut self, conn: ConnId, max: usize) -> Payload {
        match self.conns.get_mut(&conn) {
            Some(c) => {
                let take = max.min(c.client_to_server.len());
                Payload::from_arc(c.client_to_server.drain(..take).collect())
            }
            None => Payload::new(),
        }
    }

    /// Server side (netd): writes response bytes toward the client.
    pub fn server_write(&mut self, conn: ConnId, data: &[u8]) -> usize {
        match self.conns.get_mut(&conn) {
            Some(c) if !c.closed => {
                c.server_to_client.extend_from_slice(data);
                self.bytes_carried += data.len() as u64;
                data.len()
            }
            _ => 0,
        }
    }

    /// Server side (netd): peeks at up to `max` pending request bytes
    /// without consuming them (ok-demux's header read, §7.2 step 3).
    /// Like [`SimNet::server_read`], the payload is frozen once and not
    /// counted.
    pub fn server_peek(&self, conn: ConnId, max: usize) -> Payload {
        match self.conns.get(&conn) {
            Some(c) => {
                let take = max.min(c.client_to_server.len());
                Payload::from_arc(Arc::from(&c.client_to_server[..take]))
            }
            None => Payload::new(),
        }
    }

    /// Server side: pending request bytes (SELECT's answer).
    pub fn server_pending(&self, conn: ConnId) -> usize {
        self.conns
            .get(&conn)
            .map(|c| c.client_to_server.len())
            .unwrap_or(0)
    }

    /// Marks a connection closed (either side).
    pub fn close(&mut self, conn: ConnId) {
        if let Some(c) = self.conns.get_mut(&conn) {
            c.closed = true;
        }
    }

    /// Removes a fully drained, closed connection.
    pub fn reap(&mut self, conn: ConnId) {
        self.conns.remove(&conn);
    }

    /// Whether a connection exists and is open.
    pub fn is_open(&self, conn: ConnId) -> bool {
        self.conns.get(&conn).map(|c| !c.closed).unwrap_or(false)
    }

    /// Number of live connection records.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_carries_request() {
        let mut net = SimNet::new();
        let c = net.client_open(80, b"GET / HTTP/1.0\r\n\r\n");
        assert_eq!(net.server_pending(c), 18);
        let got = net.server_read(c, 4);
        assert_eq!(&got[..], b"GET ");
        assert_eq!(net.server_pending(c), 14);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut net = SimNet::new();
        let c = net.client_open(80, b"");
        assert_eq!(net.server_write(c, b"HTTP/1.0 200 OK\r\n"), 17);
        net.client_send(c, b"more");
        assert_eq!(net.client_take_response(c), b"HTTP/1.0 200 OK\r\n");
        assert_eq!(net.client_take_response(c).len(), 0, "drained");
        assert_eq!(net.server_read(c, 100).as_ref(), b"more");
    }

    #[test]
    fn close_stops_traffic() {
        let mut net = SimNet::new();
        let c = net.client_open(80, b"x");
        net.close(c);
        assert!(!net.is_open(c));
        assert_eq!(net.server_write(c, b"late"), 0);
        net.client_send(c, b"late");
        // Pre-close bytes remain readable; post-close sends were ignored.
        assert_eq!(net.server_read(c, 10).as_ref(), b"x");
    }

    #[test]
    fn conn_ids_are_distinct() {
        let mut net = SimNet::new();
        let a = net.client_open(80, b"");
        let b = net.client_open(81, b"");
        assert_ne!(a, b);
        assert_eq!(net.conn_count(), 2);
        net.reap(a);
        assert_eq!(net.conn_count(), 1);
    }

    #[test]
    fn bytes_carried_accumulates() {
        let mut net = SimNet::new();
        let c = net.client_open(80, b"12345");
        net.server_write(c, b"123");
        assert_eq!(net.bytes_carried, 8);
    }
}
