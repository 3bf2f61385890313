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

/// RSS-style receive-side demultiplexer: maps a connection to one of
/// `lanes` netd queues, the way a multi-queue NIC hashes a flow's 4-tuple
/// to a receive queue. The simulated flow identity is `(conn, tcp_port)`;
/// the mix is SplitMix64's finalizer, so consecutive connection ids spread
/// evenly across lanes instead of striding. The hash is a pure function of
/// the flow — every packet of a connection lands on the same lane, which
/// is the invariant that keeps a connection's whole event history on one
/// shard.
pub fn rss_lane(conn: ConnId, tcp_port: u16, lanes: usize) -> usize {
    if lanes <= 1 {
        return 0;
    }
    let mut z = conn ^ (u64::from(tcp_port) << 48) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % lanes as u64) as usize
}

/// Per-lane accept bookkeeping for a multi-queue front end: which lane
/// each live connection hashed to, and how many connections each lane has
/// accepted in total (the load-spread observable tests assert on).
/// Construct with [`MultiQueue::new`] — there is deliberately no
/// `Default`, since a zero-lane demux is invalid.
#[derive(Debug)]
pub struct MultiQueue {
    lanes: usize,
    accepts: Vec<u64>,
}

impl MultiQueue {
    /// A demultiplexer over `lanes` queues.
    pub fn new(lanes: usize) -> MultiQueue {
        assert!(lanes >= 1, "a multi-queue front end needs at least 1 lane");
        MultiQueue {
            lanes,
            accepts: vec![0; lanes],
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Hashes a new connection to its lane and records the accept.
    pub fn accept(&mut self, conn: ConnId, tcp_port: u16) -> usize {
        let lane = rss_lane(conn, tcp_port, self.lanes);
        self.accepts[lane] += 1;
        lane
    }

    /// Total connections ever accepted on each lane.
    pub fn accepts(&self) -> &[u64] {
        &self.accepts
    }
}

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
    fn rss_lane_is_stable_and_in_range() {
        for conn in 0..256u64 {
            for &lanes in &[1usize, 2, 3, 4, 8] {
                let lane = rss_lane(conn, 80, lanes);
                assert!(lane < lanes);
                // Pure function of the flow: every packet, same lane.
                assert_eq!(lane, rss_lane(conn, 80, lanes));
            }
            assert_eq!(rss_lane(conn, 80, 1), 0);
        }
    }

    #[test]
    fn rss_lane_spreads_connections() {
        // 256 consecutive conn ids over 4 lanes: no lane may be starved
        // or hoard the traffic (a NIC-grade hash keeps queues balanced).
        let mut mq = MultiQueue::new(4);
        for conn in 0..256u64 {
            mq.accept(conn, 80);
        }
        for (lane, &count) in mq.accepts().iter().enumerate() {
            assert!(
                (32..=96).contains(&count),
                "lane {lane} got {count} of 256 connections"
            );
        }
    }

    #[test]
    fn bytes_carried_accumulates() {
        let mut net = SimNet::new();
        let c = net.client_open(80, b"12345");
        net.server_write(c, b"123");
        assert_eq!(net.bytes_carried, 8);
    }
}
