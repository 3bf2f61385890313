//! The external HTTP client driver.
//!
//! Plays the role of the paper's Linux load-generator box (§9): it opens
//! simulated TCP connections carrying HTTP requests, injects the connection
//! events into netd, and collects responses and latency samples. The driver
//! is outside the label system — it is the network, not a process.
//!
//! The driver keeps an index of its outstanding requests, so completion
//! polling is O(outstanding) rather than O(every request ever issued) —
//! the structure the load/latency harness (`crates/loadgen`) depends on
//! at large request counts.

use std::cell::RefCell;
use std::rc::Rc;

use asbestos_kernel::{Handle, Kernel, CYCLES_PER_SEC};

use crate::netd::NetdHandle;
use crate::proto::NetMsg;
use crate::tcp::{ConnId, SimNet};

/// An in-flight or completed client request.
#[derive(Clone, Debug)]
pub struct ClientRequest {
    /// Substrate connection id.
    pub conn: ConnId,
    /// The server TCP port the request targets (kept for shed retries).
    pub tcp_port: u16,
    /// Virtual time when the connection event was injected.
    pub started_at: u64,
    /// Virtual time when the full response was observed, if finished.
    pub finished_at: Option<u64>,
    /// Response bytes collected so far.
    pub response: Vec<u8>,
    /// The request bytes, kept so a shed connection can be re-issued.
    pub request_bytes: Vec<u8>,
    /// Times this request's connection was closed unserved and re-opened.
    pub retries: u32,
    /// The client killed this connection mid-stream: it will never
    /// complete and must not be mistaken for a shed and retried.
    pub aborted: bool,
}

impl ClientRequest {
    /// Request latency in cycles, if the response completed.
    pub fn latency_cycles(&self) -> Option<u64> {
        self.finished_at.map(|f| f - self.started_at)
    }

    /// Request latency in microseconds of simulated 2.8 GHz time.
    pub fn latency_us(&self) -> Option<f64> {
        self.latency_cycles()
            .map(|c| c as f64 * 1e6 / CYCLES_PER_SEC as f64)
    }
}

/// Drives HTTP requests through the simulated network.
pub struct ClientDriver {
    net: Rc<RefCell<SimNet>>,
    device_port: Handle,
    requests: Vec<ClientRequest>,
    /// Open request indices — the poll working set. A request leaves it
    /// when it completes or aborts.
    outstanding: Vec<usize>,
    /// Connections opened so far, shed retries included.
    opened: u64,
}

impl ClientDriver {
    /// Creates a driver bound to a spawned netd.
    pub fn new(netd: &NetdHandle) -> ClientDriver {
        ClientDriver {
            net: netd.net.clone(),
            device_port: netd.device_port,
            requests: Vec::new(),
            outstanding: Vec::new(),
            opened: 0,
        }
    }

    /// Opens a substrate connection carrying `bytes` and tells netd.
    fn connect(&mut self, kernel: &mut Kernel, tcp_port: u16, bytes: &[u8]) -> ConnId {
        let conn = self.net.borrow_mut().client_open(tcp_port, bytes);
        self.opened += 1;
        kernel.inject(
            self.device_port,
            NetMsg::DevNewConn { conn, tcp_port }.to_value(),
        );
        conn
    }

    /// Opens a connection carrying `request_bytes` to `tcp_port` and tells
    /// netd about it. Returns an index into [`ClientDriver::requests`].
    pub fn open(&mut self, kernel: &mut Kernel, tcp_port: u16, request_bytes: &[u8]) -> usize {
        let conn = self.connect(kernel, tcp_port, request_bytes);
        self.requests.push(ClientRequest {
            conn,
            tcp_port,
            started_at: kernel.now(),
            finished_at: None,
            response: Vec::new(),
            request_bytes: request_bytes.to_vec(),
            retries: 0,
            aborted: false,
        });
        let idx = self.requests.len() - 1;
        self.outstanding.push(idx);
        idx
    }

    /// An inert stub: one counter, the connections opened so far (shed
    /// retries included), since there is one netd. Kept only because
    /// `benchmark/` (which a crate change may not edit) reads it.
    pub fn lane_accepts(&self) -> [u64; 1] {
        [self.opened]
    }

    /// Convenience: issues a GET for `path` (HTTP/1.0, benchmark headers).
    pub fn get(&mut self, kernel: &mut Kernel, tcp_port: u16, path: &str) -> usize {
        let req =
            format!("GET {path} HTTP/1.0\r\nHost: asbestos.test\r\nUser-Agent: bench/0.1\r\n\r\n");
        self.open(kernel, tcp_port, req.as_bytes())
    }

    /// Kills a request's connection from the client side mid-stream (the
    /// disconnect scenarios: a user closing the tab). The request is
    /// marked aborted — it will never complete, and neither polling nor
    /// shed-retry will touch it again; the substrate connection is reaped
    /// once the server side is done with it.
    pub fn abort(&mut self, idx: usize) {
        let req = &mut self.requests[idx];
        if req.finished_at.is_some() || req.aborted {
            return;
        }
        req.aborted = true;
        self.net.borrow_mut().close(req.conn);
        self.outstanding.retain(|&i| i != idx);
    }

    /// Reaps the substrate connection of an aborted request (call after
    /// the kernel has drained, so the server side has observed the close).
    pub fn reap_aborted(&mut self) {
        let mut net = self.net.borrow_mut();
        for req in &self.requests {
            if req.aborted {
                net.reap(req.conn);
            }
        }
    }

    /// Collects newly arrived response bytes. A request completes when
    /// the server has closed the connection with a non-empty response
    /// (HTTP/1.0 close-delimited framing, which is what OKWS and the
    /// baselines use). Completed connections are reaped from the
    /// substrate.
    pub fn poll(&mut self, kernel: &Kernel) {
        let now = kernel.now();
        let mut net = self.net.borrow_mut();
        let requests = &mut self.requests;
        self.outstanding.retain(|&idx| {
            let req = &mut requests[idx];
            if req.finished_at.is_some() || req.aborted {
                return false;
            }
            let bytes = net.client_take_response(req.conn);
            req.response.extend_from_slice(&bytes);
            if !net.is_open(req.conn) && !req.response.is_empty() {
                req.finished_at = Some(now);
                net.reap(req.conn);
                return false;
            }
            true
        });
    }

    /// Re-issues requests whose connection the server closed without a
    /// single response byte — the shed signature (an OKWS worker closes
    /// a connection unserved when its session is draining or its pending
    /// queue is full). A well-behaved client retries; this models the
    /// retry. The original `started_at` is kept, so the measured latency
    /// of a shed-then-served request includes the shed round-trip; such
    /// requests are counted by [`ClientDriver::retried`]. Client-aborted
    /// requests are never retried.
    /// Returns how many requests were re-opened.
    pub fn retry_shed(&mut self, kernel: &mut Kernel) -> usize {
        // Only outstanding requests can have been shed.
        let shed: Vec<usize> = {
            let net = self.net.borrow();
            self.outstanding
                .iter()
                .copied()
                .filter(|&idx| {
                    let req = &self.requests[idx];
                    req.finished_at.is_none()
                        && !req.aborted
                        && req.response.is_empty()
                        && !net.is_open(req.conn)
                })
                .collect()
        };
        for &idx in &shed {
            let req = &self.requests[idx];
            let (old_conn, tcp_port, bytes) = (req.conn, req.tcp_port, req.request_bytes.clone());
            self.net.borrow_mut().reap(old_conn);
            let conn = self.connect(kernel, tcp_port, &bytes);
            let req = &mut self.requests[idx];
            req.conn = conn;
            req.retries += 1;
        }
        shed.len()
    }

    /// Total shed connections the driver has retried so far.
    pub fn total_retries(&self) -> u64 {
        self.requests.iter().map(|r| u64::from(r.retries)).sum()
    }

    /// All requests issued so far.
    pub fn requests(&self) -> &[ClientRequest] {
        &self.requests
    }

    /// One request, by the index returned from [`ClientDriver::open`].
    pub fn request(&self, idx: usize) -> &ClientRequest {
        &self.requests[idx]
    }

    /// Completed requests that needed at least one shed retry.
    pub fn retried(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.retries > 0 && r.finished_at.is_some())
            .count()
    }

    /// Number of completed requests.
    pub fn completed(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.finished_at.is_some())
            .count()
    }

    /// Number of requests aborted from the client side.
    pub fn aborted(&self) -> usize {
        self.requests.iter().filter(|r| r.aborted).count()
    }

    /// Requests still awaiting a response (not completed, not aborted).
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Clears the request log (keeps connections).
    pub fn reset_log(&mut self) {
        self.requests.clear();
        self.outstanding.clear();
    }
}

/// Percentile over a sorted slice (nearest-rank); `p` in `[0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    // The epsilon keeps exact ranks exact: 99.9% of 1000 must be rank
    // 999, but (99.9 / 100) * 1000 lands a few ulps above 999.0 and a
    // bare ceil would skip to the max sample.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.0));
        assert_eq!(percentile(&v, 90.0), Some(4.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
