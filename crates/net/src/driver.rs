//! The external HTTP client driver.
//!
//! Plays the role of the paper's Linux load-generator box (§9): it opens
//! simulated TCP connections carrying HTTP requests, injects the connection
//! events into netd, and collects responses and latency samples. The driver
//! is outside the label system — it is the network, not a process.
//!
//! With a multi-lane netd front end the driver is also the multi-queue NIC:
//! each connection is hashed by the RSS demultiplexer to one lane, and the
//! driver keeps a per-lane index of outstanding requests so completion
//! polling is per lane and O(outstanding-in-lane) — the structure the
//! load/latency harness (`crates/loadgen`) and the sharded Figure 8 port
//! depend on at large request counts.

use std::cell::RefCell;
use std::rc::Rc;

use asbestos_kernel::{Handle, Kernel, CYCLES_PER_SEC};

use crate::netd::NetdHandle;
use crate::proto::NetMsg;
use crate::tcp::{ConnId, MultiQueue, SimNet};

/// An in-flight or completed client request.
#[derive(Clone, Debug)]
pub struct ClientRequest {
    /// Substrate connection id.
    pub conn: ConnId,
    /// The server TCP port the request targets (kept for shed retries).
    pub tcp_port: u16,
    /// The netd lane the RSS demux hashed the current connection to.
    pub lane: usize,
    /// Virtual time when the connection event was injected.
    pub started_at: u64,
    /// Virtual time when the full response was observed, if finished.
    pub finished_at: Option<u64>,
    /// Response bytes collected so far.
    pub response: Vec<u8>,
    /// The request bytes, kept so a shed connection can be re-issued.
    pub request_bytes: Vec<u8>,
    /// Times this request was refused at the edge and re-opened.
    pub retries: u32,
    /// The client killed this connection mid-stream: it will never
    /// complete and must not be mistaken for an edge shed and retried.
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
///
/// With a multi-lane netd front end the driver plays the multi-queue NIC:
/// each new connection is hashed by the RSS demultiplexer to one lane's
/// device port, and every later event for that connection stays on that
/// lane.
pub struct ClientDriver {
    net: Rc<RefCell<SimNet>>,
    device_ports: Vec<Handle>,
    demux: MultiQueue,
    requests: Vec<ClientRequest>,
    /// Open request indices, per lane — the poll working set. A request
    /// leaves its lane's list when it completes, aborts, or (on a shed
    /// retry) re-hashes to another lane.
    outstanding: Vec<Vec<usize>>,
}

impl ClientDriver {
    /// Creates a driver bound to a spawned netd front end.
    pub fn new(netd: &NetdHandle) -> ClientDriver {
        let device_ports: Vec<Handle> = netd.lanes.iter().map(|l| l.device_port).collect();
        let demux = MultiQueue::new(device_ports.len());
        let outstanding = vec![Vec::new(); device_ports.len()];
        ClientDriver {
            net: netd.net.clone(),
            device_ports,
            demux,
            requests: Vec::new(),
            outstanding,
        }
    }

    /// Number of netd lanes the driver feeds.
    pub fn lanes(&self) -> usize {
        self.device_ports.len()
    }

    /// Opens a connection carrying `request_bytes` to `tcp_port` and tells
    /// its lane's netd about it. Returns an index into
    /// [`ClientDriver::requests`].
    pub fn open(&mut self, kernel: &mut Kernel, tcp_port: u16, request_bytes: &[u8]) -> usize {
        let conn = self.net.borrow_mut().client_open(tcp_port, request_bytes);
        let lane = self.demux.accept(conn, tcp_port);
        kernel.inject(
            self.device_ports[lane],
            NetMsg::DevNewConn { conn, tcp_port }.to_value(),
        );
        self.requests.push(ClientRequest {
            conn,
            tcp_port,
            lane,
            started_at: kernel.elapsed_cycles(),
            finished_at: None,
            response: Vec::new(),
            request_bytes: request_bytes.to_vec(),
            retries: 0,
            aborted: false,
        });
        let idx = self.requests.len() - 1;
        self.outstanding[lane].push(idx);
        idx
    }

    /// Connections accepted per lane so far (the RSS spread observable).
    pub fn lane_accepts(&self) -> &[u64] {
        self.demux.accepts()
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
        self.outstanding[req.lane].retain(|&i| i != idx);
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

    /// Collects newly arrived response bytes for every lane. A request
    /// completes when the server has closed the connection with a
    /// non-empty response (HTTP/1.0 close-delimited framing, which is what
    /// OKWS and the baselines use). Completed connections are reaped from
    /// the substrate.
    pub fn poll(&mut self, kernel: &Kernel) {
        for lane in 0..self.device_ports.len() {
            self.poll_lane(kernel, lane);
        }
    }

    /// Per-lane completion polling: collects response bytes for the
    /// outstanding requests of `lane` only. This is the multi-queue
    /// analogue of a NIC completion ring — the latency harness polls each
    /// lane as its shard drains instead of scanning every request ever
    /// issued, which is what keeps polling O(outstanding) under
    /// million-session logs.
    pub fn poll_lane(&mut self, kernel: &Kernel, lane: usize) {
        let now = kernel.elapsed_cycles();
        let mut net = self.net.borrow_mut();
        let requests = &mut self.requests;
        self.outstanding[lane].retain(|&idx| {
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
    /// single response byte — the overload-shed signature (netd refuses
    /// accepts at the edge when its shard runs hot). A well-behaved client
    /// backs off and retries; this models the retry. The original
    /// `started_at` is kept, so the measured latency of a shed-then-served
    /// request includes the refusal round-trip — that *is* the price of
    /// graceful degradation. Shed-then-retried requests are reported as
    /// the *retried* latency series ([`ClientDriver::retried_latencies_us`]),
    /// distinct from the fresh series, so the refusal round-trips never
    /// silently inflate a scenario's p999. Client-aborted requests are
    /// never retried. Returns how many requests were re-opened.
    pub fn retry_shed(&mut self, kernel: &mut Kernel) -> usize {
        let mut retried = 0;
        // Only outstanding requests can have been shed; collect the
        // candidates per lane first (a retry re-hashes to a new lane, so
        // the lists are edited after the scan).
        let mut shed_idxs = Vec::new();
        {
            let net = self.net.borrow();
            for lane in &self.outstanding {
                for &idx in lane {
                    let req = &self.requests[idx];
                    if req.finished_at.is_none()
                        && !req.aborted
                        && req.response.is_empty()
                        && !net.is_open(req.conn)
                    {
                        shed_idxs.push(idx);
                    }
                }
            }
        }
        for idx in shed_idxs {
            let (old_conn, old_lane, tcp_port, bytes) = {
                let req = &self.requests[idx];
                (req.conn, req.lane, req.tcp_port, req.request_bytes.clone())
            };
            let new_conn = {
                let mut net = self.net.borrow_mut();
                net.reap(old_conn);
                net.client_open(tcp_port, &bytes)
            };
            let lane = self.demux.accept(new_conn, tcp_port);
            kernel.inject(
                self.device_ports[lane],
                NetMsg::DevNewConn {
                    conn: new_conn,
                    tcp_port,
                }
                .to_value(),
            );
            let req = &mut self.requests[idx];
            req.conn = new_conn;
            req.retries += 1;
            if lane != old_lane {
                req.lane = lane;
                self.outstanding[old_lane].retain(|&i| i != idx);
                self.outstanding[lane].push(idx);
            }
            retried += 1;
        }
        retried
    }

    /// Total edge refusals the driver has retried so far.
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

    fn collect_latencies(&self, retried: bool) -> Vec<f64> {
        let mut out: Vec<f64> = self
            .requests
            .iter()
            .filter(|r| (r.retries > 0) == retried)
            .filter_map(ClientRequest::latency_us)
            .collect();
        out.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        out
    }

    /// Completed *fresh* request latencies in microseconds, sorted
    /// ascending: requests that were served on their first connection.
    /// Shed-then-retried requests are deliberately excluded — their
    /// latency includes edge-refusal round-trips and belongs to the
    /// distinct [`ClientDriver::retried_latencies_us`] series, not in the
    /// tail of this one.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.collect_latencies(false)
    }

    /// Completed latencies of shed-then-retried requests, sorted
    /// ascending (includes the refusal round-trips — the price of
    /// graceful degradation, reported as its own series).
    pub fn retried_latencies_us(&self) -> Vec<f64> {
        self.collect_latencies(true)
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
        self.outstanding.iter().map(Vec::len).sum()
    }

    /// Clears the request log (keeps connections).
    pub fn reset_log(&mut self) {
        self.requests.clear();
        for lane in &mut self.outstanding {
            lane.clear();
        }
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
