//! # asbestos-net
//!
//! The network substrate for the Asbestos reproduction: a simulated TCP
//! byte-stream layer ([`tcp::SimNet`], the LWIP substitute), the `netd`
//! process that is the system's privileged interface to the network
//! (§7.7), one process as in the paper ([`spawn_netd`]), a minimal
//! HTTP/1.0 implementation, and the external client driver that plays
//! the paper's load-generator box.
//!
//! The essential label behaviour reproduced here: netd wraps every TCP
//! connection in an Asbestos port `uC` with port label `{uC 0, 2}`, grants
//! `uC ⋆` to the registered listener, and — once a taint handle is attached
//! — contaminates every reply on that connection with `uT 3` while raising
//! `uC`'s port label to `{uC 0, uT 3, 2}` so the tainted worker can still
//! respond to its own user (§7.2).

#![forbid(unsafe_code)]

pub mod driver;
pub mod http;
pub mod netd;
pub mod proto;
pub mod tcp;

pub use driver::{percentile, ClientDriver, ClientRequest};
pub use http::{build_response, ok_response, parse_request, HttpError, HttpRequest};
pub use netd::{spawn_netd, Netd, NetdHandle, NetdLane, NETD_CONTROL_ENV, NETD_DEVICE_ENV};
pub use proto::NetMsg;
pub use tcp::{ConnId, SimConn, SimNet};
