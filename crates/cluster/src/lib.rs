//! # asbestos-cluster
//!
//! Multi-kernel federation: labels across the wire.
//!
//! The paper's kernel is one machine; this crate federates N
//! [`Kernel`](asbestos_kernel::Kernel) instances into one label system
//! over real sockets. The design keeps the paper's semantics by moving
//! *labels*, never *verdicts*:
//!
//! * [`wire`] — the serialized form: a typed [`WireMsg`](wire::WireMsg)
//!   enum in length-prefixed, CRC-framed, versioned frames. Labels
//!   travel as their §5.6 packed entries in one canonical form (strictly
//!   ascending, nothing at the default level) that is checked on arrival
//!   and rejected, never repaired, when it is anything else
//!   ([`WireError::NonCanonical`]); payload bytes are zero-copy views of
//!   the received frame.
//! * [`conn`] — [`FrameConn`](conn::FrameConn), a nonblocking framed
//!   `UnixStream` (partial reads/writes are normal, nothing blocks).
//! * [`switch`] — the hub: a port directory (`Register`/`Resolve`/
//!   push-based `ResolveR`) plus a `Forward` relay. It routes by port
//!   handle only: a `Forward` is checksummed once, validated field by
//!   field without building a label, and relayed as the very bytes it
//!   arrived as. A malformed frame kills the *sender's* connection.
//! * [`gateway`] — each kernel's ambassador: replicates the global
//!   environment, announces local ports, drains the kernel's remote
//!   egress outward, and injects arriving `Forward`s inward, where the
//!   ordinary delivery path re-runs the Figure 4 check against the
//!   *destination* kernel's state. A verdict is derived only from
//!   destination-side state — the same isolation rule the sharded
//!   kernel enforces, stretched across the wire.
//! * [`cluster`] — [`Cluster`]: construction (disjoint handle-cipher
//!   lanes per kernel keep §5.1 uniqueness cluster-wide), the
//!   run-to-quiescence federation scheduler, and [`deploy_okws`] for
//!   placing the §7 web server across kernels.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod conn;
pub mod gateway;
pub mod switch;
pub mod wire;

pub use cluster::{deploy_okws, Cluster, ClusterNode};
pub use conn::{ConnStats, FrameConn};
pub use gateway::Gateway;
pub use switch::Switch;
pub use wire::{decode_frame, encode_frame, WireError, WireMsg, WIRE_VERSION};
