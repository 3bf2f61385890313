//! # asbestos-cluster
//!
//! Multi-kernel federation: labels across the wire.
//!
//! The paper's kernel is one machine; this crate federates N
//! [`Kernel`](asbestos_kernel::Kernel) instances into one label system
//! over real sockets. The design keeps the paper's semantics by moving
//! *labels*, never *verdicts*:
//!
//! * [`wire`] — the serialized form: a typed [`wire::WireMsg`]
//!   enum in length-prefixed, CRC-framed, versioned frames. Labels
//!   travel as their §5.6 chunks, and a chunk the receiver already holds
//!   as a one-byte reference into the link direction's
//!   [`wire::ChunkTable`], which both ends keep in step. What arrives is
//!   checked and rejected, never repaired, when it is not what the
//!   encoder writes ([`WireError::NonCanonical`]); payload bytes are
//!   zero-copy views of the received frame.
//! * [`conn`] — [`conn::FrameConn`], a nonblocking framed
//!   `UnixStream` (partial reads/writes are normal, nothing blocks): one
//!   link between two kernels.
//! * [`switch`] — only the count of `Forward`s sent. Nothing between
//!   kernels routes: a port's value names the kernel whose cipher lane
//!   minted it, and the sending kernel's router computes that.
//! * [`gateway`] — each kernel's ambassador: replicates the kernel's
//!   global-environment writes to every peer, writes each message of the
//!   kernel's remote egress (every send to a handle another kernel's lane
//!   minted) on the link to the home it was parked with, and injects arriving `Forward`s inward,
//!   where the ordinary delivery path re-runs the Figure 4 check against
//!   the *destination* kernel's state. A verdict is derived only from
//!   destination-side state — the same isolation rule the sharded kernel
//!   enforces, stretched across the wire. A malformed frame closes the
//!   one link that carried it.
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
