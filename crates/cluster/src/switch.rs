//! The federation switch: the function that says where a `Forward` goes.
//!
//! The switch keeps no directory and no connection. A port's value names
//! the kernel whose cipher lanes minted it ([`Kernel::cluster_slot_of`]),
//! which holds its vnode, live or dead, so a `Forward` goes there and the
//! Figure 4 decision stays on the destination kernel. A handle no kernel
//! minted still has a home, which drops the message as a dead port would:
//! the sender learns nothing.
//!
//! Each gateway asks the cluster's one switch for every `Forward`'s home
//! and writes the frame on its own link to that kernel
//! ([`crate::gateway`]), so a frame crosses one socket and nothing
//! between two kernels reads it but the kernel it is for.

use asbestos_kernel::{Handle, Kernel};
use asbestos_labels::HandleCipher;

/// The cluster's routing function and its counter.
pub struct Switch {
    /// The federation's handle cipher, which finds a port's home (4 KiB
    /// of S-boxes, kept off the `Cluster`'s own footprint).
    cipher: Box<HandleCipher>,
    /// Shards per kernel.
    shards: usize,
    /// Kernels in the federation.
    kernels: usize,
    /// `Forward`s routed to their destination kernel.
    pub forwarded: u64,
}

impl Switch {
    /// The switch for the kernels `Kernel::with_cluster_slot(seed, _,
    /// shards, 0, k, kernels)`.
    pub fn new(seed: u64, shards: usize, kernels: usize) -> Switch {
        Switch {
            cipher: Box::new(HandleCipher::new(seed)),
            shards,
            kernels,
            forwarded: 0,
        }
    }

    /// Routes one `Forward` to `port`: returns the kernel that minted the
    /// port, which may be the sender itself.
    pub fn route(&mut self, port: Handle) -> usize {
        self.forwarded += 1;
        Kernel::cluster_slot_of(&self.cipher, port, self.shards, self.kernels)
    }
}
