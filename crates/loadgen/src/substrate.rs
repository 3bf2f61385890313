//! What a [`World`](crate::scenario::World) runs on: one kernel, or a
//! federation of them joined by sockets.
//!
//! The engine needs exactly this much of either — the kernel hosting
//! netd (requests enter and completions are polled there), a paced
//! step, a drain, the clocks and the wire counters — so a scenario is
//! written once and its kernel count is a deployment number.

use asbestos_cluster::Cluster;
use asbestos_kernel::Kernel;

/// One plain kernel (no sockets), or a cluster whose kernel 0 hosts the
/// front end.
pub(crate) enum Substrate {
    Kernel(Kernel),
    Cluster(Cluster),
}

impl Substrate {
    /// The kernel hosting netd.
    pub(crate) fn front(&self) -> &Kernel {
        match self {
            Substrate::Kernel(k) => k,
            Substrate::Cluster(c) => &c.nodes[0].kernel,
        }
    }

    /// The kernel hosting netd, mutably.
    pub(crate) fn front_mut(&mut self) -> &mut Kernel {
        match self {
            Substrate::Kernel(k) => k,
            Substrate::Cluster(c) => &mut c.nodes[0].kernel,
        }
    }

    /// Runs to quiescence: every kernel idle and, federated, every
    /// socket drained.
    pub(crate) fn run(&mut self) {
        match self {
            Substrate::Kernel(k) => k.run(),
            Substrate::Cluster(c) => c.run(),
        };
    }

    /// One scheduling quantum; `false` once nothing — kernels or wire —
    /// made progress.
    pub(crate) fn step(&mut self) -> bool {
        match self {
            Substrate::Kernel(k) => k.step(),
            Substrate::Cluster(c) => c.step() > 0,
        }
    }

    /// Virtual elapsed time: the busiest shard of the busiest kernel.
    pub(crate) fn elapsed_cycles(&self) -> u64 {
        match self {
            Substrate::Kernel(k) => k.elapsed_cycles(),
            Substrate::Cluster(c) => c.elapsed_cycles(),
        }
    }

    /// Every member kernel, in kernel order.
    fn kernels(&self) -> Vec<&Kernel> {
        match self {
            Substrate::Kernel(k) => vec![k],
            Substrate::Cluster(c) => c.nodes.iter().map(|n| &n.kernel).collect(),
        }
    }

    /// Per-shard clocks of every kernel, concatenated in kernel order —
    /// the deployment-wide balance signal.
    pub(crate) fn shard_cycles(&self) -> Vec<u64> {
        self.kernels()
            .into_iter()
            .flat_map(Kernel::per_shard_elapsed_cycles)
            .collect()
    }

    /// Highest queue-depth high-water mark across every shard.
    pub(crate) fn queue_depth_hwm(&self) -> u64 {
        self.kernels()
            .into_iter()
            .flat_map(Kernel::per_shard_queue_depth_hwm)
            .max()
            .unwrap_or(0)
    }

    /// `(frames, bytes, forwards)`: what every gateway put on the wire
    /// and the `Forward`s the gateways sent. One kernel has no wire.
    pub(crate) fn wire(&self) -> (u64, u64, u64) {
        match self {
            Substrate::Kernel(_) => (0, 0, 0),
            Substrate::Cluster(c) => {
                let wire = c.wire_stats();
                (wire.frames_out, wire.bytes_out, c.switch().forwarded)
            }
        }
    }
}
