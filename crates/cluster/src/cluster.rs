//! Cluster assembly: N kernels, N gateways, one switch, one run loop.
//!
//! [`Cluster::new`] builds `kernels` kernel instances, each with its own
//! [`Gateway`] connected to a shared [`Switch`] over a real socket
//! (`UnixStream::pair`, or path-bound sockets under the directory named
//! by `ASBESTOS_CLUSTER_SOCKET`). Handle uniqueness holds *cluster-wide*
//! (§5.1 "unique since boot", here since cluster boot): kernel `k` of
//! `N` takes cipher-lane slot `k`, so shard `i` of kernel `k` draws
//! handles from lane `k·S + i` of `N·S` — no two kernels can ever mint
//! the same handle, which is what makes a serialized handle meaningful
//! on arrival.
//!
//! [`Cluster::run`] is the federation scheduler: it alternates kernel
//! execution with gateway and switch pumping until the whole system —
//! every kernel idle, every socket drained, every buffer flushed — is
//! quiescent. [`deploy_okws`] places OKWS across the cluster: front end
//! (netd, demux, launcher, idd, dbproxy) on kernel 0, worker base
//! processes round-robin across kernels 1..N, activation and request
//! traffic flowing through the gateways.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;

use asbestos_kernel::{Category, CostModel, Kernel, Stats};
use asbestos_okws::{Okws, OkwsConfig};

use crate::conn::{ConnStats, FrameConn};
use crate::gateway::Gateway;
use crate::switch::Switch;

/// One kernel plus its federation gateway.
pub struct ClusterNode {
    /// The kernel instance.
    pub kernel: Kernel,
    /// Its connection to the switch.
    pub gateway: Gateway,
}

/// A federation of kernels behind one switch.
pub struct Cluster {
    /// The member kernels, indexed by kernel id.
    pub nodes: Vec<ClusterNode>,
    switch: Switch,
}

impl Cluster {
    /// Builds a cluster of `kernels` kernels with `shards` shards each,
    /// all deriving handles from `seed` in disjoint cipher lanes.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is zero or socket setup fails.
    pub fn new(seed: u64, kernels: usize, shards: usize) -> Cluster {
        assert!(kernels >= 1, "a cluster needs at least one kernel");
        assert!(kernels <= u16::MAX as usize, "kernel ids are u16");
        let mut nodes = Vec::with_capacity(kernels);
        let mut switch_conns = Vec::with_capacity(kernels);
        for k in 0..kernels {
            let (gw_end, sw_end) = socket_pair(k).expect("cluster socket setup");
            let kernel =
                Kernel::with_cluster_slot(seed, CostModel::default(), shards, 0, k, kernels);
            let gateway = Gateway::new(
                k as u16,
                kernels as u16,
                FrameConn::new(gw_end).expect("gateway socket"),
            );
            switch_conns.push(FrameConn::new(sw_end).expect("switch socket"));
            nodes.push(ClusterNode { kernel, gateway });
        }
        Cluster {
            nodes,
            switch: Switch::new(switch_conns),
        }
    }

    /// Number of member kernels.
    pub fn kernels(&self) -> usize {
        self.nodes.len()
    }

    /// The switch (directory + relay counters), read-only.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Runs the federation to quiescence: every kernel drained, every
    /// gateway and switch buffer empty. Returns total progress units
    /// (kernel steps + frames + bytes moved).
    pub fn run(&mut self) -> u64 {
        let mut total = 0u64;
        let mut spins = 0u32;
        loop {
            let mut progress = 0u64;
            for node in &mut self.nodes {
                progress += node.kernel.run();
                progress += node.gateway.pump_out(&mut node.kernel);
                progress += node.gateway.flush().expect("gateway wire") as u64;
            }
            progress += self.switch.pump().expect("switch wire");
            for node in &mut self.nodes {
                progress += node
                    .gateway
                    .pump_in(&mut node.kernel)
                    .expect("gateway wire");
                progress += node.gateway.flush().expect("gateway wire") as u64;
            }
            if progress == 0 {
                return total;
            }
            total += progress;
            spins += 1;
            assert!(spins < 10_000_000, "federation livelock");
        }
    }

    /// One scheduling quantum: every kernel executes at most one
    /// delivery step, then the wire is pumped once. Returns progress
    /// units — zero means the whole federation is quiescent. This is
    /// the paced-run primitive (the load generator advances virtual
    /// time step by step); [`Cluster::run`] is the drain-to-quiescence
    /// loop.
    pub fn step(&mut self) -> u64 {
        let mut progress = 0u64;
        for node in &mut self.nodes {
            progress += u64::from(node.kernel.step());
        }
        progress + self.pump_wire()
    }

    /// One pump round over every gateway and the switch, without
    /// running any kernel: egress drained onto the wire, the switch
    /// relays, inbound frames injected. Returns progress units (frames
    /// handled + bytes flushed).
    pub fn pump_wire(&mut self) -> u64 {
        let mut progress = 0u64;
        for node in &mut self.nodes {
            progress += node.gateway.pump_out(&mut node.kernel);
            progress += node.gateway.flush().expect("gateway wire") as u64;
        }
        progress += self.switch.pump().expect("switch wire");
        for node in &mut self.nodes {
            progress += node
                .gateway
                .pump_in(&mut node.kernel)
                .expect("gateway wire");
            progress += node.gateway.flush().expect("gateway wire") as u64;
        }
        progress
    }

    /// Merged message statistics across every kernel. For a workload
    /// whose drops are deterministic, this equals the single-kernel
    /// stats for the same workload: remote sends are counted once, on
    /// the destination kernel (the source's `send` neither counts
    /// `sent` nor observes the outcome — §4 across the wire).
    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for node in &self.nodes {
            total.absorb(&node.kernel.stats());
        }
        total
    }

    /// Virtual elapsed time of the federation: the *maximum* kernel
    /// clock, since member kernels run concurrently in real deployments.
    pub fn elapsed_cycles(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.kernel.elapsed_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Summed wire traffic across every gateway connection.
    pub fn wire_stats(&self) -> ConnStats {
        let mut total = ConnStats::default();
        for node in &self.nodes {
            let s = node.gateway.wire_stats();
            total.frames_in += s.frames_in;
            total.frames_out += s.frames_out;
            total.bytes_in += s.bytes_in;
            total.bytes_out += s.bytes_out;
        }
        total
    }
}

/// Deploys OKWS across the cluster: front end on kernel 0, worker base
/// processes round-robin across kernels `1..N` (all workers stay on
/// kernel 0 when the cluster has one member — identical to plain
/// [`Okws::start`]).
///
/// The deployment sequence is the single-kernel one stretched over the
/// wire: workers boot first and publish their ports into the global
/// environment (replicated by the gateways, which `Register` the port
/// handles ahead of the bindings that carry them); then the launcher on
/// kernel 0 provisions verification handles and activates each worker
/// through the port directory — the activation grant (`wv` at `⋆`)
/// travels in the `Forward`'s labels and takes effect at *delivery* on
/// the worker's kernel, so the §7.1 trust chain is preserved end to end.
pub fn deploy_okws(cluster: &mut Cluster, mut config: OkwsConfig) -> Okws {
    let kernels = cluster.nodes.len();
    if kernels > 1 {
        for (i, spec) in config.services.iter_mut().enumerate() {
            let body = spec.take_body();
            let node = 1 + (i % (kernels - 1));
            cluster.nodes[node].kernel.spawn_ep_service(
                &format!("worker-{}", spec.name),
                Category::Okws,
                body,
            );
        }
        // Workers publish their ports; gateways replicate the bindings
        // (and register the ports) before the launcher looks for them.
        cluster.run();
    }
    let okws = Okws::start(&mut cluster.nodes[0].kernel, config);
    // Settle the cross-kernel activation handshakes.
    cluster.run();
    okws
}

/// Directory for the federation's path-bound Unix sockets — a deployment
/// path, and the one environment variable library code reads.
const CLUSTER_SOCKET_ENV: &str = "ASBESTOS_CLUSTER_SOCKET";

/// Creates one kernel↔switch socket pair. With [`CLUSTER_SOCKET_ENV`]
/// set to a directory, the pair is a real path-bound `UnixListener`
/// accept/connect (two OS sockets with filesystem names); otherwise an
/// anonymous `UnixStream::pair`. The wire traffic is identical.
fn socket_pair(kernel: usize) -> io::Result<(UnixStream, UnixStream)> {
    match std::env::var(CLUSTER_SOCKET_ENV) {
        Ok(dir) if !dir.trim().is_empty() => {
            let path = Path::new(dir.trim()).join(format!(
                "asbestos-switch-{}-{kernel}.sock",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            let gw = UnixStream::connect(&path)?;
            let (sw, _) = listener.accept()?;
            let _ = std::fs::remove_file(&path);
            Ok((gw, sw))
        }
        _ => UnixStream::pair(),
    }
}
