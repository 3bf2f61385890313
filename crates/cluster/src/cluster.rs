//! Cluster assembly: N kernels, N gateways, one link per pair of kernels,
//! one run loop.
//!
//! [`Cluster::new`] builds `kernels` kernel instances, each with its own
//! [`Gateway`], and joins every pair of gateways with one real socket
//! (`UnixStream::pair`, or path-bound sockets under the directory named
//! by `ASBESTOS_CLUSTER_SOCKET`): one link at two kernels, three at
//! three. Handle uniqueness holds *cluster-wide* (§5.1 "unique since
//! boot", here since cluster boot): kernel `k` of `N` takes cipher-lane
//! slot `k`, so shard `i` of kernel `k` draws handles from lane `k·S + i`
//! of `N·S` — no two kernels can ever mint the same handle, which is what
//! makes a serialized handle meaningful on arrival, and what lets every
//! kernel compute the kernel a handle belongs to from its value.
//!
//! [`Cluster::run`] is the federation scheduler: it alternates kernel
//! execution with gateway pumping until the whole system — every kernel
//! idle, every socket drained, every buffer flushed — is quiescent.
//! [`Cluster::single`] wraps one plain kernel as a cluster of one: no
//! links, and the same run loop. [`deploy_okws`] places OKWS across the
//! cluster: front end (netd, demux, launcher, idd, dbproxy) on kernel 0,
//! worker base processes round-robin across kernels 1..N, activation and
//! request traffic flowing through the gateways.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use asbestos_kernel::{Category, CostModel, Kernel, Stats};
use asbestos_okws::{Okws, OkwsConfig};

use crate::conn::{ConnStats, FrameConn};
use crate::gateway::Gateway;
use crate::switch::Switch;

/// One kernel plus its federation gateway.
pub struct ClusterNode {
    /// The kernel instance.
    pub kernel: Kernel,
    /// Its links to the other kernels.
    pub gateway: Gateway,
}

/// A federation of kernels, every pair joined by one link.
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
        let mut links: Vec<Vec<Option<FrameConn>>> = (0..kernels)
            .map(|_| (0..kernels).map(|_| None).collect())
            .collect();
        let pairs = (0..kernels).flat_map(|a| (a + 1..kernels).map(move |b| (a, b)));
        for (a, b) in pairs {
            let (a_end, b_end) = socket_pair().expect("cluster socket setup");
            links[a][b] = Some(FrameConn::new(a_end).expect("link socket"));
            links[b][a] = Some(FrameConn::new(b_end).expect("link socket"));
        }
        let cost = CostModel::default;
        let nodes = (links.into_iter().enumerate())
            .map(|(k, links)| ClusterNode {
                kernel: Kernel::with_cluster_slot(seed, cost(), shards, 0, k, kernels),
                gateway: Gateway::new(links),
            })
            .collect();
        Cluster {
            nodes,
            switch: Switch::default(),
        }
    }

    /// A cluster of one: `kernel` with a gateway that has no links.
    /// [`Cluster::run`] and [`Cluster::step`] then run exactly as the
    /// kernel's own loops do, and every wire counter stays zero.
    pub fn single(kernel: Kernel) -> Cluster {
        Cluster {
            nodes: vec![ClusterNode {
                kernel,
                gateway: Gateway::new(vec![None]),
            }],
            switch: Switch::default(),
        }
    }

    /// The `Forward` counter, read-only.
    pub fn switch(&self) -> &Switch {
        &self.switch
    }

    /// Runs the federation to quiescence: every kernel drained, every
    /// link's buffers empty. Returns total progress units (kernel steps +
    /// frames + bytes moved).
    ///
    /// Each spin runs every kernel, then [`Cluster::pump_wire`]. A
    /// gateway's `pump_out` reads only its own kernel, so draining all
    /// kernels before any egress writes the same bytes as interleaving
    /// them.
    pub fn run(&mut self) -> u64 {
        let mut total = 0u64;
        let mut spins = 0u32;
        loop {
            let mut progress = 0u64;
            for node in &mut self.nodes {
                progress += node.kernel.run();
            }
            progress += self.pump_wire();
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

    /// One pump round over every gateway, without running any kernel:
    /// egress drained onto the links, then inbound frames injected.
    /// Returns progress units (messages handled + bytes flushed). A bad
    /// frame or a failed socket closes one link, never the federation.
    pub fn pump_wire(&mut self) -> u64 {
        let mut progress = 0u64;
        for node in &mut self.nodes {
            progress += node.gateway.pump_out(&mut node.kernel);
            progress += node.gateway.flush();
        }
        self.switch.forwarded = self.nodes.iter().map(|n| n.gateway.forwarded_out).sum();
        for node in &mut self.nodes {
            progress += node.gateway.pump_in(&mut node.kernel);
            progress += node.gateway.flush();
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

    /// Summed wire traffic across every gateway's open links.
    pub fn wire_stats(&self) -> ConnStats {
        self.nodes.iter().map(|n| n.gateway.wire_stats()).sum()
    }
}

/// Deploys OKWS across the cluster: front end on kernel 0, worker base
/// processes round-robin across kernels `1..N` (all workers stay on
/// kernel 0 when the cluster has one member — identical to plain
/// [`Okws::start`], which places them there).
///
/// The deployment sequence is the single-kernel one stretched over the
/// wire: workers boot first, and `ServiceSpec::take_body` records the
/// port each one's base start published on its own kernel; then the
/// launcher on kernel 0 provisions verification handles and activates
/// each worker through a `Forward` sent straight to the kernel that
/// minted its port — the activation grant (`wv` at `⋆`) travels in the
/// `Forward`'s labels and takes effect at *delivery* on the worker's
/// kernel, so the §7.1 trust chain is preserved end to end.
pub fn deploy_okws(cluster: &mut Cluster, mut config: OkwsConfig) -> Okws {
    let kernels = cluster.nodes.len();
    if kernels > 1 {
        for (i, spec) in config.services.iter_mut().enumerate() {
            let kernel = &mut cluster.nodes[1 + (i % (kernels - 1))].kernel;
            spec.take_body(|name, body| {
                kernel.spawn_ep_service(name, Category::Okws, body);
                kernel
            });
        }
        // Replicate the workers' environment writes before the front end
        // boots.
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

/// Creates the socket pair for one link. With [`CLUSTER_SOCKET_ENV`] set
/// to a directory, the pair is a real path-bound `UnixListener`
/// accept/connect (two OS sockets with filesystem names, numbered so that
/// clusters built side by side in one process never share a path);
/// otherwise an anonymous `UnixStream::pair`. The wire traffic is
/// identical.
fn socket_pair() -> io::Result<(UnixStream, UnixStream)> {
    static LINKS: AtomicUsize = AtomicUsize::new(0);
    match std::env::var(CLUSTER_SOCKET_ENV) {
        Ok(dir) if !dir.trim().is_empty() => {
            let n = LINKS.fetch_add(1, Ordering::Relaxed);
            let path = Path::new(dir.trim())
                .join(format!("asbestos-link-{}-{n}.sock", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)?;
            let near = UnixStream::connect(&path)?;
            let (far, _) = listener.accept()?;
            let _ = std::fs::remove_file(&path);
            Ok((near, far))
        }
        _ => UnixStream::pair(),
    }
}
