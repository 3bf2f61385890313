//! One deployed OKWS — a single kernel or a two-kernel cluster — driven
//! through public APIs only, plus the god-mode counters read around the
//! measured window.

use std::sync::Arc;

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_db::DbProxy;
use asbestos_kernel::{CostModel, Kernel, Label, ProcessId, Stats};
use asbestos_okws::logic::{EchoStore, ParamLength, Profile};
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use asbestos_store::{MemDev, Store};

use crate::trace::Tracer;
use crate::workload::{Request, Service, Spec};

enum Engine {
    Single(Box<Kernel>),
    Fed(Cluster),
}

pub struct World {
    engine: Engine,
    okws: Okws,
    client: OkwsClient,
    /// The durable device under ok-dbproxy, when the workload has one.
    pub dev: Option<MemDev>,
    service: Service,
}

/// Monotone counters; the window's figures are `end - start`.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    pub stats: Stats,
    /// Simulated cycles summed over every shard of every kernel (work).
    pub work_cycles: u64,
    /// Simulated elapsed cycles: the busiest shard of the busiest kernel.
    pub elapsed_cycles: u64,
    /// Host nanoseconds each shard spent draining, in kernel-then-shard order.
    pub shard_busy_ns: Vec<u64>,
    pub tuner_actions: u64,
    pub label_clones: u64,
    pub lane_accepts: Vec<u64>,
    pub syncs: u64,
    pub wire_frames: u64,
    pub wire_bytes: u64,
    pub forwards: u64,
}

/// Point-in-time readings taken once, at the end of the window.
#[derive(Clone, Debug, Default)]
pub struct Gauges {
    pub cache_len: usize,
    pub cache_cap: usize,
    pub kmem_pages: usize,
    pub sessions_live: usize,
    /// Entry counts of every live process and session label.
    pub label_entries: Vec<usize>,
    /// The largest send and receive label seen (probe inputs).
    pub big_send: Option<Arc<Label>>,
    pub big_recv: Option<Arc<Label>>,
    pub db_snapshot: Option<Vec<u8>>,
}

/// Splits a raw HTTP/1.0 response into status and body without copying.
pub fn split_response(raw: &[u8]) -> Option<(u16, &[u8])> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&raw[..head_end]).ok()?;
    let status = head.split(' ').nth(1)?.parse().ok()?;
    Some((status, &raw[head_end..]))
}

impl World {
    /// Deploys the workload's OKWS with default settings: nothing is set
    /// but shards × lanes, the worker budget, and the services and
    /// accounts the workload needs.
    pub fn deploy(spec: &Spec, seed: u64, workers: usize) -> World {
        let dev = spec.durable.then(MemDev::new);
        let mut config = OkwsConfig::new(80).sharded(spec.shards).lanes(spec.lanes);
        if let Some(dev) = &dev {
            config = config.durable(Box::new(dev.clone()));
        }
        config.services.push(match spec.service {
            Service::Bench => ServiceSpec::new("bench", || Box::new(ParamLength)),
            Service::Store => ServiceSpec::new("store", || Box::new(EchoStore::new())),
            Service::Profile => {
                config.worker_tables.push(Profile::TABLE_DDL.to_string());
                ServiceSpec::new("profile", || Box::new(Profile))
            }
        });
        for u in 0..spec.users {
            config.users.push((format!("u{u}"), format!("p{u}")));
        }
        let (engine, okws) = if spec.kernels == 1 {
            let epoch = dev.as_ref().map_or(0, |d| Store::peek_epoch(d) + 1);
            let mut kernel =
                Kernel::with_boot_epoch(seed, CostModel::default(), spec.shards, epoch);
            kernel.set_worker_threads(workers);
            let okws = Okws::start(&mut kernel, config);
            (Engine::Single(Box::new(kernel)), okws)
        } else {
            assert!(dev.is_none(), "federated deployments are volatile");
            let mut cluster = Cluster::new(seed, spec.kernels, spec.shards);
            for node in &mut cluster.nodes {
                node.kernel.set_worker_threads(workers);
            }
            let okws = deploy_okws(&mut cluster, config);
            (Engine::Fed(cluster), okws)
        };
        let client = OkwsClient::new(&okws);
        World {
            engine,
            okws,
            client,
            dev,
            service: spec.service,
        }
    }

    fn kernels(&self) -> Vec<&Kernel> {
        match &self.engine {
            Engine::Single(k) => vec![k],
            Engine::Fed(c) => c.nodes.iter().map(|n| &n.kernel).collect(),
        }
    }

    /// Opens one connection carrying `req`; returns the driver's index.
    pub fn request(&mut self, req: &Request) -> usize {
        let params = req.params();
        let extra: Vec<(&str, &str)> = params.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let kernel = match &mut self.engine {
            Engine::Single(k) => &mut **k,
            Engine::Fed(c) => &mut c.nodes[0].kernel,
        };
        self.client.request(
            kernel,
            self.service.name(),
            &req.user_name(),
            &req.password(),
            &extra,
        )
    }

    /// Runs the deployment to quiescence with the production scheduler.
    ///
    /// A traced cluster replaces `Cluster::run` by the equivalent public
    /// loop so kernel time and wire time land in separate spans: kernels
    /// only interact through the wire, so running every kernel and then
    /// pumping once visits the same states `Cluster::run` does.
    pub fn run(&mut self, tracer: &mut Tracer) {
        match &mut self.engine {
            Engine::Single(kernel) => {
                kernel.run();
            }
            Engine::Fed(cluster) if !tracer.enabled() => {
                cluster.run();
            }
            Engine::Fed(cluster) => loop {
                let mut progress = 0;
                for (k, node) in cluster.nodes.iter_mut().enumerate() {
                    tracer.enter(if k == 0 { "kernel0.run" } else { "kernelN.run" });
                    progress += node.kernel.run();
                    tracer.exit();
                }
                tracer.enter("pump_wire");
                progress += cluster.pump_wire();
                tracer.exit();
                if progress == 0 {
                    break;
                }
            },
        }
    }

    pub fn poll(&mut self) {
        let kernel: &Kernel = match &self.engine {
            Engine::Single(k) => k,
            Engine::Fed(c) => &c.nodes[0].kernel,
        };
        self.client.driver.poll(kernel);
    }

    /// Raw request and response bytes of driver request `idx`; the
    /// response is `None` until the server closed the connection.
    pub fn exchange(&self, idx: usize) -> (&[u8], Option<&[u8]>) {
        let r = self.client.driver.request(idx);
        let response = r.finished_at.map(|_| r.response.as_slice());
        (&r.request_bytes, response)
    }

    /// Forgets completed requests so the driver's log stays one round long.
    pub fn reset_log(&mut self) {
        self.client.driver.reset_log();
    }

    pub fn counters(&self) -> Counters {
        let kernels = self.kernels();
        let mut stats = Stats::default();
        for k in &kernels {
            stats.absorb(&k.stats());
        }
        let (wire_frames, wire_bytes, forwards) = match &self.engine {
            Engine::Single(_) => (0, 0, 0),
            Engine::Fed(c) => {
                let w = c.wire_stats();
                (w.frames_out, w.bytes_out, c.switch().forwarded)
            }
        };
        Counters {
            stats,
            work_cycles: kernels.iter().map(|k| k.now()).sum(),
            elapsed_cycles: kernels
                .iter()
                .map(|k| k.elapsed_cycles())
                .max()
                .unwrap_or(0),
            shard_busy_ns: kernels
                .iter()
                .flat_map(|k| (0..k.num_shards()).map(|i| k.shard(i).busy_nanos()))
                .collect(),
            tuner_actions: kernels.iter().map(|k| k.tuner_actions()).sum(),
            label_clones: Label::clone_count(),
            lane_accepts: self.client.driver.lane_accepts().to_vec(),
            syncs: self.dev.as_ref().map_or(0, MemDev::sync_count),
            wire_frames,
            wire_bytes,
            forwards,
        }
    }

    pub fn gauges(&self) -> Gauges {
        let kernels = self.kernels();
        let mut g = Gauges::default();
        let worker_name = format!("worker-{}", self.service.name());
        let mut labels: Vec<(Arc<Label>, Arc<Label>)> = Vec::new();
        for k in &kernels {
            g.cache_len += k.delivery_cache_len();
            g.cache_cap += (0..k.num_shards())
                .map(|i| k.shard(i).delivery_cache_capacity())
                .sum::<usize>();
            g.kmem_pages += k.kmem_report().total_pages();
            let mut pids: Vec<ProcessId> = ["launcher", "idd", "ok-dbproxy", "ok-demux"]
                .iter()
                .filter_map(|name| k.find_process(name))
                .collect();
            if let Some(worker) = k.find_process(&worker_name) {
                pids.push(worker);
                for ep in k.live_eps(worker) {
                    let ep = k.event_process(ep);
                    if ep.alive {
                        g.sessions_live += 1;
                        labels.push((ep.send_label.clone(), ep.recv_label.clone()));
                    }
                }
            }
            for pid in pids {
                let p = k.process(pid);
                labels.push((p.send_label.clone(), p.recv_label.clone()));
            }
            if let Some(proxy) = k
                .find_process("ok-dbproxy")
                .and_then(|pid| k.service_as::<DbProxy>(pid))
            {
                g.db_snapshot = Some(proxy.snapshot());
            }
        }
        // netd lanes all live on the front-end kernel.
        for lane in &self.okws.netd.lanes {
            let p = kernels[0].process(lane.pid);
            labels.push((p.send_label.clone(), p.recv_label.clone()));
        }
        for (send, recv) in &labels {
            g.label_entries.push(send.entry_count());
            g.label_entries.push(recv.entry_count());
        }
        g.label_entries.sort_unstable();
        g.big_send = labels
            .iter()
            .map(|l| &l.0)
            .max_by_key(|l| l.entry_count())
            .cloned();
        g.big_recv = labels
            .iter()
            .map(|l| &l.1)
            .max_by_key(|l| l.entry_count())
            .cloned();
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_status_and_body() {
        let raw = b"HTTP/1.0 200 OK\r\nContent-Length: 3\r\n\r\nxyz";
        assert_eq!(split_response(raw), Some((200, &b"xyz"[..])));
        let empty = b"HTTP/1.0 403 Forbidden\r\n\r\n";
        assert_eq!(split_response(empty), Some((403, &b""[..])));
        assert_eq!(split_response(b"HTTP/1.0 200 OK\r\n"), None);
        assert_eq!(split_response(b""), None);
    }
}
