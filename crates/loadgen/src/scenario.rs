//! The scenario harness: declarative workloads over a full OKWS deployment.
//!
//! A [`Scenario`] is a small struct with setup / drive / check hooks — the
//! congestion-control-harness idiom where the experiment says *what* the
//! workload is and the engine owns deployment, pacing, polling, and
//! teardown. [`run_scenario`] deploys the one- or many-kernel world the
//! scenario asks for, replays an open-loop arrival schedule against it (arrivals
//! never wait for completions — see [`crate::arrival`]), drains, and hands
//! the scenario a [`ScenarioReport`] to assert invariants over.
//!
//! The engine is deterministic end to end: the kernel's schedule is a
//! function of its seed and inputs, so two runs of
//! the same scenario produce byte-identical request logs — which is what
//! lets CI pin every count of a report exactly.

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_kernel::Kernel;
use asbestos_okws::logic::{EchoStore, ParamLength, Profile};
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};
use asbestos_store::{MemDev, Store};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrival::OpenLoopSchedule;
use crate::metrics::ScenarioReport;

/// Which worker services the deployment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceKind {
    /// The §9 session service (`store`): ~1 KiB echo state per user,
    /// logout support — the session-churn workhorse.
    Store,
    /// The DB-backed profile service (`profile`): labeled rows through
    /// ok-dbproxy, mixed read/write traffic.
    Profile,
    /// A pure-CPU service (`bench`): fixed worker cycles, no DB.
    Bench,
}

/// Deployment + workload shape for one scenario.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// User population size (accounts provisioned at deploy).
    pub users: usize,
    /// Services to deploy.
    pub services: Vec<ServiceKind>,
    /// Member kernels: 1 is a plain kernel (no sockets); more is a
    /// federation with the front end on kernel 0, workers round-robin on
    /// the rest, and every request crossing the wire.
    pub kernels: usize,
    /// Back the deployment with a durable store (enables [`World::reboot`]).
    pub durable: bool,
    /// Arrivals in the measured window.
    pub requests: usize,
    /// Open-loop arrival rate, requests per virtual second.
    pub rate_rps: f64,
    /// After draining, assert every non-aborted request completed with
    /// HTTP 200.
    pub require_all_ok: bool,
}

impl ScenarioConfig {
    /// A single-kernel store-only config with sane defaults:
    /// sub-capacity Poisson arrivals, all requests expected to succeed.
    pub fn new(users: usize, requests: usize) -> ScenarioConfig {
        ScenarioConfig {
            users,
            services: vec![ServiceKind::Store],
            kernels: 1,
            durable: false,
            requests,
            rate_rps: 800.0,
            require_all_ok: true,
        }
    }

    /// Federates the deployment over `kernels` member kernels.
    pub fn federated(mut self, kernels: usize) -> ScenarioConfig {
        self.kernels = kernels;
        self
    }

    /// Sets the arrival rate.
    pub fn rate(mut self, rate_rps: f64) -> ScenarioConfig {
        self.rate_rps = rate_rps;
        self
    }

    /// Adds a service to the deployment.
    pub fn with_service(mut self, kind: ServiceKind) -> ScenarioConfig {
        if !self.services.contains(&kind) {
            self.services.push(kind);
        }
        self
    }

    /// Backs the deployment with a durable store.
    pub fn durable(mut self) -> ScenarioConfig {
        self.durable = true;
        self
    }

    /// Allows requests to end the run unfinished or non-200 (overflow and
    /// disconnect scenarios).
    pub fn allow_failures(mut self) -> ScenarioConfig {
        self.require_all_ok = false;
        self
    }
}

/// One workload action, produced per arrival slot.
#[derive(Clone, Debug)]
pub enum Op {
    /// Issue an HTTP request as user rank `user`.
    Request {
        /// Service name (`store` / `profile` / `bench`).
        service: &'static str,
        /// User rank (account `u{rank}` / password `p{rank}`).
        user: usize,
        /// Extra query parameters.
        extra: Vec<(String, String)>,
    },
    /// Kill `user`'s most recent in-flight request mid-stream (the
    /// user-closed-the-tab disconnect; never shed-retried).
    Abort {
        /// User rank whose request to kill.
        user: usize,
    },
    /// Skip this arrival slot.
    Idle,
}

impl Op {
    /// Convenience constructor for a request op.
    pub fn request(service: &'static str, user: usize, extra: &[(&str, &str)]) -> Op {
        Op::Request {
            service,
            user,
            extra: extra
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }
}

/// One issued request in the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Issued {
    /// Arrival sequence number.
    pub seq: usize,
    /// Driver request index.
    pub idx: usize,
    /// Issuing user rank.
    pub user: usize,
}

/// A deployed OKWS world a scenario runs against: a cluster whose kernel
/// 0 hosts the front end — a cluster of one for a plain kernel.
pub struct World {
    cluster: Cluster,
    /// The running deployment (front-end handles live on the front kernel).
    pub okws: Okws,
    /// The HTTP client, attached to the front kernel's netd.
    pub client: OkwsClient,
    /// The scenario's config (owned so hooks can consult it).
    pub cfg: ScenarioConfig,
    /// Requests issued in the measured window, in arrival order.
    pub issued: Vec<Issued>,
    /// The durable device, when `cfg.durable`.
    pub dev: Option<MemDev>,
    /// The deployment seed.
    pub seed: u64,
    base_cycles: u64,
}

impl World {
    /// Builds the kernel — or, at `cfg.kernels > 1`, the cluster — and
    /// deploys OKWS per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics on a federated config that is durable (a cluster cannot
    /// reboot).
    pub fn deploy(cfg: ScenarioConfig, seed: u64) -> World {
        let dev = cfg.durable.then(MemDev::new);
        let config = World::okws_config(&cfg, dev.as_ref(), true);
        let (cluster, okws) = if cfg.kernels == 1 {
            let (kernel, okws) = Okws::deploy(seed, config);
            (Cluster::single(kernel), okws)
        } else {
            assert!(
                !cfg.durable,
                "federated worlds are volatile: a cluster has no reboot"
            );
            let mut cluster = Cluster::new(seed, cfg.kernels, 1);
            let okws = deploy_okws(&mut cluster, config);
            (cluster, okws)
        };
        let client = OkwsClient::new(&okws);
        World {
            cluster,
            okws,
            client,
            cfg,
            issued: Vec::new(),
            dev,
            seed,
            base_cycles: 0,
        }
    }

    /// The kernel hosting netd: the only kernel of a plain world, kernel
    /// 0 of a federated one.
    pub fn kernel(&self) -> &Kernel {
        &self.cluster.nodes[0].kernel
    }

    /// [`World::kernel`], mutably (tuning knobs, probes).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.cluster.nodes[0].kernel
    }

    fn okws_config(cfg: &ScenarioConfig, dev: Option<&MemDev>, with_users: bool) -> OkwsConfig {
        let mut config = OkwsConfig::new(80);
        if let Some(dev) = dev {
            config = config.durable(Box::new(dev.clone()));
        }
        for kind in &cfg.services {
            match kind {
                ServiceKind::Store => config
                    .services
                    .push(ServiceSpec::new("store", || Box::new(EchoStore::new()))),
                ServiceKind::Profile => {
                    config
                        .services
                        .push(ServiceSpec::new("profile", || Box::new(Profile)));
                    config.worker_tables.push(Profile::TABLE_DDL.to_string());
                }
                ServiceKind::Bench => config
                    .services
                    .push(ServiceSpec::new("bench", || Box::new(ParamLength))),
            }
        }
        if with_users {
            for u in 0..cfg.users {
                config.users.push((format!("u{u}"), format!("p{u}")));
            }
        }
        config
    }

    /// Shuts the deployment down cleanly and boots the next epoch from
    /// the durable device — the login-storm trigger. Accounts are *not*
    /// re-provisioned: credentials must come back from the store.
    ///
    /// # Panics
    ///
    /// Panics on a volatile world (nothing to reboot from).
    pub fn reboot(&mut self) {
        let dev = self
            .dev
            .clone()
            .expect("reboot needs a durable world (ScenarioConfig::durable)");
        // Clean shutdown of the old boot (Okws::shutdown inlined — the
        // handle stays in place and is replaced below).
        let old = self.kernel_mut();
        old.run();
        old.teardown();

        let epoch = Store::peek_epoch(&dev) + 1;
        let (kernel, okws) = Okws::reboot(
            self.seed.wrapping_add(epoch),
            World::okws_config(&self.cfg, Some(&dev), false),
        );
        self.client = OkwsClient::new(&okws);
        self.okws = okws;
        self.cluster = Cluster::single(kernel);
        self.issued.clear();
    }

    /// Marks the start of the measured window: drains startup work,
    /// clears the request log, and snapshots the clock arrivals are paced
    /// by.
    pub fn begin_measurement(&mut self) {
        self.cluster.run();
        self.poll();
        self.client.driver.reset_log();
        self.issued.clear();
        self.base_cycles = self.cluster.elapsed_cycles();
    }

    /// Steps the world until the busiest kernel's clock reaches `due`
    /// cycles past the window start, or everything — kernels and wire —
    /// goes idle (virtual time stops when there is no work — the
    /// schedule compresses; see [`crate::arrival`]).
    pub fn advance_to(&mut self, due: u64) {
        let target = self.base_cycles + due;
        while self.cluster.elapsed_cycles() < target && self.cluster.step() > 0 {}
    }

    /// Issues a request as user rank `user` and records it under `seq`.
    pub fn request(
        &mut self,
        service: &str,
        user: usize,
        extra: &[(&str, &str)],
        seq: usize,
    ) -> usize {
        let uname = format!("u{user}");
        let pw = format!("p{user}");
        let kernel = &mut self.cluster.nodes[0].kernel;
        let idx = self.client.request(kernel, service, &uname, &pw, extra);
        self.issued.push(Issued { seq, idx, user });
        idx
    }

    /// Issues a request as user rank `user` and runs the world until it
    /// completes (setup/probe traffic — not recorded in the window log).
    pub fn request_sync(
        &mut self,
        service: &str,
        user: usize,
        extra: &[(&str, &str)],
    ) -> (u16, Vec<u8>) {
        let uname = format!("u{user}");
        let pw = format!("p{user}");
        self.request_sync_as(service, &uname, &pw, extra)
            .unwrap_or_else(|| panic!("sync request to {service} as {uname} got no response"))
    }

    /// [`World::request_sync`] with explicit credentials (wrong-password
    /// probes); `None` if no well-formed response arrived.
    pub(crate) fn request_sync_as(
        &mut self,
        service: &str,
        uname: &str,
        pw: &str,
        extra: &[(&str, &str)],
    ) -> Option<(u16, Vec<u8>)> {
        let kernel = &mut self.cluster.nodes[0].kernel;
        let idx = self.client.request(kernel, service, uname, pw, extra);
        self.cluster.run();
        self.poll();
        self.client.parse_response(idx)
    }

    /// Kills `user`'s most recent in-flight request mid-stream. Returns
    /// whether one existed.
    pub fn abort_user(&mut self, user: usize) -> bool {
        for issued in self.issued.iter().rev() {
            if issued.user != user {
                continue;
            }
            let req = self.client.driver.request(issued.idx);
            if req.finished_at.is_none() && !req.aborted {
                self.client.driver.abort(issued.idx);
                return true;
            }
        }
        false
    }

    /// Runs the world to quiescence: repeatedly drains the kernel, polls
    /// for completions, and retries shed requests. Stops when everything
    /// completed or aborted, or when no forward progress is possible —
    /// requests dropped at a full port queue never complete, and a run
    /// must survive that rather than fail. Aborted connections are
    /// reaped at the end.
    pub fn drain(&mut self) {
        for _ in 0..128 {
            self.cluster.run();
            self.poll();
            let settled = self.client.driver.completed() + self.client.driver.aborted();
            if settled == self.client.driver.requests().len() {
                break;
            }
            let front = &mut self.cluster.nodes[0].kernel;
            if self.client.driver.retry_shed(front) == 0 {
                break;
            }
        }
        self.client.driver.reap_aborted();
    }

    /// Collects the responses that arrived since the last poll.
    pub fn poll(&mut self) {
        self.client.driver.poll(&self.cluster.nodes[0].kernel);
    }

    /// Parses the response of window request `idx` as `(status, body)`.
    pub fn response(&self, idx: usize) -> Option<(u16, Vec<u8>)> {
        self.client.parse_response(idx)
    }

    /// Every handle idd holds at `⋆` this boot (§5.1 disjointness probe).
    pub fn idd_star_handles(&self) -> Vec<u64> {
        Okws::idd_star_handles(self.kernel())
    }

    /// Builds the report for the measured window. The request counts are
    /// the window's; the kernel and wire counters run from deploy.
    pub fn report(&self, scenario: &str) -> ScenarioReport {
        let driver = &self.client.driver;
        let stats = self.cluster.stats();
        let wire = self.cluster.wire_stats();
        ScenarioReport {
            scenario: scenario.to_string(),
            kernels: self.cfg.kernels,
            users: self.cfg.users,
            issued: self.issued.len(),
            completed: driver.completed(),
            aborted: driver.aborted(),
            outstanding: driver.outstanding(),
            retries: driver.total_retries(),
            retried: driver.retried(),
            delivered: stats.delivered,
            dropped: stats.dropped_total(),
            queue_depth_hwm: stats.queue_depth_hwm,
            wire_frames: wire.frames_out,
            wire_bytes: wire.bytes_out,
            forwarded: self.cluster.switch().forwarded,
        }
    }

    /// Asserts every non-aborted window request completed with HTTP 200.
    pub fn assert_all_ok(&self) {
        for issued in &self.issued {
            let req = self.client.driver.request(issued.idx);
            if req.aborted {
                continue;
            }
            let (status, _) = self.response(issued.idx).unwrap_or_else(|| {
                panic!(
                    "request seq {} (user u{}) never completed",
                    issued.seq, issued.user
                )
            });
            assert_eq!(
                status, 200,
                "request seq {} (user u{}) answered {status}",
                issued.seq, issued.user
            );
        }
    }
}

/// A declarative workload: the engine owns deployment, pacing, polling,
/// and draining; the scenario supplies the hooks.
pub trait Scenario {
    /// Scenario name (report + JSON row key).
    fn name(&self) -> String;

    /// Deployment and workload shape.
    fn config(&self) -> ScenarioConfig;

    /// Runs once after deployment, before the measured window opens
    /// (build sessions, snapshot handles, trigger reboots, tune knobs).
    fn setup(&mut self, _world: &mut World) {}

    /// Runs just before arrival `seq` is due — phase transitions and
    /// barriers live here.
    fn before_arrival(&mut self, _world: &mut World, _seq: usize) {}

    /// Produces the op for arrival slot `seq`. `rng` is the engine's
    /// seeded workload RNG: same seed, same op sequence.
    fn op(&mut self, seq: usize, rng: &mut StdRng) -> Op;

    /// Asserts scenario invariants over the drained world and report.
    fn check(&mut self, _world: &mut World, _report: &ScenarioReport) {}
}

/// How often the engine interleaves completion polling and shed retries
/// with arrivals (every N arrivals — keeps per-arrival overhead low while
/// bounding how long a shed connection waits for its retry).
const POLL_EVERY: usize = 16;

/// Deploys, drives, drains, reports: the whole scenario lifecycle.
pub fn run_scenario(scenario: &mut dyn Scenario, seed: u64) -> ScenarioReport {
    let cfg = scenario.config();
    let schedule =
        OpenLoopSchedule::poisson(cfg.requests, cfg.rate_rps, seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = World::deploy(cfg, seed);
    scenario.setup(&mut world);
    world.begin_measurement();

    for seq in 0..world.cfg.requests {
        scenario.before_arrival(&mut world, seq);
        world.advance_to(schedule.due()[seq]);
        match scenario.op(seq, &mut rng) {
            Op::Request {
                service,
                user,
                extra,
            } => {
                let extra_refs: Vec<(&str, &str)> = extra
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.as_str()))
                    .collect();
                world.request(service, user, &extra_refs, seq);
            }
            Op::Abort { user } => {
                world.abort_user(user);
            }
            Op::Idle => {}
        }
        if seq % POLL_EVERY == POLL_EVERY - 1 {
            world.poll();
            world
                .client
                .driver
                .retry_shed(&mut world.cluster.nodes[0].kernel);
        }
    }

    world.drain();
    let report = world.report(&scenario.name());
    if world.cfg.require_all_ok {
        world.assert_all_ok();
    }
    scenario.check(&mut world, &report);
    report
}
