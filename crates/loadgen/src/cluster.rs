//! Federated scenario runs: the open-loop engine stretched over a
//! [`Cluster`].
//!
//! [`ClusterWorld`] is [`World`](crate::scenario::World)'s shape over a
//! multi-kernel federation: the front end (netd lanes, demux, launcher)
//! lives on kernel 0, worker base processes on kernels `1..N`, and every
//! request/response crosses the switch as serialized `Forward` frames
//! with its labels in wire form. The arrival schedule, the pacing, the
//! polling cadence, and the latency accounting are the single-kernel
//! engine's, byte for byte — which is what makes the federated baseline
//! comparable against the plain one (and, at one kernel, *identical* to
//! it: slot 0 of 1 is bit-for-bit the ordinary kernel constructor).
//!
//! [`run_federated`] drives any scenario whose hooks beyond
//! [`Scenario::op`] are world-independent (the stock
//! [`Baseline`](crate::scenarios::Baseline) qualifies); scenarios that
//! tune or inspect the single-kernel world in `setup`/`check` stay on
//! [`run_scenario`](crate::scenario::run_scenario). The kernel count
//! comes from the caller — or from the `ASBESTOS_KERNELS` knob via
//! [`kernels_from_env`], which is how the CI matrix exercises the
//! federated paths without a separate test binary.

use asbestos_cluster::{deploy_okws, Cluster};
use asbestos_kernel::knobs;
use asbestos_okws::{Okws, OkwsClient};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::arrival::OpenLoopSchedule;
use crate::metrics::ScenarioReport;
use crate::scenario::{Issued, Op, Scenario, ScenarioConfig, World, POLL_EVERY};

/// Kernel count for federated runs per the `ASBESTOS_KERNELS` knob;
/// unset (or unparsable, or zero) means a single kernel.
pub fn kernels_from_env() -> usize {
    knobs::positive(knobs::KERNELS_ENV).unwrap_or(1)
}

/// A deployed OKWS federation a scenario runs against: [`World`]'s
/// surface over a [`Cluster`].
pub struct ClusterWorld {
    /// The federation under test (kernel 0 hosts the front end).
    pub cluster: Cluster,
    /// The running deployment (front-end handles live on kernel 0).
    pub okws: Okws,
    /// The HTTP client, attached to kernel 0's netd lanes.
    pub client: OkwsClient,
    /// The scenario's config (owned so hooks can consult it).
    pub cfg: ScenarioConfig,
    /// Requests issued in the measured window, in arrival order.
    pub issued: Vec<Issued>,
    /// The deployment seed.
    pub seed: u64,
    base_cycles: u64,
    base_shard_cycles: Vec<u64>,
}

impl ClusterWorld {
    /// Builds a `kernels`-member cluster and deploys OKWS across it per
    /// `cfg`: front end on kernel 0, workers round-robin on the rest.
    ///
    /// # Panics
    ///
    /// Panics on a durable config — federated worlds are volatile
    /// (reboot recovery stays a single-kernel concern).
    pub fn deploy(cfg: ScenarioConfig, kernels: usize, seed: u64) -> ClusterWorld {
        assert!(
            !cfg.durable,
            "federated worlds are volatile (no reboot support)"
        );
        let mut cluster = Cluster::new(seed, kernels, cfg.shards);
        let okws = deploy_okws(&mut cluster, World::okws_config(&cfg, None, true));
        let client = OkwsClient::new(&okws);
        let base_shard_cycles = vec![0; kernels * cfg.shards];
        ClusterWorld {
            cluster,
            okws,
            client,
            cfg,
            issued: Vec::new(),
            seed,
            base_cycles: 0,
            base_shard_cycles,
        }
    }

    /// Per-shard clocks of every kernel, concatenated in kernel order —
    /// the federation-wide balance signal.
    fn shard_cycles(&self) -> Vec<u64> {
        self.cluster
            .nodes
            .iter()
            .flat_map(|n| n.kernel.per_shard_elapsed_cycles())
            .collect()
    }

    /// Marks the start of the measured window: settles the federation,
    /// clears the request log, and snapshots every kernel's shard clocks.
    pub fn begin_measurement(&mut self) {
        self.cluster.run();
        self.client.driver.poll(&self.cluster.nodes[0].kernel);
        self.client.driver.reset_log();
        self.issued.clear();
        self.base_cycles = self.cluster.elapsed_cycles();
        self.base_shard_cycles = self.shard_cycles();
    }

    /// Steps the federation until its clock (the busiest kernel's
    /// busiest shard) reaches `due` cycles past the window start, or the
    /// whole cluster — kernels *and* wire — goes quiescent.
    pub fn advance_to(&mut self, due: u64) {
        let target = self.base_cycles + due;
        while self.cluster.elapsed_cycles() < target && self.cluster.step() > 0 {}
    }

    /// Issues a request as user rank `user` (on kernel 0's front end)
    /// and records it under `seq`.
    pub fn request(
        &mut self,
        service: &str,
        user: usize,
        extra: &[(&str, &str)],
        seq: usize,
    ) -> usize {
        let uname = format!("u{user}");
        let pw = format!("p{user}");
        let idx = self.client.request(
            &mut self.cluster.nodes[0].kernel,
            service,
            &uname,
            &pw,
            extra,
        );
        self.issued.push(Issued { seq, idx, user });
        idx
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

    /// Runs the federation to quiescence, polling every lane and
    /// retrying shed requests, until everything completed or aborted or
    /// no forward progress is possible.
    pub fn drain(&mut self) {
        for _ in 0..128 {
            self.cluster.run();
            self.poll_lanes();
            let settled = self.client.driver.completed() + self.client.driver.aborted();
            if settled == self.client.driver.requests().len() {
                break;
            }
            if self
                .client
                .driver
                .retry_shed(&mut self.cluster.nodes[0].kernel)
                == 0
            {
                break;
            }
        }
        self.client.driver.reap_aborted();
    }

    /// Polls each netd lane's completions in turn (all lanes live on
    /// kernel 0).
    pub fn poll_lanes(&mut self) {
        for lane in 0..self.client.driver.lanes() {
            self.client
                .driver
                .poll_lane(&self.cluster.nodes[0].kernel, lane);
        }
    }

    /// Parses the response of window request `idx` as `(status, body)`.
    pub fn response(&self, idx: usize) -> Option<(u16, Vec<u8>)> {
        self.client.parse_response(idx)
    }

    /// Builds the report for the measured window. `shards` stays the
    /// per-kernel count (the deployment knob); the per-shard balance
    /// series spans every kernel's shards, so `shard_imbalance` is
    /// federation-wide.
    pub fn report(&self, scenario: &str) -> ScenarioReport {
        let driver = &self.client.driver;
        let shard_now = self.shard_cycles();
        let shard_cycles: Vec<u64> = shard_now
            .iter()
            .zip(&self.base_shard_cycles)
            .map(|(now, base)| now.saturating_sub(*base))
            .collect();
        ScenarioReport::from_window(
            scenario,
            self.cfg.shards,
            self.cfg.lanes,
            self.cfg.users,
            self.issued.len(),
            driver.completed(),
            driver.aborted(),
            driver.outstanding(),
            driver.total_retries(),
            self.cluster.elapsed_cycles() - self.base_cycles,
            &driver.latencies_us(),
            &driver.retried_latencies_us(),
            &shard_cycles,
            self.cluster
                .nodes
                .iter()
                .flat_map(|n| n.kernel.per_shard_queue_depth_hwm())
                .max()
                .unwrap_or(0),
        )
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

/// A federated run's results: the scenario report plus what the wire saw.
#[derive(Clone, Debug)]
pub struct FederatedReport {
    /// The measured window, same accounting as the single-kernel engine.
    pub report: ScenarioReport,
    /// Member kernels in the federation.
    pub kernels: usize,
    /// Frames every gateway put on the wire.
    pub wire_frames: u64,
    /// Bytes every gateway put on the wire.
    pub wire_bytes: u64,
    /// `Forward`s the switch relayed between kernels.
    pub forwarded: u64,
}

/// Deploys, drives, drains, reports — [`run_scenario`] over a cluster.
///
/// Only the world-independent hooks run: `config()` shapes the
/// deployment and `op()` produces each arrival; `setup`/`before_arrival`
/// /`quiesce`/`check` take the single-kernel [`World`] and are skipped.
///
/// [`run_scenario`]: crate::scenario::run_scenario
pub fn run_federated(scenario: &mut dyn Scenario, kernels: usize, seed: u64) -> FederatedReport {
    let cfg = scenario.config();
    let schedule =
        OpenLoopSchedule::poisson(cfg.requests, cfg.rate_rps, seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = ClusterWorld::deploy(cfg, kernels, seed);
    world.begin_measurement();

    for seq in 0..world.cfg.requests {
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
            world.poll_lanes();
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
    let wire = world.cluster.wire_stats();
    FederatedReport {
        report,
        kernels,
        wire_frames: wire.frames_out,
        wire_bytes: wire.bytes_out,
        forwarded: world.cluster.switch().forwarded,
    }
}
