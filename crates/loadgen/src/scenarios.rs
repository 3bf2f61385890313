//! The stock scenarios the latency bench and the stress tests run.
//!
//! Each is a small struct implementing [`Scenario`]: the deployment shape
//! lives in `config()`, the workload in `op()`, and the invariants in
//! `check()`. Four of them feed `BENCH_latency.json` (baseline, Zipf
//! churn, login storm, sustained flood); the lane-overflow scenario is a
//! stress test, not a latency row — its interesting output is surviving,
//! not a percentile.

use asbestos_kernel::DEFAULT_PORT_QUEUE_LIMIT;
use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::ScenarioReport;
use crate::scenario::{Op, Scenario, ScenarioConfig, ServiceKind, World};
use crate::zipf::ZipfSampler;

// ---------------------------------------------------------------------
// Baseline: uniform sub-capacity traffic.
// ---------------------------------------------------------------------

/// Round-robin store traffic at a sub-capacity rate: the latency floor
/// every other scenario is read against, and the series the CI gate pins.
pub struct Baseline {
    /// User population.
    pub users: usize,
    /// Arrivals in the window.
    pub requests: usize,
    /// Member kernels (1 = un-federated).
    pub kernels: usize,
    /// Kernel shards.
    pub shards: usize,
    /// netd lanes.
    pub lanes: usize,
}

impl Scenario for Baseline {
    fn name(&self) -> String {
        "baseline".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.requests)
            .deployment(self.shards, self.lanes)
            .federated(self.kernels)
    }

    fn op(&mut self, seq: usize, _rng: &mut StdRng) -> Op {
        let user = seq % self.users;
        Op::request("store", user, &[("data", &format!("b{seq}"))])
    }

    fn check(&mut self, _world: &mut World, report: &ScenarioReport) {
        assert_eq!(report.completed, report.issued, "baseline lost requests");
        assert_eq!(report.retries, 0, "sub-capacity traffic must never shed");
    }
}

// ---------------------------------------------------------------------
// Zipf churn: heavy-tailed users, mixed traffic, disconnects.
// ---------------------------------------------------------------------

/// The heavy-tailed production mix: users drawn Zipf(`skew`), a blend of
/// session writes/reads, DB profile writes/reads, logout churn, and
/// mid-stream disconnects. Head users' sessions churn constantly; tail
/// users log in cold — both paths stay in the measured window.
pub struct ZipfChurn {
    /// User population (ranks; 0 is heaviest).
    pub users: usize,
    /// Arrivals in the window.
    pub requests: usize,
    /// Zipf skew (≈1.0 is classic Web traffic).
    pub skew: f64,
    /// Kernel shards.
    pub shards: usize,
    /// netd lanes.
    pub lanes: usize,
    zipf: Option<ZipfSampler>,
}

impl ZipfChurn {
    /// A churn scenario over `users` ranks at the given skew.
    pub fn new(users: usize, requests: usize, skew: f64, shards: usize, lanes: usize) -> ZipfChurn {
        ZipfChurn {
            users,
            requests,
            skew,
            shards,
            lanes,
            zipf: None,
        }
    }
}

impl Scenario for ZipfChurn {
    fn name(&self) -> String {
        "zipf-churn".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.requests)
            .deployment(self.shards, self.lanes)
            .with_service(ServiceKind::Profile)
    }

    fn setup(&mut self, _world: &mut World) {
        self.zipf = Some(ZipfSampler::new(self.users, self.skew));
    }

    fn op(&mut self, seq: usize, rng: &mut StdRng) -> Op {
        let user = self.zipf.as_ref().expect("setup ran").sample(rng);
        match rng.gen_range(0..100u32) {
            // Session writes dominate, like the §9 store workload.
            0..=37 => Op::request("store", user, &[("data", &format!("z{seq}"))]),
            38..=59 => Op::request("store", user, &[]),
            60..=71 => Op::request("profile", user, &[("set", &format!("bio{seq}"))]),
            72..=83 => Op::request("profile", user, &[("get", &format!("u{user}"))]),
            // Logout churn: the session event process is torn down and the
            // next hit pays a cold login.
            84..=95 => Op::request("store", user, &[("logout", "1")]),
            // Mid-stream disconnect: the user closed the tab.
            _ => Op::Abort { user },
        }
    }

    fn check(&mut self, _world: &mut World, report: &ScenarioReport) {
        assert!(
            report.aborted > 0,
            "the churn mix must exercise disconnects"
        );
        assert_eq!(
            report.completed + report.aborted,
            report.issued,
            "zipf churn lost requests"
        );
    }
}

// ---------------------------------------------------------------------
// Login storm: reboot, then everyone re-authenticates at once.
// ---------------------------------------------------------------------

/// The thundering herd after [`crate::scenario::World::reboot`]: boot 1
/// builds every session against a durable store; the world reboots; then
/// the whole population re-authenticates in two back-to-back storm rounds
/// with a drain barrier between them. Checks, per §5.1 and §7.5:
///
/// - recovered credentials still gate logins (wrong password → 403,
///   probed before any post-reboot session exists);
/// - no boot-1 `⋆`-handle of idd's is observed after the reboot;
/// - round-1 echoes are empty (no session survived the reboot);
/// - every round-2 echo is that user's round-1 write — per-user FIFO
///   through login, session fork, and both storm rounds.
///
/// Single-kernel: the world is durable, and a cluster cannot reboot.
pub struct LoginStorm {
    /// User population (all of it re-authenticates).
    pub users: usize,
    /// Kernel shards.
    pub shards: usize,
    /// netd lanes.
    pub lanes: usize,
    boot1_handles: Vec<u64>,
}

impl LoginStorm {
    /// A storm over `users` accounts.
    pub fn new(users: usize, shards: usize, lanes: usize) -> LoginStorm {
        LoginStorm {
            users,
            shards,
            lanes,
            boot1_handles: Vec::new(),
        }
    }
}

impl Scenario for LoginStorm {
    fn name(&self) -> String {
        "login-storm".into()
    }

    fn config(&self) -> ScenarioConfig {
        // Two rounds: everyone logs in, barrier, everyone hits again.
        // The storm arrives far faster than steady state — that is the
        // point.
        ScenarioConfig::new(self.users, self.users * 2)
            .deployment(self.shards, self.lanes)
            .durable()
            .rate(5_000.0)
    }

    fn setup(&mut self, world: &mut World) {
        // Boot 1: build every session, then go down cleanly.
        for u in 0..self.users {
            let (status, _) = world.request_sync("store", u, &[("data", &format!("s0-u{u}"))]);
            assert_eq!(status, 200, "boot-1 session build failed for u{u}");
        }
        self.boot1_handles = world.idd_star_handles();
        assert!(!self.boot1_handles.is_empty());
        world.reboot();
        // Recovered credentials still gate: probe *before* any real
        // login, since a cached session would skip re-authentication.
        let (status, _) = world
            .request_sync_as("store", "u0", "wrong-password", &[])
            .expect("probe responds");
        assert_eq!(
            status, 403,
            "recovered credential table must reject a bad password"
        );
    }

    fn before_arrival(&mut self, world: &mut World, seq: usize) {
        // Barrier between the rounds: round 2 must observe round 1, so
        // the FIFO check below is about per-user ordering, not luck.
        if seq == self.users {
            world.drain();
        }
    }

    fn op(&mut self, seq: usize, _rng: &mut StdRng) -> Op {
        if seq < self.users {
            let u = seq;
            Op::Request {
                service: "store",
                user: u,
                extra: vec![("data".into(), format!("s1-u{u}"))],
            }
        } else {
            let u = seq - self.users;
            Op::Request {
                service: "store",
                user: u,
                extra: vec![("data".into(), format!("s2-u{u}"))],
            }
        }
    }

    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        assert_eq!(report.completed, report.issued, "storm requests were lost");
        // §5.1 across boots: nothing idd holds now existed in boot 1.
        let boot2 = world.idd_star_handles();
        assert!(!boot2.is_empty());
        assert!(
            boot2.iter().all(|h| !self.boot1_handles.contains(h)),
            "a boot-1 handle was observed after the reboot"
        );
        for issued in world.issued.clone() {
            let (status, body) = world.response(issued.idx).expect("storm request completed");
            assert_eq!(status, 200);
            if issued.seq < self.users {
                // Round 1 echoes the pre-request state: nothing — boot
                // 1's session died with boot 1.
                assert!(
                    body.is_empty(),
                    "u{} saw boot-1 session state after the reboot: {:?}",
                    issued.user,
                    String::from_utf8_lossy(&body[..24.min(body.len())])
                );
            } else {
                // Round 2 echoes exactly that user's round-1 write.
                let want = format!("s1-u{}", issued.user);
                assert!(
                    body.starts_with(want.as_bytes()),
                    "per-user FIFO broke for u{}: echo {:?}, expected {want:?}",
                    issued.user,
                    String::from_utf8_lossy(&body[..24.min(body.len())])
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sustained flood: overload control under an attacker.
// ---------------------------------------------------------------------

/// One attacker pours connections at `flood_factor`× the victim's rate
/// into a deployment whose edge has been made deliberately touchy (shed
/// threshold 2, backpressure armed). The victim's requests must all be
/// answered 200; the edge must visibly defer or shed; and the retried
/// latency series — not the fresh one — absorbs the refusal round-trips.
///
/// Single-kernel: backpressure and the shed threshold are per-kernel
/// settings, and a federated deployment would arm them on kernel 0 only.
pub struct SustainedFlood {
    /// Arrivals in the window.
    pub requests: usize,
    /// Attacker arrivals per victim arrival.
    pub flood_factor: usize,
    /// Kernel shards.
    pub shards: usize,
    /// netd lanes.
    pub lanes: usize,
}

impl Scenario for SustainedFlood {
    fn name(&self) -> String {
        "sustained-flood".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(2, self.requests)
            .deployment(self.shards, self.lanes)
            .with_backpressure()
            .rate(20_000.0)
    }

    fn setup(&mut self, world: &mut World) {
        world.kernel_mut().set_shed_threshold(2);
    }

    fn op(&mut self, seq: usize, _rng: &mut StdRng) -> Op {
        if seq.is_multiple_of(self.flood_factor + 1) {
            // The victim (user 0).
            Op::request("store", 0, &[("data", &format!("v{seq}"))])
        } else {
            // The attacker (user 1).
            Op::request("store", 1, &[("data", "flood")])
        }
    }

    fn quiesce(&mut self, world: &mut World) {
        // Flood over: relax the edge so everything outstanding can drain
        // (shed requests are retried by the engine's drain loop).
        world.kernel_mut().set_shed_threshold(usize::MAX);
    }

    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        let (deferred, shed) = world.shed_totals();
        assert!(
            deferred + shed > 0,
            "a {}x flood against shed threshold 2 never touched the edge",
            self.flood_factor
        );
        assert_eq!(
            report.completed, report.issued,
            "flood traffic never drained"
        );
        // Every victim request was answered 200 despite the flood.
        for issued in world.issued.clone() {
            if issued.user == 0 {
                let (status, _) = world.response(issued.idx).expect("victim completed");
                assert_eq!(
                    status, 200,
                    "flood changed the victim's verdict (seq {})",
                    issued.seq
                );
            }
        }
        assert_eq!(world.kernel().queue_len(), 0, "recovery left work parked");
        // Steady state: a fresh probe is served first try.
        let (status, _) = world.request_sync("store", 0, &[("data", "post")]);
        assert_eq!(status, 200);
    }
}

// ---------------------------------------------------------------------
// Lane overflow + mid-stream closes (stress, not a latency row).
// ---------------------------------------------------------------------

/// Four phases against a shards×lanes deployment: a clean warm burst, a
/// round of mid-stream client disconnects, a connection burst into a
/// 2-deep port queue (the demux notify port overflows and *drops*, by
/// design), and recovery once the bound is lifted. Survival is the
/// assertion: no deadlock, drops accounted, ordinary service afterwards.
///
/// Single-kernel: the port-queue clamp, the drop counter and the
/// `queue_len() == 0` checks all read one kernel.
pub struct LaneOverflowChurn {
    /// User population.
    pub users: usize,
    /// Arrivals per phase.
    pub phase_len: usize,
    /// Kernel shards.
    pub shards: usize,
    /// netd lanes.
    pub lanes: usize,
    drops_before_clamp: u64,
}

impl LaneOverflowChurn {
    /// A four-phase overflow run.
    pub fn new(users: usize, phase_len: usize, shards: usize, lanes: usize) -> LaneOverflowChurn {
        LaneOverflowChurn {
            users,
            phase_len,
            shards,
            lanes,
            drops_before_clamp: 0,
        }
    }
}

impl Scenario for LaneOverflowChurn {
    fn name(&self) -> String {
        "lane-overflow-churn".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.phase_len * 4)
            .deployment(self.shards, self.lanes)
            .rate(4_000.0)
            .allow_failures()
    }

    fn before_arrival(&mut self, world: &mut World, seq: usize) {
        if seq == self.phase_len * 2 {
            // Let the disconnect phase settle, then clamp the per-port
            // bound so the burst overflows the demux's notify port.
            world.drain();
            self.drops_before_clamp = world.kernel().stats().dropped_port_queue_full;
            world.kernel_mut().set_port_queue_limit(2);
            // The burst must land back-to-back — pacing through the
            // open-loop schedule would let the kernel drain the 2-deep
            // queue between arrivals and nothing would ever overflow. So
            // issue the whole phase here with no kernel steps in between;
            // the phase's paced slots become idle.
            for i in 0..self.phase_len {
                let burst_seq = self.phase_len * 2 + i;
                world.request(
                    "store",
                    burst_seq % self.users,
                    &[("data", "burst")],
                    burst_seq,
                );
            }
        } else if seq == self.phase_len * 3 {
            // Let the burst overflow (drops, not deadlock), then lift
            // the bound for the recovery phase.
            world.kernel_mut().run();
            world.poll_lanes();
            let drops = world.kernel().stats().dropped_port_queue_full - self.drops_before_clamp;
            // On one shard the scheduler interleaves strictly — demux
            // consumes each NewConn before netd posts the next, so a
            // 2-deep mailbox never fills. Only the cross-shard route
            // (lanes batching notifications into the demux shard) can
            // actually overflow; assert the drop count there only.
            if self.shards > 1 {
                assert!(
                    drops > 0,
                    "a {}-connection burst against a 2-deep port bound must overflow",
                    self.phase_len
                );
            }
            assert_eq!(
                world.kernel().queue_len(),
                0,
                "overflow left the kernel wedged"
            );
            world
                .kernel_mut()
                .set_port_queue_limit(DEFAULT_PORT_QUEUE_LIMIT);
        }
    }

    fn op(&mut self, seq: usize, rng: &mut StdRng) -> Op {
        let user = rng.gen_range(0..self.users);
        match seq / self.phase_len {
            0 => Op::request("store", user, &[("data", "warm")]),
            // Issue, then kill every other one mid-stream.
            1 => {
                if seq.is_multiple_of(2) {
                    Op::request("store", user, &[("data", "doomed")])
                } else {
                    Op::Abort { user }
                }
            }
            // Phase 2 (burst) is issued all at once from `before_arrival`;
            // its paced arrival slots only advance the clock.
            2 => Op::Idle,
            _ => Op::request("store", user, &[("data", "recovered")]),
        }
    }

    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        assert!(
            report.aborted > 0,
            "phase 2 must exercise mid-stream closes"
        );
        if self.lanes > 1 {
            let spread = world.client.driver.lane_accepts().to_vec();
            assert!(
                spread.iter().filter(|&&n| n > 0).count() >= 2,
                "RSS demux used one lane for every connection: {spread:?}"
            );
        }
        assert_eq!(world.kernel().queue_len(), 0, "run left work queued");
        // Every recovery-phase request was served despite the carnage.
        for issued in world.issued.clone() {
            if issued.seq >= self.phase_len * 3 {
                let (status, _) = world.response(issued.idx).unwrap_or_else(|| {
                    panic!("recovery request seq {} never completed", issued.seq)
                });
                assert_eq!(status, 200, "user u{} did not recover", issued.user);
            }
        }
    }
}
