//! The stock scenarios the latency bench and the stress tests run.
//!
//! Each is a small struct implementing [`Scenario`]: the deployment shape
//! lives in `config()`, the workload in `op()`, and the invariants in
//! `check()`. Four of them feed `BENCH_latency.json` (baseline, Zipf
//! churn, login storm, sustained flood); the disconnect-churn scenario is
//! a stress test, not a latency row — its interesting output is
//! surviving, not a count.

use rand::rngs::StdRng;
use rand::Rng;

use crate::metrics::ScenarioReport;
use crate::scenario::{Op, Scenario, ScenarioConfig, ServiceKind, World};
use crate::zipf::ZipfSampler;

// ---------------------------------------------------------------------
// Baseline: uniform sub-capacity traffic.
// ---------------------------------------------------------------------

/// Round-robin store traffic at a sub-capacity rate: the floor every
/// other scenario is read against.
pub struct Baseline {
    /// User population.
    pub users: usize,
    /// Arrivals in the window.
    pub requests: usize,
    /// Member kernels (1 = un-federated).
    pub kernels: usize,
}

impl Scenario for Baseline {
    fn name(&self) -> String {
        "baseline".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.requests).federated(self.kernels)
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
    zipf: Option<ZipfSampler>,
}

impl ZipfChurn {
    /// A churn scenario over `users` ranks at the given skew.
    pub fn new(users: usize, requests: usize, skew: f64) -> ZipfChurn {
        ZipfChurn {
            users,
            requests,
            skew,
            zipf: None,
        }
    }
}

impl Scenario for ZipfChurn {
    fn name(&self) -> String {
        "zipf-churn".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.requests).with_service(ServiceKind::Profile)
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
    boot1_handles: Vec<u64>,
}

impl LoginStorm {
    /// A storm over `users` accounts.
    pub fn new(users: usize) -> LoginStorm {
        LoginStorm {
            users,
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
// Sustained flood: victim isolation under an attacker.
// ---------------------------------------------------------------------

/// One attacker pours connections at `flood_factor`× the victim's rate
/// into the same deployment. The attacker's session worker holds at most
/// `PENDING_MAX` connections and sheds the rest (closed unserved); the
/// driver retries each shed connection, and the report counts those
/// requests as `retried`. The victim's requests must all be answered
/// 200, everything issued must complete, and a fresh probe afterwards is
/// served on its first try.
///
/// Runs federated too ([`ScenarioConfig::federated`]): nothing it
/// configures is per-kernel.
pub struct SustainedFlood {
    /// Arrivals in the window.
    pub requests: usize,
    /// Attacker arrivals per victim arrival.
    pub flood_factor: usize,
}

impl Scenario for SustainedFlood {
    fn name(&self) -> String {
        "sustained-flood".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(2, self.requests).rate(20_000.0)
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

    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        assert!(
            report.retries > 0,
            "a {}x flood never overran the attacker's pending queue",
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
        assert_eq!(world.kernel().queue_len(), 0, "recovery left work queued");
        // Steady state: a fresh probe is served first try.
        let (status, _) = world.request_sync("store", 0, &[("data", "post")]);
        assert_eq!(status, 200);
    }
}

// ---------------------------------------------------------------------
// Mid-stream closes and recovery (stress, not a latency row).
// ---------------------------------------------------------------------

/// Three phases: a clean warm burst, a round of mid-stream client
/// disconnects, and recovery once the disconnects have drained. Survival
/// is the assertion: no deadlock, nothing left queued, ordinary service
/// afterwards.
///
/// Single-kernel: the `queue_len() == 0` checks read one kernel.
pub struct DisconnectChurn {
    /// User population.
    pub users: usize,
    /// Arrivals per phase.
    pub phase_len: usize,
}

impl Scenario for DisconnectChurn {
    fn name(&self) -> String {
        "disconnect-churn".into()
    }

    fn config(&self) -> ScenarioConfig {
        ScenarioConfig::new(self.users, self.phase_len * 3)
            .rate(4_000.0)
            .allow_failures()
    }

    fn before_arrival(&mut self, world: &mut World, seq: usize) {
        if seq == self.phase_len * 2 {
            // Let the disconnect phase settle before recovery.
            world.drain();
            assert_eq!(
                world.kernel().queue_len(),
                0,
                "mid-stream closes left the kernel wedged"
            );
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
            _ => Op::request("store", user, &[("data", "recovered")]),
        }
    }

    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        assert!(
            report.aborted > 0,
            "phase 1 must exercise mid-stream closes"
        );
        assert_eq!(world.kernel().queue_len(), 0, "run left work queued");
        // Every recovery-phase request was served despite the carnage.
        for issued in world.issued.clone() {
            if issued.seq >= self.phase_len * 2 {
                let (status, _) = world.response(issued.idx).unwrap_or_else(|| {
                    panic!("recovery request seq {} never completed", issued.seq)
                });
                assert_eq!(status, 200, "user u{} did not recover", issued.user);
            }
        }
    }
}
