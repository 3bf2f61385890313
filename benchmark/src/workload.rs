//! The six workloads: deployment shape, request generator, and the model
//! that says what every response must be.
//!
//! The generator is a pure function of (workload, seed): the program
//! under test sees only the requests it produces. The model is updated in
//! issue order, so verification is exact — a round's sixteen users are
//! distinct, and a round completes before the next is issued.

use asbestos_loadgen::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Closed-loop clients: a round issues one request for each.
pub const CLIENTS: usize = 16;

/// EchoStore pads stored data to this many bytes (§9.1's ~1 KiB blob).
const STORE_STATE_BYTES: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Service {
    /// `ParamLength`: 11 × `x`, no per-user state, no database.
    Bench,
    /// `EchoStore`: returns the user's previous write; supports logout.
    Store,
    /// `Profile`: INSERT / label-filtered SELECT through ok-dbproxy.
    Profile,
}

impl Service {
    pub fn name(self) -> &'static str {
        match self {
            Service::Bench => "bench",
            Service::Store => "store",
            Service::Profile => "profile",
        }
    }
}

/// Cumulative op-mix thresholds in percent; see [`Generator::round`].
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Share of requests that write (`store data=` / `profile set=`).
    pub write_pct: u32,
    /// Share that log out (store only); the rest read.
    pub logout_pct: u32,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kernels: usize,
    pub shards: usize,
    pub lanes: usize,
    pub users: usize,
    pub service: Service,
    /// ok-dbproxy on a durable `MemDev` (WAL + compaction).
    pub durable: bool,
    /// Zipf skew over users; `None` is uniform.
    pub zipf: Option<f64>,
    pub mix: Mix,
    /// Build every user's session during set-up.
    pub prebuilt_sessions: bool,
    /// Rows per user inserted during set-up (profile only).
    pub preload_rows: usize,
    pub warmup_rounds: usize,
    /// Measured rounds per second of `--seconds`. Frozen: the work of a
    /// run is a function of (workload, seed, seconds) only, so two
    /// commits are compared on identical requests. Calibrated once on the
    /// recording host so the measured windows together last `--seconds`.
    pub rounds_per_second: f64,
    /// Every kernel runs single-threaded, so simulated counters must
    /// repeat exactly across repetitions.
    pub deterministic: bool,
}

impl Spec {
    /// Measured rounds of one of `reps` repetitions sharing `seconds`.
    pub fn rounds(&self, seconds: f64, reps: usize) -> usize {
        ((self.rounds_per_second * seconds / reps as f64).round() as usize).max(20)
    }
}

const READ_ONLY: Mix = Mix {
    write_pct: 0,
    logout_pct: 0,
};

pub fn specs() -> Vec<Spec> {
    let hot = Spec {
        name: "hot-1x1",
        why: "256 live sessions on the bench service at 1 shard x 1 lane (paper 9.2): all work in net, kernel delivery and okws; bypasses router/pool, db, store and wire",
        kernels: 1,
        shards: 1,
        lanes: 1,
        users: 256,
        service: Service::Bench,
        durable: false,
        zipf: None,
        mix: READ_ONLY,
        prebuilt_sessions: true,
        preload_rows: 0,
        warmup_rounds: 100,
        rounds_per_second: 270.0,
        deterministic: true,
    };
    let db = Spec {
        name: "db-write",
        why: "profile service on a durable MemDev, 90% set / 10% get at 1x1: SQL parse/insert, ok-dbproxy and WAL append/commit/compaction do most of the work",
        users: 256,
        service: Service::Profile,
        durable: true,
        mix: Mix {
            write_pct: 90,
            logout_pct: 0,
        },
        warmup_rounds: 50,
        rounds_per_second: 150.0,
        ..hot.clone()
    };
    vec![
        hot.clone(),
        Spec {
            name: "hot-4x4",
            why: "hot-1x1 traffic on 4 shards x 4 lanes with the tuner at its default: same per-request work, so the difference is the sharded engine (router, inbox, pool, tuner)",
            shards: 4,
            lanes: 4,
            rounds_per_second: 215.0,
            deterministic: false,
            ..hot.clone()
        },
        Spec {
            name: "churn-4x4",
            why: "Zipf(1.1) over 1024 users on the store service, 50% write / 35% read / 15% logout at 4x4: largest labels, EP create/exit, cache eviction, the only skewed multi-shard load",
            shards: 4,
            lanes: 4,
            users: 1024,
            service: Service::Store,
            zipf: Some(1.1),
            mix: Mix {
                write_pct: 50,
                logout_pct: 15,
            },
            prebuilt_sessions: false,
            warmup_rounds: 50,
            rounds_per_second: 110.0,
            deterministic: false,
            ..hot.clone()
        },
        db.clone(),
        Spec {
            name: "db-read",
            why: "db-write deployment with 4 rows/user preloaded, 10% set / 90% get: the same db layer used the other way (label-filtered SELECT scan, almost no WAL)",
            mix: Mix {
                write_pct: 10,
                logout_pct: 0,
            },
            preload_rows: 4,
            rounds_per_second: 130.0,
            ..db
        },
        Spec {
            name: "fed-k2",
            why: "hot-1x1 traffic over a 2-kernel cluster (front end on kernel 0, worker on kernel 1, real Unix sockets): fed-k2 minus hot-1x1 is the wire",
            kernels: 2,
            rounds_per_second: 160.0,
            ..hot
        },
    ]
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Bench,
    StoreWrite(String),
    StoreRead,
    StoreLogout,
    ProfileSet(String),
    ProfileGet,
}

impl Op {
    pub fn is_db_write(&self) -> bool {
        matches!(self, Op::ProfileSet(_))
    }

    pub fn is_db_read(&self) -> bool {
        matches!(self, Op::ProfileGet)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub user: usize,
    pub op: Op,
}

impl Request {
    pub fn user_name(&self) -> String {
        format!("u{}", self.user)
    }

    pub fn password(&self) -> String {
        format!("p{}", self.user)
    }

    /// Extra query parameters after `user=&pw=`.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        match &self.op {
            Op::Bench => vec![("len", "11".to_string())],
            Op::StoreWrite(data) => vec![("data", data.clone())],
            Op::StoreRead => Vec::new(),
            Op::StoreLogout => vec![("logout", "1".to_string())],
            Op::ProfileSet(bio) => vec![("set", bio.clone())],
            Op::ProfileGet => vec![("get", self.user_name())],
        }
    }
}

/// Seeded request stream for one workload.
pub struct Generator {
    rng: StdRng,
    zipf: Option<ZipfSampler>,
    users: usize,
    service: Service,
    mix: Mix,
    /// Makes every written value unique, so a stale or foreign response
    /// can never equal the expected one by accident.
    writes: u64,
}

impl Generator {
    pub fn new(spec: &Spec, seed: u64) -> Generator {
        Generator {
            rng: StdRng::seed_from_u64(seed),
            zipf: spec.zipf.map(|s| ZipfSampler::new(spec.users, s)),
            users: spec.users,
            service: spec.service,
            mix: spec.mix,
            writes: 0,
        }
    }

    fn user(&mut self) -> usize {
        match &self.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.gen_range(0..self.users),
        }
    }

    fn op(&mut self) -> Op {
        if self.service == Service::Bench {
            return Op::Bench;
        }
        let roll: u32 = self.rng.gen_range(0..100);
        let write = roll < self.mix.write_pct;
        let logout = !write && roll < self.mix.write_pct + self.mix.logout_pct;
        if write {
            self.writes += 1;
        }
        match (self.service, write, logout) {
            (Service::Store, true, _) => Op::StoreWrite(format!("w{}", self.writes)),
            (Service::Store, _, true) => Op::StoreLogout,
            (Service::Store, _, _) => Op::StoreRead,
            (_, true, _) => Op::ProfileSet(format!("b{}", self.writes)),
            _ => Op::ProfileGet,
        }
    }

    /// One round: [`CLIENTS`] requests from distinct users (a repeated
    /// draw is redrawn, so under Zipf the head ranks appear in nearly
    /// every round but never twice in one).
    pub fn round(&mut self) -> Vec<Request> {
        let mut out: Vec<Request> = Vec::with_capacity(CLIENTS);
        while out.len() < CLIENTS {
            let user = self.user();
            if out.iter().any(|r| r.user == user) {
                continue;
            }
            let op = self.op();
            out.push(Request { user, op });
        }
        out
    }
}

/// What a correct deployment answers, and which requests start a session.
pub struct Model {
    /// Store: the user's session blob (empty = nothing stored).
    blobs: Vec<Vec<u8>>,
    /// Profile: the bios the user has set, in order.
    rows: Vec<Vec<String>>,
    live: Vec<bool>,
}

/// The expected reply to one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    pub body: Vec<u8>,
    /// No session event process existed: the request pays for a fresh
    /// one (and, the first time the user is seen, an idd login).
    pub cold: bool,
}

impl Model {
    pub fn new(spec: &Spec) -> Model {
        Model {
            blobs: vec![Vec::new(); spec.users],
            rows: vec![Vec::new(); spec.users],
            live: vec![false; spec.users],
        }
    }

    /// Advances the model by one issued request and returns what the
    /// response must be (always a 200).
    pub fn expect(&mut self, req: &Request) -> Expected {
        let u = req.user;
        let cold = !self.live[u];
        self.live[u] = true;
        let body = match &req.op {
            Op::Bench => vec![b'x'; 11],
            Op::StoreWrite(data) => {
                let mut blob = data.clone().into_bytes();
                blob.resize(STORE_STATE_BYTES, b'.');
                std::mem::replace(&mut self.blobs[u], blob)
            }
            Op::StoreRead => self.blobs[u].clone(),
            Op::StoreLogout => {
                // The event process exits: its memory is gone and the
                // next request forks a fresh one.
                self.blobs[u].clear();
                self.live[u] = false;
                b"goodbye".to_vec()
            }
            Op::ProfileSet(bio) => {
                self.rows[u].push(bio.clone());
                b"stored".to_vec()
            }
            Op::ProfileGet => {
                let name = req.user_name();
                let mut body = String::new();
                for bio in &self.rows[u] {
                    body.push_str(&name);
                    body.push(':');
                    body.push_str(bio);
                    body.push('\n');
                }
                body.into_bytes()
            }
        };
        Expected { body, cold }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> Spec {
        specs().into_iter().find(|s| s.name == name).unwrap()
    }

    fn stream(name: &str, seed: u64, rounds: usize) -> Vec<Vec<Request>> {
        let mut g = Generator::new(&spec(name), seed);
        (0..rounds).map(|_| g.round()).collect()
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        for name in ["hot-1x1", "churn-4x4", "db-write", "db-read"] {
            assert_eq!(stream(name, 7, 50), stream(name, 7, 50), "{name}");
            assert_ne!(stream(name, 7, 50), stream(name, 8, 50), "{name}");
        }
        // Identical traffic is what makes hot-4x4 and fed-k2 comparable
        // with hot-1x1.
        assert_eq!(stream("hot-1x1", 3, 20), stream("hot-4x4", 3, 20));
        assert_eq!(stream("hot-1x1", 3, 20), stream("fed-k2", 3, 20));
    }

    #[test]
    fn rounds_hold_sixteen_distinct_users() {
        for round in stream("churn-4x4", 1, 200) {
            assert_eq!(round.len(), CLIENTS);
            let mut users: Vec<usize> = round.iter().map(|r| r.user).collect();
            users.sort_unstable();
            users.dedup();
            assert_eq!(users.len(), CLIENTS);
            assert!(users.iter().all(|&u| u < 1024));
        }
    }

    #[test]
    fn zipf_and_op_mix_have_the_stated_shape() {
        let reqs: Vec<Request> = stream("churn-4x4", 11, 1000)
            .into_iter()
            .flatten()
            .collect();
        let n = reqs.len() as f64;
        let frac = |f: &dyn Fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count() as f64 / n;
        assert!((frac(&|r| matches!(r.op, Op::StoreWrite(_))) - 0.50).abs() < 0.03);
        assert!((frac(&|r| r.op == Op::StoreRead) - 0.35).abs() < 0.03);
        assert!((frac(&|r| r.op == Op::StoreLogout) - 0.15).abs() < 0.03);
        // Rank 0 is in almost every round; the bottom half of the ranks
        // together see less traffic than it does.
        assert!(frac(&|r| r.user == 0) > 0.9 / CLIENTS as f64);
        assert!(frac(&|r| r.user >= 512) < frac(&|r| r.user < 4));

        let writes = stream("db-write", 5, 500);
        let sets = writes
            .iter()
            .flatten()
            .filter(|r| r.op.is_db_write())
            .count();
        assert!((sets as f64 / (500 * CLIENTS) as f64 - 0.90).abs() < 0.02);
        assert!(stream("hot-1x1", 5, 10)
            .iter()
            .flatten()
            .all(|r| r.op == Op::Bench));
    }

    #[test]
    fn model_follows_store_and_profile_semantics() {
        let mut store = Model::new(&spec("churn-4x4"));
        let req = |user, op| Request { user, op };
        let first = store.expect(&req(3, Op::StoreWrite("w1".into())));
        assert!(first.cold && first.body.is_empty());
        let second = store.expect(&req(3, Op::StoreRead));
        assert!(!second.cold);
        assert_eq!(second.body.len(), 1024);
        assert!(second.body.starts_with(b"w1."));
        assert_eq!(store.expect(&req(3, Op::StoreLogout)).body, b"goodbye");
        let after = store.expect(&req(3, Op::StoreRead));
        assert!(
            after.cold && after.body.is_empty(),
            "logout forgets the blob"
        );
        // Another user never sees user 3's data.
        assert!(store.expect(&req(4, Op::StoreRead)).body.is_empty());

        let mut profile = Model::new(&spec("db-read"));
        assert!(profile.expect(&req(9, Op::ProfileGet)).body.is_empty());
        assert_eq!(
            profile.expect(&req(9, Op::ProfileSet("b1".into()))).body,
            b"stored"
        );
        profile.expect(&req(9, Op::ProfileSet("b2".into())));
        assert_eq!(
            profile.expect(&req(9, Op::ProfileGet)).body,
            b"u9:b1\nu9:b2\n"
        );
    }

    #[test]
    fn round_counts_scale_with_seconds() {
        let s = spec("hot-1x1");
        assert_eq!(
            s.rounds(9.0, 3),
            (s.rounds_per_second * 3.0).round() as usize
        );
        assert_eq!(s.rounds(0.01, 3), 20, "never fewer than a median's worth");
    }
}
