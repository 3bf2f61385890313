//! The OKWS launcher (§7.1).
//!
//! "OKWS is started by a launcher process. The launcher spawns ok-demux,
//! site-specific workers requested by the site operator, and two other
//! processes, idd and ok-dbproxy. ... the launcher grants a process-specific
//! verification handle to each process it starts. The ok-demux collects
//! these handle values from the launcher. When a worker identifies itself to
//! the ok-demux, it must provide a verification label V containing its
//! verification handle at level 0."

use asbestos_db::DbProxy;
use asbestos_kernel::{Category, Label, Level, Message, SendArgs, Service, Sys, Value};
use asbestos_store::BlockDev;

use crate::demux::{svc_declassifier_env, svc_verify_env, OkDemux, SVC_LIST_ENV};
use crate::idd::{Idd, IDD_DEMUX_VERIFY_ENV, IDD_PORT_ENV, LAUNCHER_VERIFY_ENV};
use crate::logic::WorkerLogic;
use crate::proto::OkwsMsg;
use crate::worker::{worker_port_env, Worker};

/// How a service's worker process is built.
enum WorkerKind {
    /// The standard worker machinery around a [`WorkerLogic`].
    Logic(Box<dyn FnMut() -> Box<dyn WorkerLogic>>),
    /// A custom event-process service (tests use this to model workers
    /// whose *code* is compromised, §7.8). Must handle
    /// [`OkwsMsg::Activate`] itself.
    Raw(Box<dyn FnMut() -> Box<dyn asbestos_kernel::EpService>>),
    /// The worker base process was already placed on its shard by the
    /// deployment assembler ([`crate::Okws::start`] on a multi-shard
    /// kernel); the launcher only provisions its verification handle and
    /// activates it.
    Placed,
}

/// One service to launch.
pub struct ServiceSpec {
    /// Service name (the first path segment of request URLs).
    pub name: String,
    /// Whether this worker is a §7.6 declassifier.
    pub declassifier: bool,
    /// Whether workers `ep_clean` scratch state per request (§7.3); the
    /// Figure 6 active-session experiment disables this.
    pub tidy: bool,
    kind: WorkerKind,
}

impl ServiceSpec {
    /// A service built by `factory`.
    pub fn new(name: &str, factory: impl FnMut() -> Box<dyn WorkerLogic> + 'static) -> ServiceSpec {
        ServiceSpec {
            name: name.to_string(),
            declassifier: false,
            tidy: true,
            kind: WorkerKind::Logic(Box::new(factory)),
        }
    }

    /// A service backed by a custom event-process implementation.
    pub fn raw(
        name: &str,
        factory: impl FnMut() -> Box<dyn asbestos_kernel::EpService> + 'static,
    ) -> ServiceSpec {
        ServiceSpec {
            name: name.to_string(),
            declassifier: false,
            tidy: true,
            kind: WorkerKind::Raw(Box::new(factory)),
        }
    }

    /// Marks the service as a declassifier (§7.6).
    pub fn declassifier(mut self) -> ServiceSpec {
        self.declassifier = true;
        self
    }

    /// Disables per-request cleanup (Figure 6 active-session experiment).
    pub fn untidy(mut self) -> ServiceSpec {
        self.tidy = false;
        self
    }

    /// Whether this spec's worker body was already taken by a deployment
    /// assembler ([`ServiceSpec::take_body`]) — the launcher (and the
    /// single-kernel shard placer) must activate it, not spawn it.
    pub fn is_placed(&self) -> bool {
        matches!(self.kind, WorkerKind::Placed)
    }

    /// Builds this service's worker body and marks the spec as placed —
    /// a deployment assembler (the sharded `Okws::start` path, or the
    /// cluster crate's cross-kernel deploy) calls this when it spawns
    /// worker base processes onto their shards — or kernels — itself, so
    /// the launcher knows to activate rather than spawn.
    ///
    /// # Panics
    ///
    /// Panics when called twice for one spec; check
    /// [`ServiceSpec::is_placed`] first.
    pub fn take_body(&mut self) -> Box<dyn asbestos_kernel::EpService> {
        let kind = std::mem::replace(&mut self.kind, WorkerKind::Placed);
        match kind {
            WorkerKind::Logic(mut factory) => {
                let mut worker = Worker::new(&self.name, factory());
                if !self.tidy {
                    worker = worker.untidy();
                }
                Box::new(worker)
            }
            WorkerKind::Raw(mut factory) => factory(),
            WorkerKind::Placed => unreachable!("take_body called twice for {}", self.name),
        }
    }
}

/// OKWS deployment configuration.
pub struct OkwsConfig {
    /// TCP port to serve.
    pub tcp_port: u16,
    /// Services to launch.
    pub services: Vec<ServiceSpec>,
    /// Worker-visible tables to create through ok-dbproxy (DDL).
    pub worker_tables: Vec<String>,
    /// Accounts to create: (user, password).
    pub users: Vec<(String, String)>,
    /// Whether to deploy the shared, user-isolated cache (§2).
    pub with_cache: bool,
    /// Kernel shards to run the deployment on. `1` (the default) is the
    /// paper-faithful single-engine configuration; higher counts spread
    /// netd, the launcher, and the OKWS process suite round-robin across
    /// parallel delivery engines, with the router carrying the
    /// netd ↔ demux ↔ worker traffic between shards.
    pub shards: usize,
    /// netd lanes in the multi-queue front end. `1` (the default) is the
    /// paper's single netd process; higher counts spawn one full netd
    /// instance per lane, pinned one lane per shard, with the RSS
    /// demultiplexer hashing each accepted connection to a lane so its
    /// whole event stream stays on one shard.
    pub netd_lanes: usize,
    /// The durable medium for ok-dbproxy's write-ahead log (§7.5
    /// persistence). `None` (the default) is the paper's volatile
    /// prototype; a device makes every acknowledged statement durable
    /// and enables [`crate::Okws::reboot`].
    pub db_store: Option<Box<dyn BlockDev>>,
}

impl OkwsConfig {
    /// A configuration with no services or users on the given port.
    pub fn new(tcp_port: u16) -> OkwsConfig {
        OkwsConfig {
            tcp_port,
            services: Vec::new(),
            worker_tables: Vec::new(),
            users: Vec::new(),
            with_cache: false,
            shards: 1,
            netd_lanes: 1,
            db_store: None,
        }
    }

    /// Sets the kernel shard count this deployment targets.
    pub fn sharded(mut self, shards: usize) -> OkwsConfig {
        self.shards = shards;
        self
    }

    /// Sets the netd lane count of the multi-queue front end.
    pub fn lanes(mut self, lanes: usize) -> OkwsConfig {
        self.netd_lanes = lanes;
        self
    }

    /// Backs ok-dbproxy with a durable store on `dev`: every committed
    /// statement is redo-logged before acknowledgement, and the same
    /// device handed to [`crate::Okws::reboot`] recovers the deployment
    /// after a crash or clean shutdown.
    pub fn durable(mut self, dev: Box<dyn BlockDev>) -> OkwsConfig {
        self.db_store = Some(dev);
        self
    }
}

/// The launcher process.
pub struct Launcher {
    config: Option<OkwsConfig>,
}

impl Launcher {
    /// Creates a launcher that will deploy `config` on start.
    pub fn new(config: OkwsConfig) -> Launcher {
        Launcher {
            config: Some(config),
        }
    }
}

impl Service for Launcher {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let mut config = self.config.take().expect("launcher starts once");

        // Verification handles: one for the launcher itself (idd checks it
        // on account/DDL management), one for ok-demux (idd checks it on
        // Login), one per worker (ok-demux checks registrations).
        let launcher_verify = sys.new_handle();
        sys.publish_env(LAUNCHER_VERIFY_ENV, Value::Handle(launcher_verify));
        let demux_verify = sys.new_handle();
        sys.publish_env(IDD_DEMUX_VERIFY_ENV, Value::Handle(demux_verify));
        sys.publish_env("okws.demux.verify", Value::Handle(demux_verify));

        let mut names = Vec::new();
        let mut worker_verifies = Vec::new();
        for spec in &config.services {
            let wv = sys.new_handle();
            sys.publish_env(&svc_verify_env(&spec.name), Value::Handle(wv));
            sys.publish_env(
                &svc_declassifier_env(&spec.name),
                Value::Bool(spec.declassifier),
            );
            names.push(Value::Str(spec.name.clone()));
            worker_verifies.push(wv);
        }
        sys.publish_env(SVC_LIST_ENV, Value::List(names));

        // System processes, in dependency order: idd publishes the trusted
        // ports ok-dbproxy (and optionally ok-cache) greet; ok-demux needs
        // all of them.
        sys.spawn("idd", Category::Okdb, Box::new(Idd::new()))
            .expect("launcher runs outside event processes");
        let proxy = match config.db_store.take() {
            // §7.5 durability: the proxy recovers (snapshot + committed
            // WAL prefix) before serving its first message.
            Some(dev) => DbProxy::with_store(dev),
            None => DbProxy::new(),
        };
        sys.spawn("ok-dbproxy", Category::Okdb, Box::new(proxy))
            .expect("launcher runs outside event processes");
        if config.with_cache {
            sys.spawn(
                "ok-cache",
                Category::Okws,
                Box::new(crate::cache::OkCache::new()),
            )
            .expect("launcher runs outside event processes");
        }
        sys.spawn(
            "ok-demux",
            Category::Okws,
            Box::new(OkDemux::new(config.tcp_port)),
        )
        .expect("launcher runs outside event processes");

        // Grant ok-demux its verification handle at ⋆: it proves itself to
        // idd with V(dV) = 0, and holding ⋆ (rather than the fragile
        // mandatory level 0, which decays on any ordinary input, §5.4)
        // keeps the credential alive across netd traffic.
        let demux_control = sys
            .env(crate::demux::DEMUX_PORT_ENV)
            .and_then(|v| v.as_handle())
            .expect("ok-demux publishes its control port");
        let _ = sys.send_args(
            demux_control,
            Value::Str("verification-grant".into()),
            &SendArgs::new().grant(Label::from_pairs(Level::L3, &[(demux_verify, Level::Star)])),
        );

        // Workers: spawn (unless the deployment assembler already placed
        // the base process on its shard), then activate — the activation
        // event process registers the worker with ok-demux using its
        // verification handle.
        for (spec, wv) in config.services.iter_mut().zip(&worker_verifies) {
            if !matches!(spec.kind, WorkerKind::Placed) {
                let body = spec.take_body();
                sys.spawn_ep_service(&format!("worker-{}", spec.name), Category::Okws, body)
                    .expect("launcher runs outside event processes");
            }
            let port = sys
                .env(&worker_port_env(&spec.name))
                .and_then(|v| v.as_handle())
                .expect("the worker's base start published its port");
            let _ = sys.send_args(
                port,
                OkwsMsg::Activate {
                    service: spec.name.clone(),
                    verify: *wv,
                }
                .to_value(),
                &SendArgs::new().grant(Label::from_pairs(Level::L3, &[(*wv, Level::Star)])),
            );
        }

        // Worker-visible tables and accounts, all proven with the
        // launcher's verification handle.
        let idd_port = sys
            .env(IDD_PORT_ENV)
            .and_then(|v| v.as_handle())
            .expect("idd publishes its login port");
        let launcher_v = Label::from_pairs(Level::L3, &[(launcher_verify, Level::L0)]);
        for ddl in &config.worker_tables {
            let _ = sys.send_args(
                idd_port,
                Value::List(vec![
                    Value::Str("worker-ddl".into()),
                    Value::Str(ddl.clone()),
                ]),
                &SendArgs::new().verify(launcher_v.clone()),
            );
        }
        for (user, password) in &config.users {
            let _ = sys.send_args(
                idd_port,
                OkwsMsg::AddUser {
                    user: user.clone(),
                    password: password.clone(),
                }
                .to_value(),
                &SendArgs::new().verify(launcher_v.clone()),
            );
        }
    }

    fn on_message(&mut self, _sys: &mut Sys<'_>, _msg: &Message) {
        // §7.1: "a more mature version of launcher could restart dead
        // processes" — the prototype launcher, like the paper's, does not.
    }
}
