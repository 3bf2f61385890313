//! The OKWS launcher (§7.1).
//!
//! "OKWS is started by a launcher process. The launcher spawns ok-demux,
//! site-specific workers requested by the site operator, and two other
//! processes, idd and ok-dbproxy. ... the launcher grants a process-specific
//! verification handle to each process it starts. The ok-demux collects
//! these handle values from the launcher. When a worker identifies itself to
//! the ok-demux, it must provide a verification label V containing its
//! verification handle at level 0."
//!
//! Here the deployment assembler ([`crate::Okws::start`], or the cluster
//! crate's `deploy_okws`) spawns the worker base processes, before the
//! launcher runs, so a worker never inherits the launcher's `⋆` on the
//! verification handles it mints. The launcher mints and publishes every
//! verification handle, spawns ok-dbproxy, idd and ok-demux itself, in
//! that order, then activates each worker, granting it its own handle at
//! `⋆` and no other.
//!
//! **The wiring rule.** Any process may overwrite any key of the global
//! environment, so a trusted process (launcher, idd, ok-dbproxy, ok-demux)
//! reads it only in its own `on_start`. Those all run inside the
//! launcher's, after a trusted process has written every key they read,
//! and before any worker can run again. What workers write — their
//! service ports — and what was written before any worker ran — netd's
//! control ports — come from the assembler instead, captured at spawn.

use asbestos_db::{DbProxy, DB_ADMIN_VERIFY_ENV};
use asbestos_kernel::{
    Category, EpService, Handle, Kernel, Label, Level, Message, SendArgs, Service, Sys, Value,
};
use asbestos_net::NetdHandle;
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
    Raw(Box<dyn FnMut() -> Box<dyn EpService>>),
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
    /// The worker body, until a deployment assembler places it.
    kind: Option<WorkerKind>,
    /// The service port the worker's base start published, read as soon
    /// as its spawn returned: the port the launcher activates.
    port: Option<Handle>,
}

impl ServiceSpec {
    /// A service built by `factory`.
    pub fn new(name: &str, factory: impl FnMut() -> Box<dyn WorkerLogic> + 'static) -> ServiceSpec {
        ServiceSpec {
            name: name.to_string(),
            declassifier: false,
            tidy: true,
            kind: Some(WorkerKind::Logic(Box::new(factory))),
            port: None,
        }
    }

    /// A service backed by a custom event-process implementation.
    pub fn raw(name: &str, factory: impl FnMut() -> Box<dyn EpService> + 'static) -> ServiceSpec {
        ServiceSpec {
            name: name.to_string(),
            declassifier: false,
            tidy: true,
            kind: Some(WorkerKind::Raw(Box::new(factory))),
            port: None,
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

    /// Places this service's worker base process, once: the one
    /// placement call of both deployment assemblers ([`crate::Okws::start`]
    /// and the cluster crate's cross-kernel deploy). `spawn` starts the
    /// body under the given process name and returns the kernel it runs
    /// on; the port the base start published there is read at once,
    /// before any other process runs, and is the port the launcher
    /// activates. Does nothing if the worker was already placed.
    pub fn take_body<'k>(&mut self, spawn: impl FnOnce(&str, Box<dyn EpService>) -> &'k Kernel) {
        let body: Box<dyn EpService> = match self.kind.take() {
            None => return,
            Some(WorkerKind::Logic(mut factory)) => {
                let mut worker = Worker::new(&self.name, factory());
                if !self.tidy {
                    worker = worker.untidy();
                }
                Box::new(worker)
            }
            Some(WorkerKind::Raw(mut factory)) => factory(),
        };
        let kernel = spawn(&format!("worker-{}", self.name), body);
        let port = kernel.global_env_handle(&worker_port_env(&self.name));
        self.port = Some(port.expect("the worker's base start published its port"));
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
    /// netd lanes in the multi-queue front end. `1` (the default) is the
    /// paper's single netd process; higher counts spawn one full netd
    /// instance per lane, with the RSS demultiplexer hashing each accepted
    /// connection to a lane so its whole event stream stays in that lane.
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
            netd_lanes: 1,
            db_store: None,
        }
    }

    /// Does nothing: a kernel is one delivery engine. Kept only because
    /// `benchmark/` (which a crate PR may not edit) calls it; the
    /// `[benchmark]` PR deletes it.
    pub fn sharded(self, _shards: usize) -> OkwsConfig {
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
    /// Every netd lane's control port, for ok-demux's `Listen`.
    netd: Vec<Handle>,
}

impl Launcher {
    /// Creates a launcher that will deploy `config` on start, in front of
    /// the netd lanes of `netd`.
    pub fn new(config: OkwsConfig, netd: &NetdHandle) -> Launcher {
        Launcher {
            config: Some(config),
            netd: netd.lanes.iter().map(|lane| lane.control_port).collect(),
        }
    }
}

impl Service for Launcher {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        let mut config = self.config.take().expect("launcher starts once");

        // Verification handles: one for the launcher itself (idd checks it
        // on account/DDL management), one for ok-demux (idd checks it on
        // Login), one for ok-dbproxy's admin port (its label admits only
        // holders at ⋆), one per worker (ok-demux checks registrations).
        // The system processes below inherit ⋆ on all but the workers'
        // by fork (§5.3); ok-demux proves itself with its own.
        let launcher_verify = sys.new_handle();
        sys.publish_env(LAUNCHER_VERIFY_ENV, Value::Handle(launcher_verify));
        let demux_verify = sys.new_handle();
        sys.publish_env(IDD_DEMUX_VERIFY_ENV, Value::Handle(demux_verify));
        let admin_verify = sys.new_handle();
        sys.publish_env(DB_ADMIN_VERIFY_ENV, Value::Handle(admin_verify));

        let mut names = Vec::new();
        let mut worker_verifies = Vec::new();
        for spec in &config.services {
            let wv = sys.new_handle();
            sys.publish_env(&svc_verify_env(&spec.name), Value::Handle(wv));
            sys.publish_env(
                &svc_declassifier_env(&spec.name),
                Value::Bool(spec.declassifier),
            );
            names.push(Value::Str(spec.name.clone().into()));
            worker_verifies.push(wv);
        }
        sys.publish_env(SVC_LIST_ENV, Value::List(names));

        // System processes, in dependency order: each one's `on_start`
        // reads what the ones before it published. ok-dbproxy publishes
        // its admin port, idd its login port; ok-demux needs both.
        let proxy = match config.db_store.take() {
            // §7.5 durability: the proxy recovers (snapshot + committed
            // WAL prefix) before serving its first message.
            Some(dev) => DbProxy::with_store(dev),
            None => DbProxy::new(),
        };
        sys.spawn("ok-dbproxy", Category::Okdb, Box::new(proxy))
            .expect("launcher runs outside event processes");
        sys.spawn("idd", Category::Okdb, Box::new(Idd::new()))
            .expect("launcher runs outside event processes");
        let demux = OkDemux::new(config.tcp_port, std::mem::take(&mut self.netd));
        sys.spawn("ok-demux", Category::Okws, Box::new(demux))
            .expect("launcher runs outside event processes");

        // Workers: the assembler placed each base process before the
        // launcher started, and recorded its port; activation grants the
        // worker its verification handle, and its activation event
        // process registers with ok-demux.
        for (spec, wv) in config.services.iter().zip(&worker_verifies) {
            let port = spec.port.expect("the assembler placed every worker");
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
                OkwsMsg::WorkerDdl { sql: ddl.clone() }.to_value(),
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
