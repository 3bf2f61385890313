//! Compromised workers (§7.8) that attack OKWS's wiring rather than its
//! labels, shared by the single-kernel tests (`okws_flow.rs`) and the
//! federated ones (`asbestos-cluster`'s `okws_cluster.rs`).
//!
//! Each is a raw event-process service. It records every message it
//! receives other than its own `Activate` in the [`Loot`] of its
//! deployment: a test that wants isolation to hold asserts the loot is
//! empty.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use asbestos_db::{DbMsg, DB_ADMIN_ENV, DB_ADMIN_VERIFY_ENV};
use asbestos_kernel::{EpService, Handle, Label, Level, Message, SendArgs, Sys, Value};
use asbestos_net::NETD_CONTROL_ENV;
use asbestos_okws::demux::svc_verify_env;
use asbestos_okws::idd::{IDD_DEMUX_VERIFY_ENV, IDD_PORT_ENV, LAUNCHER_VERIFY_ENV};
use asbestos_okws::worker::worker_port_env;
use asbestos_okws::{OkwsMsg, ServiceSpec};

/// What the compromised workers of one deployment share.
#[derive(Default)]
pub struct Loot {
    /// The real ports the workers attack, each captured by the first
    /// worker to look, before any of them overwrites it on activation.
    targets: RefCell<BTreeMap<&'static str, Handle>>,
    /// Every message a worker received other than its own `Activate`.
    pub received: RefCell<Vec<String>>,
}

impl Loot {
    fn target(&self, sys: &Sys<'_>, key: &'static str) -> Option<Handle> {
        let mut targets = self.targets.borrow_mut();
        if let Some(port) = sys.env(key).and_then(|v| v.as_handle()) {
            targets.entry(key).or_insert(port);
        }
        targets.get(key).copied()
    }

    fn record(&self, service: &str, msg: &Message) {
        let seen = format!("{service} received {:?}", msg.body);
        self.received.borrow_mut().push(seen);
    }
}

/// The service port a worker's base start makes and publishes under its
/// own service's key, as a real worker's does.
fn public_port(sys: &mut Sys<'_>, service: &str) -> Handle {
    let port = sys.new_port(Label::top());
    sys.set_port_label(port, Label::top()).unwrap();
    sys.publish_env(&worker_port_env(service), Value::Handle(port));
    port
}

/// A worker that rewires every key a trusted process reads: in its base
/// start, and again on activation, it writes its own port under each
/// port key (netd's control port, `store`'s service port, idd's login
/// port, ok-dbproxy's admin port) and a handle it minted under each
/// verification key (the launcher's, ok-demux's, `store`'s, the admin
/// port's). On activation it also sends idd a `Login` for alice, proven
/// with its own handle, and the real admin port an `Exec` that reads
/// idd's credential table, both answered to its own port.
pub struct Rewirer {
    service: &'static str,
    loot: Rc<Loot>,
    /// Its public port and its minted handle, from the base start.
    own: Option<(Handle, Handle)>,
}

impl Rewirer {
    /// The spec of a rewiring worker named `service`.
    pub fn spec(service: &'static str, loot: &Rc<Loot>) -> ServiceSpec {
        let loot = loot.clone();
        ServiceSpec::raw(service, move || {
            Box::new(Rewirer {
                service,
                loot: loot.clone(),
                own: None,
            })
        })
    }

    fn rewire(&self, sys: &mut Sys<'_>) {
        let (port, verify) = self.own.unwrap();
        for key in [NETD_CONTROL_ENV, IDD_PORT_ENV, DB_ADMIN_ENV] {
            sys.publish_env(key, Value::Handle(port));
        }
        sys.publish_env(&worker_port_env("store"), Value::Handle(port));
        for key in [
            LAUNCHER_VERIFY_ENV,
            IDD_DEMUX_VERIFY_ENV,
            DB_ADMIN_VERIFY_ENV,
        ] {
            sys.publish_env(key, Value::Handle(verify));
        }
        sys.publish_env(&svc_verify_env("store"), Value::Handle(verify));
    }
}

impl EpService for Rewirer {
    fn on_base_start(&mut self, sys: &mut Sys<'_>) {
        self.own = Some((public_port(sys, self.service), sys.new_handle()));
        self.rewire(sys);
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        match OkwsMsg::from_value(&msg.body) {
            Some(OkwsMsg::Activate { service, .. }) if service == self.service => {
                let (idd, admin) = (
                    self.loot.target(sys, IDD_PORT_ENV),
                    self.loot.target(sys, DB_ADMIN_ENV),
                );
                self.rewire(sys);
                let (reply, verify) = self.own.unwrap();
                if let Some(idd) = idd {
                    let login = OkwsMsg::Login {
                        user: "alice".into(),
                        password: "pw-a".into(),
                        reply,
                    };
                    let v = Label::from_pairs(Level::L3, &[(verify, Level::L0)]);
                    let _ = sys.send_args(idd, login.to_value(), &SendArgs::new().verify(v));
                }
                if let Some(admin) = admin {
                    let _ = sys.send(admin, read_credentials(reply).to_value());
                }
            }
            _ => self.loot.record(self.service, msg),
        }
        let _ = sys.ep_exit();
    }
}

/// A raw `Exec` of idd's credential table, answered to `reply`.
fn read_credentials(reply: Handle) -> DbMsg {
    DbMsg::Exec {
        user: String::new(),
        sql: "SELECT name, pw FROM okws_users".into(),
        params: vec![],
        reply: Some(reply),
    }
}

/// A worker that squats on the admin port's key: its base start publishes
/// its own port as [`DB_ADMIN_ENV`]. On activation it sends the admin port
/// the environment then names a `Bind` of alice to handles it minted,
/// granted at `⋆`, and an `Exec`, both answered to its own port.
pub struct BindingSquatter {
    loot: Rc<Loot>,
    port: Option<Handle>,
}

impl BindingSquatter {
    /// The spec of a squatting worker, the service `squat`.
    pub fn spec(loot: &Rc<Loot>) -> ServiceSpec {
        let loot = loot.clone();
        ServiceSpec::raw("squat", move || {
            Box::new(BindingSquatter {
                loot: loot.clone(),
                port: None,
            })
        })
    }
}

impl EpService for BindingSquatter {
    fn on_base_start(&mut self, sys: &mut Sys<'_>) {
        let port = public_port(sys, "squat");
        sys.publish_env(DB_ADMIN_ENV, Value::Handle(port));
        self.port = Some(port);
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        match OkwsMsg::from_value(&msg.body) {
            Some(OkwsMsg::Activate { service, .. }) if service == "squat" => {
                let admin = sys.env(DB_ADMIN_ENV).and_then(|v| v.as_handle()).unwrap();
                let reply = self.port.unwrap();
                let (taint, grant) = (sys.new_handle(), sys.new_handle());
                let bind = DbMsg::Bind {
                    user: "alice".into(),
                    taint,
                    grant,
                    reply: Some(reply),
                };
                let star = [(taint, Level::Star), (grant, Level::Star)];
                let args = SendArgs::new().grant(Label::from_pairs(Level::L3, &star));
                let _ = sys.send_args(admin, bind.to_value(), &args);
                let _ = sys.send(admin, read_credentials(reply).to_value());
            }
            _ => self.loot.record("squat", msg),
        }
        let _ = sys.ep_exit();
    }
}

/// A worker that squats on one environment key a worker reads: on
/// activation it overwrites `key` with `Unit`, or with its own public
/// port when `own_port` is set. Listed before the victim service, it
/// gets there before the victim's activation and sessions read the key.
pub struct KeySquatter {
    key: &'static str,
    own_port: bool,
    loot: Rc<Loot>,
    port: Option<Handle>,
}

impl KeySquatter {
    /// The spec of a squatting worker on `key`, the service `squat`.
    pub fn spec(key: &'static str, own_port: bool, loot: &Rc<Loot>) -> ServiceSpec {
        let loot = loot.clone();
        ServiceSpec::raw("squat", move || {
            Box::new(KeySquatter {
                key,
                own_port,
                loot: loot.clone(),
                port: None,
            })
        })
    }
}

impl EpService for KeySquatter {
    fn on_base_start(&mut self, sys: &mut Sys<'_>) {
        self.port = Some(public_port(sys, "squat"));
    }

    fn on_event(&self, sys: &mut Sys<'_>, msg: &Message) {
        match OkwsMsg::from_value(&msg.body) {
            Some(OkwsMsg::Activate { service, .. }) if service == "squat" => {
                let value = match self.own_port {
                    true => Value::Handle(self.port.unwrap()),
                    false => Value::Unit,
                };
                sys.publish_env(self.key, value);
            }
            _ => self.loot.record("squat", msg),
        }
        let _ = sys.ep_exit();
    }
}
