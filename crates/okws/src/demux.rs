//! ok-demux: the trusted connection demultiplexer (§7.1–§7.3).
//!
//! ok-demux accepts each incoming TCP connection from netd, peeks at the
//! HTTP head to learn the requested service and credentials, authenticates
//! the user through idd, registers the user's taint with netd, and hands
//! the connection off to the right worker — to an existing session event
//! process when its session table has one, forking a fresh event process
//! otherwise.
//!
//! ok-demux reads the environment only in its `on_start` (the launcher's
//! wiring rule); netd's control port comes from the launcher.

use std::collections::BTreeMap;

use asbestos_kernel::{Handle, HandleMap, Label, Level, Message, SendArgs, Service, Sys, Value};
use asbestos_net::{parse_request, HttpRequest, NetMsg};

use crate::idd::{IDD_DEMUX_VERIFY_ENV, IDD_PORT_ENV};
use crate::proto::OkwsMsg;
use crate::worker::USER_MAX;

/// Environment key for ok-demux's worker registration port.
pub const DEMUX_REG_ENV: &str = "okws.demux.reg";

/// Environment key for ok-demux's control port (SessionNew/SessionEnd).
pub const DEMUX_PORT_ENV: &str = "okws.demux.port";

/// Environment key listing configured services (a `Value::List` of names).
pub const SVC_LIST_ENV: &str = "okws.svc.list";

/// Environment key for one service's verification handle value.
pub fn svc_verify_env(service: &str) -> String {
    format!("okws.svc.{service}.verify")
}

/// Environment key for one service's declassifier flag.
pub fn svc_declassifier_env(service: &str) -> String {
    format!("okws.svc.{service}.declassifier")
}

/// Cycles charged per demux protocol event.
pub const DEMUX_EVENT_CYCLES: u64 = 150_000;

/// Cycles charged to parse an HTTP head.
pub const DEMUX_PARSE_CYCLES: u64 = 120_000;

struct ServiceEntry {
    verify: Handle,
    declassifier: bool,
    port: Option<Handle>,
}

enum Phase {
    ReadingRequest,
    AwaitingLogin { req: HttpRequest },
}

/// What ok-demux knows of a user idd has logged in.
struct User {
    /// The password of the request whose `LoginR` succeeded: the fast path
    /// admits only this one, and sends any other to idd.
    password: String,
    taint: Handle,
    grant: Handle,
    /// §7.3's session table: service → session port uW.
    sessions: BTreeMap<String, Handle>,
}

struct ConnState {
    conn: Handle,
    phase: Phase,
}

/// The ok-demux service.
pub struct OkDemux {
    tcp_port: u16,
    /// netd's control port.
    netd: Handle,
    /// idd's login port.
    idd: Option<Handle>,
    /// ok-demux's verification handle, which proves it to idd.
    verify: Option<Handle>,
    services: BTreeMap<String, ServiceEntry>,
    /// Users idd has logged in (avoids re-login round trips; idd still
    /// owns the durable mapping).
    users: BTreeMap<String, User>,
    /// In-flight connections keyed by their per-connection reply port.
    pending: HandleMap<ConnState>,
    notify_port: Option<Handle>,
    reg_port: Option<Handle>,
    control_port: Option<Handle>,
}

impl OkDemux {
    /// Creates a demux that, once started, listens on `tcp_port` through
    /// the netd whose control port is `netd`.
    pub fn new(tcp_port: u16, netd: Handle) -> OkDemux {
        OkDemux {
            tcp_port,
            netd,
            idd: None,
            verify: None,
            services: BTreeMap::new(),
            users: BTreeMap::new(),
            pending: HandleMap::default(),
            notify_port: None,
            reg_port: None,
            control_port: None,
        }
    }

    /// `user`'s record, if `msg` proves it comes from `user`'s event
    /// process: §7.5's `V(uG) ≤ 0`, which the kernel lets through only from
    /// a holder of `uG ⋆` — the grant ok-demux hands only to that user's
    /// workers.
    fn speaker(&mut self, msg: &Message, user: &str) -> Option<&mut User> {
        self.users
            .get_mut(user)
            .filter(|u| msg.verify.get(u.grant) <= Level::L0)
    }

    /// Responds directly on a connection (error paths) and forgets it.
    fn respond_direct(&mut self, sys: &mut Sys<'_>, reply_port: Handle, status: u16, msg: &str) {
        let Some(state) = self.pending.remove(&reply_port) else {
            return;
        };
        let response = asbestos_net::http::build_response(status, msg, msg.as_bytes());
        let _ = sys.send(state.conn, NetMsg::Write { bytes: response }.to_value());
        let _ = sys.send(state.conn, NetMsg::Close.to_value());
        self.release_conn(sys, reply_port, state.conn);
    }

    /// Drops the per-connection capabilities from our send label — the
    /// §9.3 "release that capability when the connection is passed to an
    /// event process or closed" step that keeps ok-demux's labels from
    /// growing per *connection* (they still grow per *session*).
    fn release_conn(&mut self, sys: &mut Sys<'_>, reply_port: Handle, conn: Handle) {
        let _ = sys.dissociate_port(reply_port);
        sys.self_contaminate(&Label::from_pairs(
            Level::Star,
            &[(reply_port, Level::L1), (conn, Level::L1)],
        ));
    }

    fn handle_new_conn(&mut self, sys: &mut Sys<'_>, conn: Handle) {
        sys.charge(DEMUX_EVENT_CYCLES);
        // Per-connection reply port: idd and netd get ⋆ grants as needed.
        let reply = sys.new_port(Label::top());
        self.pending.insert(
            reply,
            ConnState {
                conn,
                phase: Phase::ReadingRequest,
            },
        );
        // §7.2 step 3: peek at the request head (the worker will read the
        // request in full later, step 8).
        let _ = sys.send_args(
            conn,
            NetMsg::Read {
                max: 4096,
                reply,
                peek: true,
            }
            .to_value(),
            &SendArgs::new().grant(star(reply)),
        );
    }

    fn handle_head(&mut self, sys: &mut Sys<'_>, reply_port: Handle, bytes: &[u8]) {
        sys.charge(DEMUX_PARSE_CYCLES);
        let req = match parse_request(bytes) {
            Ok(req) => req,
            Err(_) => {
                self.respond_direct(sys, reply_port, 400, "Bad Request");
                return;
            }
        };
        if !self.services.contains_key(req.service()) {
            self.respond_direct(sys, reply_port, 404, "No Such Service");
            return;
        }
        let (Some(user), Some(password)) = (req.param("user"), req.param("pw")) else {
            self.respond_direct(sys, reply_port, 401, "Credentials Required");
            return;
        };
        if user.len() > USER_MAX {
            // The worker's session record could not name this user, so
            // its SessionEnd would name one we do not know.
            self.respond_direct(sys, reply_port, 400, "User Name Too Long");
            return;
        }
        if let Some(u) = self.users.get(user).filter(|u| u.password == password) {
            // Fast path: a logged-in user presenting the password idd
            // confirmed. Any other password goes to idd.
            let (taint, grant) = (u.taint, u.grant);
            self.handoff(sys, reply_port, &req, user, taint, grant);
            return;
        }
        let (user, password) = (user.to_string(), password.to_string());
        // §7.2 step 3: authenticate through idd. Our verification handle
        // proves to idd that ok-demux is asking.
        let idd = self.idd.expect("idd publishes its login port");
        let my_verify = self
            .verify
            .expect("the launcher provisioned our verification handle");
        let v = Label::from_pairs(Level::L3, &[(my_verify, Level::L0)]);
        let _ = sys.send_args(
            idd,
            OkwsMsg::Login {
                user,
                password,
                reply: reply_port,
            }
            .to_value(),
            &SendArgs::new().verify(v).grant(star(reply_port)),
        );
        if let Some(state) = self.pending.get_mut(&reply_port) {
            state.phase = Phase::AwaitingLogin { req };
        }
    }

    fn handle_login_reply(
        &mut self,
        sys: &mut Sys<'_>,
        reply_port: Handle,
        ok: bool,
        user: String,
        taint: Option<Handle>,
        grant: Option<Handle>,
    ) {
        sys.charge(DEMUX_EVENT_CYCLES);
        if !ok {
            self.respond_direct(sys, reply_port, 403, "Login Failed");
            return;
        }
        let (Some(taint), Some(grant)) = (taint, grant) else {
            self.respond_direct(sys, reply_port, 500, "Bad Login Reply");
            return;
        };
        let Some(state) = self.pending.get_mut(&reply_port) else {
            return;
        };
        let Phase::AwaitingLogin { req } =
            std::mem::replace(&mut state.phase, Phase::ReadingRequest)
        else {
            return;
        };
        // Accept this user's taint from now on (needed to receive
        // SessionNew/SessionEnd from their tainted event processes); we
        // hold uT ⋆, so raising our own receive label is permitted.
        sys.raise_recv(taint, Level::L3)
            .expect("LoginR granted us the taint handle at ⋆");
        let password = req.param("pw").unwrap_or_default().to_string();
        let u = self.users.entry(user.clone()).or_insert_with(|| User {
            password: String::new(),
            taint,
            grant,
            sessions: BTreeMap::new(),
        });
        (u.password, u.taint, u.grant) = (password, taint, grant);
        self.handoff(sys, reply_port, &req, &user, taint, grant);
    }

    fn handoff(
        &mut self,
        sys: &mut Sys<'_>,
        reply_port: Handle,
        req: &HttpRequest,
        user: &str,
        taint: Handle,
        grant: Handle,
    ) {
        sys.charge(DEMUX_EVENT_CYCLES);
        let service = req.service();
        let entry = self
            .services
            .get(service)
            .expect("service checked in handle_head");
        let session = self.users.get(user).and_then(|u| u.sessions.get(service));
        if session.is_none() && entry.port.is_none() {
            // The worker never registered (§7.1): no one can serve this.
            self.respond_direct(sys, reply_port, 503, "Service Unavailable");
            return;
        }
        let Some(state) = self.pending.remove(&reply_port) else {
            return;
        };
        let conn = state.conn;

        // §7.2 step 5: register the user's taint with netd (granting uT ⋆),
        // so responses can flow back over uC and nowhere else.
        let _ = sys.send_args(
            conn,
            NetMsg::AddTaint { taint }.to_value(),
            &SendArgs::new().grant(star(taint)),
        );

        let handoff = OkwsMsg::ConnHandoff {
            conn,
            user: user.to_string(),
            taint,
            grant,
        }
        .to_value();

        if let Some(&session_port) = session {
            // §7.3: route to the existing session event process.
            let _ = sys.send_args(session_port, handoff, &SendArgs::new().grant(star(conn)));
        } else if let Some(worker_port) = entry.port {
            // §7.2 step 6: fork a fresh event process in the worker. Grant
            // uC ⋆ and uG ⋆; contaminate with uT 3 (or grant uT ⋆ to
            // declassifiers, §7.6); raise the event process's receive label
            // so tainted data can reach it.
            let args = if entry.declassifier {
                SendArgs::new()
                    .grant(Label::from_pairs(
                        Level::L3,
                        &[
                            (conn, Level::Star),
                            (grant, Level::Star),
                            (taint, Level::Star),
                        ],
                    ))
                    .raise_recv(taint3(taint))
            } else {
                SendArgs::new()
                    .grant(Label::from_pairs(
                        Level::L3,
                        &[(conn, Level::Star), (grant, Level::Star)],
                    ))
                    .contaminate(taint3(taint))
                    .raise_recv(taint3(taint))
            };
            let _ = sys.send_args(worker_port, handoff, &args);
        }
        // Either way, the connection is no longer ours.
        self.release_conn(sys, reply_port, conn);
    }
}

impl Service for OkDemux {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        self.idd = sys.env(IDD_PORT_ENV).and_then(|v| v.as_handle());
        self.verify = sys.env(IDD_DEMUX_VERIFY_ENV).and_then(|v| v.as_handle());

        // Load the service table the launcher provisioned in our env.
        if let Some(Value::List(names)) = sys.env(SVC_LIST_ENV) {
            for name in names.iter().filter_map(Value::as_str) {
                let verify = sys
                    .env(&svc_verify_env(name))
                    .and_then(|v| v.as_handle())
                    .expect("launcher sets a verification handle per service");
                let declassifier = sys
                    .env(&svc_declassifier_env(name))
                    .and_then(|v| v.as_bool())
                    .unwrap_or(false);
                self.services.insert(
                    name.to_string(),
                    ServiceEntry {
                        verify,
                        declassifier,
                        port: None,
                    },
                );
            }
        }

        // Registration port (workers), control port (session events), and
        // the netd notification port.
        let reg = sys.new_port(Label::top());
        sys.set_port_label(reg, Label::top())
            .expect("creator owns the port");
        sys.publish_env(DEMUX_REG_ENV, Value::Handle(reg));
        self.reg_port = Some(reg);

        let control = sys.new_port(Label::top());
        sys.set_port_label(control, Label::top())
            .expect("creator owns the port");
        sys.publish_env(DEMUX_PORT_ENV, Value::Handle(control));
        self.control_port = Some(control);

        let notify = sys.new_port(Label::top());
        sys.set_port_label(notify, Label::top())
            .expect("creator owns the port");
        self.notify_port = Some(notify);
        let listen = NetMsg::Listen {
            tcp_port: self.tcp_port,
            notify,
        };
        let _ = sys.send(self.netd, listen.to_value());
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        // Connection events from netd.
        if Some(msg.port) == self.notify_port {
            if let Some(NetMsg::NewConn { port }) = NetMsg::from_value(&msg.body) {
                self.handle_new_conn(sys, port);
            }
            return;
        }
        // Worker registration (§7.1): verified against the launcher table.
        if Some(msg.port) == self.reg_port {
            if let Some(OkwsMsg::Register { service, port }) = OkwsMsg::from_value(&msg.body) {
                if let Some(entry) = self.services.get_mut(&service) {
                    if msg.verify.get(entry.verify) <= Level::L0 {
                        entry.port = Some(port);
                    }
                }
            }
            return;
        }
        // Session lifecycle events from worker event processes. The port
        // is open to every worker, so each event must prove it speaks for
        // its user.
        if Some(msg.port) == self.control_port {
            match OkwsMsg::from_value(&msg.body) {
                Some(OkwsMsg::SessionNew {
                    user,
                    service,
                    port,
                }) => {
                    if let Some(u) = self.speaker(msg, &user) {
                        sys.charge(DEMUX_EVENT_CYCLES / 4);
                        u.sessions.insert(service, port);
                    }
                }
                Some(OkwsMsg::SessionEnd { user, service }) => {
                    // §7.3: "ok-demux cleans u's user-worker pairs out of
                    // its session table." Ack on the session port before
                    // releasing the uW ⋆: connections handed off before
                    // this point share uW's per-port FIFO with the ack, so
                    // the draining event process sheds them all and exits
                    // only once nothing more can arrive.
                    let ended = self.speaker(msg, &user);
                    if let Some(port) = ended.and_then(|u| u.sessions.remove(&service)) {
                        let _ = sys.send(port, OkwsMsg::SessionEndR.to_value());
                        sys.self_contaminate(&Label::from_pairs(Level::Star, &[(port, Level::L1)]));
                    }
                }
                _ => {}
            }
            return;
        }
        // Per-connection replies (netd ReadR or idd LoginR).
        if self.pending.contains_key(&msg.port) {
            if let Some(NetMsg::ReadR { bytes }) = NetMsg::from_value(&msg.body) {
                self.handle_head(sys, msg.port, &bytes);
            } else if let Some(OkwsMsg::LoginR {
                ok,
                user,
                taint,
                grant,
            }) = OkwsMsg::from_value(&msg.body)
            {
                self.handle_login_reply(sys, msg.port, ok, user, taint, grant);
            }
        }
    }
}

fn star(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

fn taint3(h: Handle) -> Label {
    Label::from_pairs(Level::Star, &[(h, Level::L3)])
}
