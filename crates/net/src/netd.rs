//! The netd process: the privileged interface to the network (§7.7).
//!
//! netd owns the TCP substrate, wraps each connection in an Asbestos port
//! `uC`, and applies per-connection taint: "When a process tells netd to add
//! a taint handle to a connection, later messages sent in response to
//! operations on that connection will be contaminated with the taint handle
//! at level 3."
//!
//! ## Multi-queue lanes
//!
//! The paper runs netd as one process; this reproduction can run it as a
//! **multi-queue front end**: `lanes` full netd instances on the kernel's
//! one delivery engine, each owning the slice of the TCP substrate whose
//! connections the RSS demultiplexer ([`crate::tcp::rss_lane`]) hashes to
//! it. A connection's entire event history — accept, taint application,
//! reads, writes, close — is handled by exactly one lane; lanes share
//! nothing but the byte substrate and the global environment.
//! `lanes = 1` is the paper-faithful configuration and runs the identical
//! code path the single-netd build did.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use asbestos_kernel::{
    Category, Handle, Kernel, Label, Level, Message, ProcessId, SendArgs, Service, Sys, Value,
};

use crate::proto::NetMsg;
use crate::tcp::{ConnId, SimNet};

/// Cycle cost netd charges per protocol event (its per-message user-space
/// work: demultiplexing, buffer management). Calibrated in EXPERIMENTS.md.
pub const NETD_EVENT_CYCLES: u64 = 78_000;

/// Cycle cost netd charges per payload byte moved.
pub const NETD_BYTE_CYCLES: u64 = 40;

/// Environment key where netd publishes its control (listen) port.
///
/// On a multi-lane front end this names lane 0's control port (the lanes
/// also publish lane-qualified keys, [`netd_control_env`]); single-lane
/// deployments publish only this key, exactly as before.
pub const NETD_CONTROL_ENV: &str = "netd.control";

/// Environment key where netd's device port is published (used by the
/// external driver to inject connection events; not a process-facing port).
pub const NETD_DEVICE_ENV: &str = "netd.device";

/// Environment key for the lane count of a multi-queue netd front end.
/// Published (as a `Value::U64`) only when `lanes > 1`; absence means the
/// single-netd configuration.
pub const NETD_LANES_ENV: &str = "netd.lanes";

/// Environment key for lane `lane`'s control (listen) port.
pub fn netd_control_env(lane: usize) -> String {
    format!("netd.control.{lane}")
}

/// Environment key for lane `lane`'s device port.
pub fn netd_device_env(lane: usize) -> String {
    format!("netd.device.{lane}")
}

/// Reads the lane count a running deployment published (1 when absent —
/// the single-netd configuration publishes no lane count).
pub fn netd_lanes(kernel: &Kernel) -> usize {
    kernel
        .global_env(NETD_LANES_ENV)
        .and_then(|v| v.as_u64())
        .map_or(1, |n| n as usize)
}

/// State netd keeps per live connection.
struct ConnState {
    conn: ConnId,
    /// Taint handle applied to replies, once registered.
    taint: Option<Handle>,
    /// Reply-port capabilities granted for this connection's reads; they
    /// are released on Close so netd's send label grows per *session*
    /// (taint handles), not per connection (§9.3's release discipline).
    reply_caps: Vec<Handle>,
}

/// The netd service: one network lane (the whole network when `lanes = 1`).
pub struct Netd {
    net: Rc<RefCell<SimNet>>,
    /// This instance's lane index.
    lane: usize,
    /// Total lanes in the front end (1 = the paper's single netd).
    lanes: usize,
    /// Connection port `uC` → connection state.
    conns: BTreeMap<Handle, ConnState>,
    /// TCP port → notify port of the registered listener.
    listeners: BTreeMap<u16, Handle>,
    control_port: Option<Handle>,
    device_port: Option<Handle>,
}

impl Netd {
    /// Creates the single-netd service over a shared substrate.
    pub fn new(net: Rc<RefCell<SimNet>>) -> Netd {
        Netd::lane(net, 0, 1)
    }

    /// Creates lane `lane` of a `lanes`-wide front end.
    pub fn lane(net: Rc<RefCell<SimNet>>, lane: usize, lanes: usize) -> Netd {
        assert!(lanes >= 1 && lane < lanes, "lane {lane} of {lanes} lanes");
        Netd {
            net,
            lane,
            lanes,
            conns: BTreeMap::new(),
            listeners: BTreeMap::new(),
            control_port: None,
            device_port: None,
        }
    }

    fn handle_device_event(&mut self, sys: &mut Sys<'_>, msg: NetMsg) {
        if let NetMsg::DevNewConn { conn, tcp_port } = msg {
            self.accept(sys, conn, tcp_port);
        }
    }

    /// Admits one connection: allocate `uC`, record state, notify the
    /// listener.
    fn accept(&mut self, sys: &mut Sys<'_>, conn: ConnId, tcp_port: u16) {
        let Some(&notify) = self.listeners.get(&tcp_port) else {
            // No listener: refuse the connection.
            self.net.borrow_mut().close(conn);
            return;
        };
        // §7.2 step 1: allocate uC with port label {uC 0, 2} — the kernel's
        // new_port already applies `p_R(uC) ← 0` to our {2}.
        let uc = sys.new_port(Label::default_recv());
        self.conns.insert(
            uc,
            ConnState {
                conn,
                taint: None,
                reply_caps: Vec::new(),
            },
        );
        // Step 2: notify the listener, granting uC at ⋆.
        let grant = Label::from_pairs(Level::L3, &[(uc, Level::Star)]);
        sys.send_args(
            notify,
            NetMsg::NewConn { port: uc }.to_value(),
            &SendArgs::new().grant(grant),
        )
        .expect("netd owns uC and may grant it");
    }

    fn handle_conn_message(&mut self, sys: &mut Sys<'_>, uc: Handle, msg: NetMsg) {
        let Some(state) = self.conns.get(&uc) else {
            return;
        };
        let conn = state.conn;
        let taint = state.taint;
        // Replies for tainted connections carry `uT 3` (§7.2 step 5: "netd
        // will respond to all messages on uC with replies contaminated with
        // uT 3"). netd itself holds uT ⋆, so its own label is unaffected.
        let reply_args = || match taint {
            Some(t) => {
                SendArgs::new().contaminate(Label::from_pairs(Level::Star, &[(t, Level::L3)]))
            }
            None => SendArgs::new(),
        };
        match msg {
            NetMsg::Read { max, reply, peek } => {
                if let Some(s) = self.conns.get_mut(&uc) {
                    if !s.reply_caps.contains(&reply) {
                        s.reply_caps.push(reply);
                    }
                }
                let limit = usize::try_from(max).unwrap_or(usize::MAX);
                // Zero-copy ingest: the substrate freezes the read bytes
                // once, into a refcounted payload that rides into the
                // kernel — the single write-at-the-edge the whole message
                // path preserves.
                let bytes = if peek {
                    self.net.borrow_mut().server_peek(conn, limit)
                } else {
                    self.net.borrow_mut().server_read(conn, limit)
                };
                sys.charge(NETD_EVENT_CYCLES + bytes.len() as u64 * NETD_BYTE_CYCLES);
                let body = NetMsg::ReadR { bytes }.to_value();
                let _ = sys.send_args(reply, body, &reply_args());
            }
            NetMsg::Write { bytes } => {
                sys.charge(NETD_EVENT_CYCLES + bytes.len() as u64 * NETD_BYTE_CYCLES);
                self.net.borrow_mut().server_write(conn, &bytes);
            }
            NetMsg::AddTaint { taint } => {
                sys.charge(NETD_EVENT_CYCLES);
                // The sender granted us taint ⋆ alongside this message
                // (§7.2 step 5). Raise our receive label so uT-tainted
                // processes can keep talking to us, and raise uC's port
                // label to {uC 0, uT 3, 2}. Any holder of uC ⋆ can send
                // this — ok-demux hands it to every worker session — so
                // one that came without the grant is dropped, as a failed
                // label check drops a message: the connection keeps its
                // port label and its recorded taint.
                if sys.raise_recv(taint, Level::L3).is_err() {
                    return;
                }
                let port_label =
                    Label::from_pairs(Level::L2, &[(uc, Level::L0), (taint, Level::L3)]);
                sys.set_port_label(uc, port_label)
                    .expect("netd owns every connection port");
                if let Some(s) = self.conns.get_mut(&uc) {
                    s.taint = Some(taint);
                }
            }
            NetMsg::Select { reply } => {
                sys.charge(NETD_EVENT_CYCLES);
                let available = self.net.borrow().server_pending(conn) as u64;
                let _ = sys.send_args(
                    reply,
                    NetMsg::SelectR { available }.to_value(),
                    &reply_args(),
                );
            }
            NetMsg::Close => {
                sys.charge(NETD_EVENT_CYCLES);
                // Mark closed; buffered response bytes stay readable by the
                // client side (FIN after flush). The driver reaps the
                // substrate record once it has drained the response.
                self.net.borrow_mut().close(conn);
                let state = self.conns.remove(&uc);
                let _ = sys.dissociate_port(uc);
                // Release this connection's capabilities (§9.3): uC itself
                // plus every reply port granted for its reads. Taint ⋆
                // entries stay — those are the per-user growth Figure 9
                // measures.
                let mut drops = vec![(uc, Level::L1)];
                if let Some(state) = state {
                    drops.extend(state.reply_caps.iter().map(|&p| (p, Level::L1)));
                }
                sys.self_contaminate(&Label::from_pairs(Level::Star, &drops));
            }
            _ => {}
        }
    }
}

impl Service for Netd {
    fn on_start(&mut self, sys: &mut Sys<'_>) {
        // Control port: open to any untainted process (LISTEN requests).
        let control = sys.new_port(Label::top());
        sys.set_port_label(control, Label::top())
            .expect("creator owns the control port");
        if self.lanes == 1 {
            // Single-netd configuration: exactly the pre-lane publication
            // sequence (pinned bit-for-bit by netd_determinism.rs).
            sys.publish_env(NETD_CONTROL_ENV, Value::Handle(control));
        } else {
            sys.publish_env(&netd_control_env(self.lane), Value::Handle(control));
        }
        self.control_port = Some(control);

        // Device port: where the external world injects connection events.
        // Its label stays fresh-closed — injected messages bypass labels
        // (they are hardware), and no simulated process can forge one.
        let device = sys.new_port(Label::default_recv());
        if self.lanes == 1 {
            sys.publish_env(NETD_DEVICE_ENV, Value::Handle(device));
        } else {
            sys.publish_env(&netd_device_env(self.lane), Value::Handle(device));
            if self.lane == 0 {
                // Lane 0 doubles as the legacy single-netd namespace so
                // lane-unaware code still finds *a* netd, and announces
                // the front end's width for lane-aware clients.
                sys.publish_env(NETD_CONTROL_ENV, Value::Handle(control));
                sys.publish_env(NETD_DEVICE_ENV, Value::Handle(device));
                sys.publish_env(NETD_LANES_ENV, Value::U64(self.lanes as u64));
            }
        }
        self.device_port = Some(device);
    }

    fn on_message(&mut self, sys: &mut Sys<'_>, msg: &Message) {
        let Some(net_msg) = NetMsg::from_value(&msg.body) else {
            return;
        };
        sys.charge(NETD_EVENT_CYCLES / 8); // demux overhead per event
        if Some(msg.port) == self.device_port {
            sys.charge(NETD_EVENT_CYCLES); // interrupt + TCP setup work
            self.handle_device_event(sys, net_msg);
        } else if Some(msg.port) == self.control_port {
            if let NetMsg::Listen { tcp_port, notify } = net_msg {
                self.listeners.insert(tcp_port, notify);
            }
        } else {
            let uc = msg.port;
            self.handle_conn_message(sys, uc, net_msg);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// One spawned lane of the front end.
#[derive(Clone, Copy, Debug)]
pub struct NetdLane {
    /// The lane's process id.
    pub pid: ProcessId,
    /// The lane's control port (LISTEN requests).
    pub control_port: Handle,
    /// The lane's device port (external injections).
    pub device_port: Handle,
}

/// Spawn info for a running netd front end.
pub struct NetdHandle {
    /// Every lane, in lane order (length 1 for the single-netd build).
    pub lanes: Vec<NetdLane>,
    /// The shared TCP substrate.
    pub net: Rc<RefCell<SimNet>>,
}

/// Spawns the single-process netd into a kernel (the paper-faithful
/// configuration; identical to `spawn_netd_lanes(kernel, 1)`).
pub fn spawn_netd(kernel: &mut Kernel) -> NetdHandle {
    spawn_netd_lanes(kernel, 1)
}

/// Spawns a `lanes`-wide multi-queue netd front end.
///
/// Lane `i` is the `i`-th process spawned here, so a single-lane front
/// end is spawned exactly as the old single netd was. Each lane publishes
/// its lane-qualified control/device ports in the global environment;
/// lane 0 additionally publishes the legacy unqualified keys and
/// [`NETD_LANES_ENV`].
pub fn spawn_netd_lanes(kernel: &mut Kernel, lanes: usize) -> NetdHandle {
    assert!(lanes >= 1, "a netd front end needs at least one lane");
    let net = Rc::new(RefCell::new(SimNet::new()));
    let mut lane_handles = Vec::with_capacity(lanes);
    for lane in 0..lanes {
        let name = if lane == 0 {
            "netd".to_string()
        } else {
            format!("netd.{lane}")
        };
        let service = Box::new(Netd::lane(net.clone(), lane, lanes));
        let pid = kernel.spawn(&name, Category::Network, service);
        let (control_key, device_key) = if lanes == 1 {
            (NETD_CONTROL_ENV.to_string(), NETD_DEVICE_ENV.to_string())
        } else {
            (netd_control_env(lane), netd_device_env(lane))
        };
        let control_port = kernel
            .global_env_handle(&control_key)
            .expect("every netd lane publishes its control port on start");
        let device_port = kernel
            .global_env_handle(&device_key)
            .expect("every netd lane publishes its device port on start");
        lane_handles.push(NetdLane {
            pid,
            control_port,
            device_port,
        });
    }
    NetdHandle {
        lanes: lane_handles,
        net,
    }
}
