//! The netd process: the privileged interface to the network (§7.7).
//!
//! netd owns the TCP substrate, wraps each connection in an Asbestos port
//! `uC`, and applies per-connection taint: "When a process tells netd to add
//! a taint handle to a connection, later messages sent in response to
//! operations on that connection will be contaminated with the taint handle
//! at level 3."
//!
//! The paper runs netd as one process, and so does this reproduction: one
//! netd owns the whole TCP substrate, so each connection's event history
//! (accept, taint application, reads, writes, close) is handled by one
//! process by construction.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use asbestos_kernel::{
    Category, Handle, HandleMap, Kernel, Label, Level, Message, ProcessId, SendArgs, Service, Sys,
    Value,
};

use crate::proto::NetMsg;
use crate::tcp::{ConnId, SimNet};

/// Cycle cost netd charges per protocol event (its per-message user-space
/// work: demultiplexing, buffer management). Calibrated in EXPERIMENTS.md.
pub const NETD_EVENT_CYCLES: u64 = 78_000;

/// Cycle cost netd charges per payload byte moved.
pub const NETD_BYTE_CYCLES: u64 = 40;

/// Environment key where netd publishes its control (listen) port.
pub const NETD_CONTROL_ENV: &str = "netd.control";

/// Environment key where netd's device port is published (used by the
/// external driver to inject connection events; not a process-facing port).
pub const NETD_DEVICE_ENV: &str = "netd.device";

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

/// The netd service.
pub struct Netd {
    net: Rc<RefCell<SimNet>>,
    /// Connection port `uC` → connection state.
    conns: HandleMap<ConnState>,
    /// TCP port → notify port of the registered listener.
    listeners: BTreeMap<u16, Handle>,
    control_port: Option<Handle>,
    device_port: Option<Handle>,
}

impl Netd {
    /// Creates the netd service over a shared substrate.
    pub fn new(net: Rc<RefCell<SimNet>>) -> Netd {
        Netd {
            net,
            conns: HandleMap::default(),
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
        sys.publish_env(NETD_CONTROL_ENV, Value::Handle(control));
        self.control_port = Some(control);

        // Device port: where the external world injects connection events.
        // Its label stays fresh-closed — injected messages bypass labels
        // (they are hardware), and no simulated process can forge one.
        let device = sys.new_port(Label::default_recv());
        sys.publish_env(NETD_DEVICE_ENV, Value::Handle(device));
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

/// Spawn info for a running netd.
pub struct NetdHandle {
    /// netd's process id.
    pub pid: ProcessId,
    /// netd's control port (LISTEN requests).
    pub control_port: Handle,
    /// netd's device port (external injections).
    pub device_port: Handle,
    /// The shared TCP substrate.
    pub net: Rc<RefCell<SimNet>>,
    /// Does nothing: always the one entry `[NetdLane { pid }]`, since
    /// there is one netd. Kept only because `benchmark/` (which a crate
    /// change may not edit) reads it; use [`NetdHandle::pid`].
    pub lanes: [NetdLane; 1],
}

/// The entry type of the inert [`NetdHandle::lanes`] stub.
#[derive(Clone, Copy, Debug)]
pub struct NetdLane {
    /// netd's process id.
    pub pid: ProcessId,
}

/// Spawns the netd process into a kernel.
pub fn spawn_netd(kernel: &mut Kernel) -> NetdHandle {
    let net = Rc::new(RefCell::new(SimNet::new()));
    let pid = kernel.spawn("netd", Category::Network, Box::new(Netd::new(net.clone())));
    let control_port = kernel
        .global_env_handle(NETD_CONTROL_ENV)
        .expect("netd publishes its control port on start");
    let device_port = kernel
        .global_env_handle(NETD_DEVICE_ENV)
        .expect("netd publishes its device port on start");
    NetdHandle {
        pid,
        control_port,
        device_port,
        net,
        lanes: [NetdLane { pid }],
    }
}
