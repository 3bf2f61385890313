//! netd's taint rule, pinned golden-trace style.
//!
//! §7.2 step 5's contract — "when a process tells netd to add a taint
//! handle to a connection, later messages sent in response to operations
//! on that connection will be contaminated with the taint handle at
//! level 3" — is driven through a canonical tainted workload
//! (per-connection taint registration, a tainted attacker whose writes
//! must all be dropped, and a rightful response per connection), and the
//! observables — per-connection response bytes, netd's `uT` privileges,
//! and the label-check verdict count — are reduced to one FNV trace hash,
//! the `shard_determinism.rs` technique. The hash is pinned as a golden
//! constant: any change to what netd does with a connection's labels
//! moves it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs, Value};
use asbestos_net::{spawn_netd, ClientDriver, NetMsg};

const CONNS: usize = 12;
const TCP_PORT: u16 = 80;

fn star_grant(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

fn taint3(h: Handle) -> Label {
    Label::from_pairs(Level::Star, &[(h, Level::L3)])
}

/// FNV-1a over the canonical observables.
struct TraceHash(u64);

impl TraceHash {
    fn new() -> TraceHash {
        TraceHash(0xcbf2_9ce4_8422_2325)
    }
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Runs the canonical tainted workload; returns the trace hash.
fn run_tainted_workload() -> u64 {
    let mut kernel = Kernel::new(0x7A17);
    let netd = spawn_netd(&mut kernel);
    let netd_control = netd.control_port;
    let mut driver = ClientDriver::new(&netd);

    // index → (uC, uT); filled during phase A, read by phase B and the
    // final label audit.
    type ConnTable = Arc<Mutex<BTreeMap<u64, (Handle, Handle)>>>;
    let conns: ConnTable = Arc::new(Mutex::new(BTreeMap::new()));

    // The tainted attacker: carries its own user's taint and tries to
    // write on every connection it is handed. Figure 4 must drop every
    // attempt — the connections' port labels exclude its compartment.
    kernel.spawn(
        "attacker",
        Category::Okws,
        service_with_start(
            |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("attacker.port", Value::Handle(p));
                let vt = sys.new_handle();
                sys.self_contaminate(&taint3(vt));
            },
            |sys, msg| {
                if let Some(uc) = msg.body.as_handle() {
                    sys.send(
                        uc,
                        NetMsg::Write {
                            bytes: b"stolen".to_vec().into(),
                        }
                        .to_value(),
                    )
                    .unwrap();
                }
            },
        ),
    );

    // The trusted front end (ok-demux stand-in). Phase A (per NewConn):
    // peek the request head to learn the connection's index, register the
    // user taint with netd, and leak the capability to the
    // attacker. Phase B (external trigger per index): read the request in
    // full and respond over the tainted connection.
    let state = conns.clone();
    kernel.spawn(
        "frontend",
        Category::Okws,
        service_with_start(
            move |sys| {
                let notify = sys.new_port(Label::top());
                sys.set_port_label(notify, Label::top()).unwrap();
                let control = sys.new_port(Label::top());
                sys.set_port_label(control, Label::top()).unwrap();
                sys.publish_env("frontend.control", Value::Handle(control));
                let listen = NetMsg::Listen {
                    tcp_port: TCP_PORT,
                    notify,
                };
                sys.send(netd_control, listen.to_value()).unwrap();
            },
            move |sys, msg| match NetMsg::from_value(&msg.body) {
                Some(NetMsg::NewConn { port: uc }) => {
                    // Peek the head to learn which scripted connection
                    // this is.
                    let reply = sys.new_port(Label::top());
                    sys.set_port_label(reply, Label::top()).unwrap();
                    sys.set_env(&format!("peek.{}", reply.raw()), Value::Handle(uc));
                    sys.send_args(
                        uc,
                        NetMsg::Read {
                            max: 64,
                            reply,
                            peek: true,
                        }
                        .to_value(),
                        &SendArgs::new().grant(star_grant(reply)),
                    )
                    .unwrap();
                }
                Some(NetMsg::ReadR { bytes }) => {
                    if let Some(uc) = sys
                        .env(&format!("peek.{}", msg.port.raw()))
                        .and_then(|v| v.as_handle())
                    {
                        // Phase A continued: "req-{i}" identifies the
                        // connection; mint its user taint and register it
                        // with netd.
                        let text = String::from_utf8_lossy(&bytes).to_string();
                        let i: u64 = text
                            .strip_prefix("req-")
                            .and_then(|s| s.parse().ok())
                            .expect("scripted request head");
                        let ut = sys.new_handle();
                        state.lock().unwrap().insert(i, (uc, ut));
                        sys.send_args(
                            uc,
                            NetMsg::AddTaint { taint: ut }.to_value(),
                            &SendArgs::new().grant(star_grant(ut)),
                        )
                        .unwrap();
                        sys.raise_recv(ut, Level::L3).unwrap();
                        // Leak uC to the attacker (a compromised-demux
                        // model): the label system, not capability
                        // hygiene, must protect the connection.
                        let attacker = sys.env("attacker.port").unwrap().as_handle().unwrap();
                        sys.send_args(
                            attacker,
                            Value::Handle(uc),
                            &SendArgs::new().grant(star_grant(uc)),
                        )
                        .unwrap();
                    } else {
                        // Phase B reply: the full request; respond on the
                        // tainted connection and close it.
                        let uc = sys
                            .env(&format!("full.{}", msg.port.raw()))
                            .and_then(|v| v.as_handle())
                            .expect("full read maps back to its connection");
                        let mut out = b"RESP:".to_vec();
                        out.extend(bytes.to_ascii_uppercase());
                        out.extend(b":OK");
                        sys.send(uc, NetMsg::Write { bytes: out.into() }.to_value())
                            .unwrap();
                        sys.send(uc, NetMsg::Close.to_value()).unwrap();
                    }
                }
                _ => {
                    // Phase B trigger: Value::U64(i) on the control port.
                    if let Some(i) = msg.body.as_u64() {
                        let uc = state.lock().unwrap()[&i].0;
                        let reply = sys.new_port(Label::top());
                        sys.set_port_label(reply, Label::top()).unwrap();
                        sys.set_env(&format!("full.{}", reply.raw()), Value::Handle(uc));
                        sys.send_args(
                            uc,
                            NetMsg::Read {
                                max: 64,
                                reply,
                                peek: false,
                            }
                            .to_value(),
                            &SendArgs::new().grant(star_grant(reply)),
                        )
                        .unwrap();
                    }
                }
            },
        ),
    );

    // Startup settles (the LISTENs land), then phase A: all
    // connections arrive, get tainted, and survive the attacker.
    kernel.run();
    for i in 0..CONNS {
        driver.open(&mut kernel, TCP_PORT, format!("req-{i}").as_bytes());
    }
    kernel.run();
    let dropped_after_attack = kernel.stats().dropped_label_check;

    // Phase B: each connection is read in full and answered.
    let control = kernel.global_env_handle("frontend.control").unwrap();
    for i in 0..CONNS {
        kernel.inject(control, Value::U64(i as u64));
    }
    kernel.run();
    driver.poll(&kernel);

    // ---- Reduce the observables to the trace hash. ----
    let mut h = TraceHash::new();
    assert_eq!(driver.completed(), CONNS);
    let table = conns.lock().unwrap();
    for i in 0..CONNS {
        let req = driver.request(i);
        let expected = format!("RESP:REQ-{i}:OK");
        assert_eq!(req.response, expected.as_bytes(), "connection {i} response");
        let (_uc, ut) = table[&(i as u64)];
        // netd holds uT ⋆ (its own privilege survived the taint) and
        // accepts uT 3 traffic.
        let p = kernel.process(netd.pid);
        assert_eq!(p.send_label.get(ut), Level::Star, "netd keeps uT ⋆");
        assert_eq!(p.recv_label.get(ut), Level::L3, "netd accepts uT 3");
        h.eat(&(i as u64).to_le_bytes());
        h.eat(&req.response);
        // The tag the golden constant was recorded with.
        h.eat(b"own-lane:*3");
    }
    // Figure 4 verdicts: exactly one label-check drop per connection (the
    // attacker's write).
    assert_eq!(
        dropped_after_attack, CONNS as u64,
        "attacker writes dropped"
    );
    h.eat(&dropped_after_attack.to_le_bytes());
    assert_eq!(kernel.queue_len(), 0);
    h.0
}

/// Golden constant recorded from the single-netd configuration; see the
/// module docs. It must match forever.
const GOLDEN_SINGLE_NETD_TRACE: u64 = 0x27C8_02D3_F903_2323;

#[test]
fn single_lane_matches_golden_trace() {
    assert_eq!(run_tainted_workload(), GOLDEN_SINGLE_NETD_TRACE);
}
