//! Multi-queue conformance: the per-connection event contract.
//!
//! The observable contract of the netd refactor (RSS-demuxed connections
//! over several lanes) is each connection's *event history*: the order of
//! reads and writes on one connection, and the bytes they carry, must be
//! exactly what the paper's single netd produced — for every lane count.
//! This property test drives random connection/message interleavings
//! through a chunked echo server and asserts the per-connection response
//! streams at lanes ∈ {2, 4} equal the single-netd model's.
//!
//! The echo server stamps every chunk it reads with a per-connection
//! sequence number before writing it back, so any per-connection
//! reordering — a read overtaking a read, a write overtaking a write —
//! changes the response bytes and fails the comparison.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, SendArgs};
use asbestos_net::{spawn_netd_lanes, ClientDriver, NetMsg};
use proptest::prelude::*;

fn star_grant(h: Handle) -> Label {
    Label::from_pairs(Level::L3, &[(h, Level::Star)])
}

/// Per-connection state of the chunked echo server.
struct EchoConn {
    uc: Handle,
    seq: u64,
}

/// One generated workload: connection payloads (each ending in `!`), the
/// run epoch each connection opens in, and the server's read chunk size.
#[derive(Clone, Debug)]
struct Workload {
    payloads: Vec<Vec<u8>>,
    open_epoch: Vec<usize>,
    epochs: usize,
    chunk: u64,
}

/// Runs the workload on a kernel with the given lane count; returns each
/// connection's full response bytes, in open order.
fn run_workload(w: &Workload, lanes: usize) -> Vec<Vec<u8>> {
    let mut kernel = Kernel::new(0x1A7E);
    let netd = spawn_netd_lanes(&mut kernel, lanes);
    let mut driver = ClientDriver::new(&netd);
    let controls: Vec<Handle> = netd.lanes.iter().map(|l| l.control_port).collect();

    // The chunked echo server: reads `chunk` bytes at a time, writes each
    // chunk back as "[seq:CHUNK]", closes after the '!' terminator.
    let conns: Arc<Mutex<BTreeMap<Handle, EchoConn>>> = Arc::new(Mutex::new(BTreeMap::new()));
    let chunk = w.chunk;
    let state = conns.clone();
    kernel.spawn(
        "chunked-echo",
        Category::Other,
        service_with_start(
            move |sys| {
                let notify = sys.new_port(Label::top());
                sys.set_port_label(notify, Label::top()).unwrap();
                for &control in &controls {
                    let listen = NetMsg::Listen {
                        tcp_port: 80,
                        notify,
                    };
                    sys.send(control, listen.to_value()).unwrap();
                }
            },
            move |sys, msg| match NetMsg::from_value(&msg.body) {
                Some(NetMsg::NewConn { port: uc }) => {
                    let reply = sys.new_port(Label::top());
                    sys.set_port_label(reply, Label::top()).unwrap();
                    state.lock().unwrap().insert(reply, EchoConn { uc, seq: 0 });
                    sys.send_args(
                        uc,
                        NetMsg::Read {
                            max: chunk,
                            reply,
                            peek: false,
                        }
                        .to_value(),
                        &SendArgs::new().grant(star_grant(reply)),
                    )
                    .unwrap();
                }
                Some(NetMsg::ReadR { bytes }) => {
                    let mut map = state.lock().unwrap();
                    let Some(conn) = map.get_mut(&msg.port) else {
                        return;
                    };
                    let uc = conn.uc;
                    let seq = conn.seq;
                    conn.seq += 1;
                    let done = bytes.is_empty() || bytes.contains(&b'!');
                    if done {
                        map.remove(&msg.port);
                    }
                    drop(map);
                    if !bytes.is_empty() {
                        let mut out = format!("[{seq}:").into_bytes();
                        out.extend(bytes.to_ascii_uppercase());
                        out.push(b']');
                        sys.send(uc, NetMsg::Write { bytes: out.into() }.to_value())
                            .unwrap();
                    }
                    if done {
                        sys.send(uc, NetMsg::Close.to_value()).unwrap();
                    } else {
                        sys.send_args(
                            uc,
                            NetMsg::Read {
                                max: chunk,
                                reply: msg.port,
                                peek: false,
                            }
                            .to_value(),
                            &SendArgs::new().grant(star_grant(msg.port)),
                        )
                        .unwrap();
                    }
                }
                _ => {}
            },
        ),
    );

    // Let startup settle (the LISTEN registrations land),
    // exactly as `Okws::start` does before serving traffic.
    kernel.run();

    // Interleave opens across run epochs exactly as generated.
    for epoch in 0..w.epochs {
        for (i, payload) in w.payloads.iter().enumerate() {
            if w.open_epoch[i] == epoch {
                driver.open(&mut kernel, 80, payload);
            }
        }
        kernel.run();
    }
    kernel.run();
    driver.poll(&kernel);

    assert_eq!(
        driver.completed(),
        w.payloads.len(),
        "every connection must finish at lanes={lanes}"
    );
    assert_eq!(kernel.queue_len(), 0);
    // Map driver request order (opens happened epoch by epoch) back to
    // payload index order.
    let mut order: Vec<usize> = Vec::new();
    for epoch in 0..w.epochs {
        for (i, _) in w.payloads.iter().enumerate() {
            if w.open_epoch[i] == epoch {
                order.push(i);
            }
        }
    }
    let mut responses = vec![Vec::new(); w.payloads.len()];
    for (req_idx, &payload_idx) in order.iter().enumerate() {
        responses[payload_idx] = driver.request(req_idx).response.clone();
    }
    responses
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Per-connection delivery order and payload bytes are identical at
    /// lanes ∈ {1, 2, 4} and equal to the single-netd model.
    #[test]
    fn per_connection_fifo_is_lane_invariant(
        bodies in prop::collection::vec("[a-z]{1,24}", 1..9),
        epoch_picks in prop::collection::vec(0usize..3, 1..9),
        chunk in 1u64..7,
    ) {
        let payloads: Vec<Vec<u8>> = bodies
            .iter()
            .map(|b| {
                let mut p = b.clone().into_bytes();
                p.push(b'!');
                p
            })
            .collect();
        let open_epoch: Vec<usize> = payloads
            .iter()
            .enumerate()
            .map(|(i, _)| epoch_picks[i % epoch_picks.len()])
            .collect();
        let w = Workload {
            payloads,
            open_epoch,
            epochs: 3,
            chunk,
        };

        // The single-netd model: one lane (the paper's build).
        let model = run_workload(&w, 1);
        for lanes in [2, 4] {
            let got = run_workload(&w, lanes);
            prop_assert_eq!(
                &model, &got,
                "per-connection streams diverged at lanes={}",
                lanes
            );
        }

        // And the model itself echoes every chunk in order.
        for (i, resp) in model.iter().enumerate() {
            let expected_chunks = (w.payloads[i].len() as u64).div_ceil(w.chunk);
            let seqs = resp.iter().filter(|&&b| b == b'[').count() as u64;
            prop_assert_eq!(seqs, expected_chunks);
        }
    }
}

/// The RSS demux must actually spread a realistic accept stream over the
/// lanes (no lane starved), while every lane count yields the same bytes.
#[test]
fn four_lanes_share_the_accept_stream() {
    let payloads: Vec<Vec<u8>> = (0..24).map(|i| format!("conn-{i}!").into_bytes()).collect();
    let open_epoch = vec![0; payloads.len()];
    let w = Workload {
        payloads,
        open_epoch,
        epochs: 1,
        chunk: 5,
    };

    let mut kernel = Kernel::new(7);
    let netd = spawn_netd_lanes(&mut kernel, 4);
    let mut driver = ClientDriver::new(&netd);
    // No listener: connections are refused, but the demux decision has
    // already been recorded — which is all this test reads.
    for p in &w.payloads {
        driver.open(&mut kernel, 80, p);
    }
    kernel.run();
    let accepts = driver.lane_accepts().to_vec();
    assert_eq!(accepts.iter().sum::<u64>(), 24);
    assert!(
        accepts.iter().all(|&n| n > 0),
        "RSS demux starved a lane: {accepts:?}"
    );
}
