//! Probes: one layer's public functions timed in isolation, on inputs
//! captured from the live run (its labels, request bytes, final table and
//! device). A probe gives a unit cost; multiplied by the layer's count
//! per request it estimates the layer's share of a request. Probes run
//! after the traced window, outside every measured interval.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::time::Instant;

use asbestos_cluster::{decode_frame, encode_frame, FrameConn, WireMsg};
use asbestos_db::{restore, DurableDb, SqlValue};
use asbestos_kernel::util::service_with_start;
use asbestos_kernel::{Category, Handle, Kernel, Label, Level, Value};
use asbestos_net::parse_request;
use asbestos_store::{BlockDev, MemDev, Store};

use crate::hostspeed;

/// Host nanoseconds `work` takes, brought to the reference host speed by
/// a speed sample on either side of it (like every other time reported).
fn timed_ns(work: impl FnOnce()) -> f64 {
    let before = hostspeed::sample();
    let start = Instant::now();
    work();
    let ns = start.elapsed().as_nanos() as f64;
    let after = hostspeed::sample();
    ns * hostspeed::speed((before + after) / 2.0)
}

/// Mean nanoseconds per call of `op` over `iters` calls.
fn ns_per_op(iters: u32, mut op: impl FnMut()) -> f64 {
    timed_ns(|| {
        for _ in 0..iters {
            op();
        }
    }) / f64::from(iters)
}

pub struct LabelOps {
    pub leq_ns: f64,
    pub lub_ns: f64,
    pub glb_ns: f64,
}

/// ⊑ / ⊔ / ⊓ on the largest send and receive label the run produced.
pub fn label_ops(send: &Label, recv: &Label) -> LabelOps {
    const ITERS: u32 = 20_000;
    LabelOps {
        leq_ns: ns_per_op(ITERS, || {
            black_box(black_box(send).leq(black_box(recv)));
        }),
        lub_ns: ns_per_op(ITERS, || {
            black_box(black_box(send).lub(black_box(recv)));
        }),
        glb_ns: ns_per_op(ITERS, || {
            black_box(black_box(send).glb(black_box(recv)));
        }),
    }
}

/// One HTTP request parse, on request bytes the driver really sent.
pub fn http_parse_ns(request: &[u8]) -> f64 {
    ns_per_op(20_000, || {
        black_box(parse_request(black_box(request)).expect("captured request parses"));
    })
}

/// Bare kernel delivery: two services bounce one message on a fresh
/// single-shard kernel whose process labels carry `entries` explicit
/// handles (the run's median label size). After the first bounce every
/// delivery repeats a cached Figure 4 decision, so this is the floor a
/// delivery costs — compare it with `kernel.run_ns_per_delivery`.
pub fn deliver_ns(entries: usize) -> f64 {
    const BOUNCES: u64 = 20_000;
    let mut kernel = Kernel::new(0xBE);
    let mut pids = Vec::new();
    for (me, peer) in [("ping", "pong"), ("pong", "ping")] {
        let my_key = format!("{me}.port");
        let peer_key = format!("{peer}.port");
        pids.push(kernel.spawn(
            me,
            Category::Other,
            service_with_start(
                move |sys| {
                    let port = sys.new_port(Label::top());
                    // `new_port` stores the label with the port's own
                    // handle at 0; open it so the peer may send.
                    sys.set_port_label(port, Label::top())
                        .expect("owner sets its port label");
                    sys.publish_env(&my_key, Value::Handle(port));
                },
                move |sys, msg| {
                    let left = msg.body.as_u64().unwrap_or(0);
                    if left > 0 {
                        let peer = sys
                            .env(&peer_key)
                            .and_then(|v| v.as_handle())
                            .expect("peer published its port");
                        let _ = sys.send(peer, Value::U64(left - 1));
                    }
                },
            ),
        ));
    }
    let tainted: Vec<(Handle, Level)> = (0..entries as u64)
        .map(|i| (Handle::from_raw(0x1000 + i), Level::L3))
        .collect();
    for pid in pids {
        kernel.set_process_labels(
            pid,
            Some(Label::from_pairs(Level::DEFAULT_SEND, &tainted)),
            Some(Label::from_pairs(Level::DEFAULT_RECV, &tainted)),
        );
    }
    let ping = kernel
        .global_env_handle("ping.port")
        .expect("ping published its port");
    kernel.inject(ping, Value::U64(BOUNCES));
    let mut delivered = 0;
    let ns = timed_ns(|| delivered = kernel.run());
    assert_eq!(delivered, BOUNCES + 1, "probe labels must admit delivery");
    ns / delivered as f64
}

/// One parallel round of the shard pool with next to no work in it: one
/// message for a trivial service on each of `shards` shards, so what is
/// timed is the wake-up handshake, the barrier and the quiescence checks.
pub fn pool_round_ns(shards: usize, workers: usize) -> f64 {
    let mut kernel = Kernel::new_sharded(0xBE, shards);
    kernel.set_worker_threads(workers);
    let mut ports = Vec::new();
    for shard in 0..shards {
        let key = format!("sink.{shard}");
        let publish = key.clone();
        kernel.spawn_on(
            shard,
            &key,
            Category::Other,
            service_with_start(
                move |sys| {
                    let port = sys.new_port(Label::top());
                    sys.publish_env(&publish, Value::Handle(port));
                },
                |_sys, _msg| {},
            ),
        );
        ports.push(kernel.global_env_handle(&key).expect("sink published"));
    }
    let mut round = || {
        for &port in &ports {
            kernel.inject(port, Value::Unit);
        }
        black_box(kernel.run());
    };
    for _ in 0..200 {
        round(); // builds the pool and lets its threads settle
    }
    ns_per_op(2_000, round)
}

pub struct DbOps {
    pub select_ns: f64,
    pub insert_ns: f64,
    pub rows_final: usize,
}

/// The two statements the profile service issues, through the same entry
/// points ok-dbproxy uses, on the table the run left behind.
pub fn db_ops(snapshot: &[u8]) -> DbOps {
    let mut db = restore(snapshot).expect("the live proxy's snapshot restores");
    let rows_final = db.table("profiles").map_or(0, |t| t.len());
    // ok-dbproxy prepends the hidden owner column to every worker SELECT.
    let sql = "SELECT user_id, owner, bio FROM profiles WHERE owner = ?";
    let who = [SqlValue::Text("u7".into())];
    let select_ns = ns_per_op(200, || {
        black_box(db.run_with_params(sql, &who).expect("probe select runs"));
    });
    let mut durable = DurableDb::from_database(db);
    let mut n = 0u64;
    let insert_ns = ns_per_op(2_000, || {
        n += 1;
        let params = [
            SqlValue::Text("u7".into()),
            SqlValue::Text(format!("probe{n}")),
        ];
        black_box(
            durable
                .worker_exec("INSERT INTO profiles VALUES (?, ?)", &params, 7)
                .expect("probe insert runs"),
        );
    });
    DbOps {
        select_ns,
        insert_ns,
        rows_final,
    }
}

pub struct StoreOps {
    pub append_commit_ns: f64,
    pub wal_bytes_per_write: f64,
    pub recover_ms: f64,
}

/// WAL cost of one acknowledged write (append + commit + sync at the
/// default group commit of 1) on a scratch device, and recovery time of
/// the device the run left behind.
pub fn store_ops(final_dev: &MemDev) -> StoreOps {
    // The redo record ok-dbproxy logs for one `profile set`.
    let record = asbestos_db::DbRecord::Worker {
        uid: 7,
        sql: "INSERT INTO profiles VALUES (?, ?)".into(),
        params: vec![
            SqlValue::Text("u7".into()),
            SqlValue::Text("b123456".into()),
        ],
    }
    .to_bytes();
    let scratch = MemDev::new();
    let (mut store, _) = Store::open(Box::new(scratch.clone()));
    let device_bytes = |dev: &MemDev| -> usize {
        dev.list()
            .iter()
            .map(|name| dev.read(name).map_or(0, |b| b.len()))
            .sum()
    };
    let before = device_bytes(&scratch);
    // Stay under the compaction threshold: compaction belongs to the db
    // layer's flush, and shows in the live run's `lat_p99_us`.
    const WRITES: u32 = 1_000;
    let append_commit_ns = ns_per_op(WRITES, || {
        store.append(black_box(&record));
        store.commit();
    });
    let wal_bytes_per_write = (device_bytes(&scratch) - before) as f64 / f64::from(WRITES);

    let image = final_dev.fork();
    let recover_ms = timed_ns(|| {
        black_box(Store::open(Box::new(image)));
    }) / 1e6;
    StoreOps {
        append_commit_ns,
        wal_bytes_per_write,
        recover_ms,
    }
}

pub struct WireOps {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub conn_roundtrip_ns: f64,
}

/// Codec and socket cost of one `Forward` shaped like the run's own:
/// default `SEND` arguments, a real request's bytes as the payload, and as
/// `E_S` as many entries of the largest live send label as make the frame
/// as long as the run's mean frame (`frame_bytes`).
pub fn wire_ops(es_source: &Label, payload: &[u8], frame_bytes: f64) -> WireOps {
    let forward_with = |entries: usize| {
        let pairs: Vec<(Handle, Level)> = es_source.iter().take(entries).collect();
        WireMsg::Forward {
            port: Handle::from_raw(0x2000),
            es: Label::from_pairs(es_source.default_level(), &pairs),
            ds: Label::top(),
            dr: Label::bottom(),
            v: Label::top(),
            body: Value::List(vec![
                Value::Str("read-r".into()),
                Value::Bytes(payload.to_vec().into()),
            ]),
        }
    };
    let frame_len = |msg: &WireMsg| {
        let mut buf = Vec::new();
        encode_frame(msg, &mut buf);
        buf.len()
    };
    // A label entry travels as one packed u64.
    let bare = frame_len(&forward_with(0)) as f64;
    let forward = forward_with(((frame_bytes - bare) / 8.0).max(0.0) as usize);
    let mut frame = Vec::new();
    let encode_ns = ns_per_op(20_000, || {
        frame.clear();
        encode_frame(black_box(&forward), &mut frame);
    });
    let decode_ns = ns_per_op(20_000, || {
        black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
    });

    let (a, b) = UnixStream::pair().expect("socket pair");
    let mut near = FrameConn::new(a).expect("nonblocking socket");
    let mut far = FrameConn::new(b).expect("nonblocking socket");
    let hop = |from: &mut FrameConn, to: &mut FrameConn| {
        from.send(&forward);
        loop {
            from.flush().expect("probe wire");
            if !to.pump().expect("probe wire").is_empty() {
                break;
            }
        }
    };
    let conn_roundtrip_ns = ns_per_op(5_000, || {
        hop(&mut near, &mut far);
        hop(&mut far, &mut near);
    });
    WireOps {
        encode_ns,
        decode_ns,
        conn_roundtrip_ns,
    }
}
