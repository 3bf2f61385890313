//! Property tests for the event-process memory model: arbitrary sequences
//! of writes, reads, and `ep_clean` calls against a flat reference model.
//!
//! The oracle is a pair of byte maps (base contents, EP overlay); the
//! system under test is the real COW machinery (base page table, EP delta,
//! frame pool) driven through the syscall surface. The frame pool's count
//! is checked against the model too: one frame per base page and per
//! private page, and none once the process is gone.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::sync::Mutex;

use asbestos_kernel::util::ep_service_fn;
use asbestos_kernel::{Category, Kernel, Label, Value, PAGE_SIZE};
use proptest::prelude::*;

/// One memory operation.
#[derive(Clone, Debug)]
enum MemOp {
    /// Write `data` at `addr` (base process during setup, EP afterwards).
    Write { addr: u64, data: Vec<u8> },
    /// Read `len` bytes at `addr` and compare against the oracle.
    Read { addr: u64, len: usize },
    /// `ep_clean` over `[addr, addr+len)`.
    Clean { addr: u64, len: usize },
}

/// Keep the address space small so pages collide constantly.
const SPACE: u64 = 6 * 4096;

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (0..SPACE - 64, prop::collection::vec(any::<u8>(), 1..64))
            .prop_map(|(addr, data)| { MemOp::Write { addr, data } }),
        (0..SPACE - 64, 1usize..64).prop_map(|(addr, len)| MemOp::Read { addr, len }),
        (0..SPACE - 64, 1usize..8192).prop_map(|(addr, len)| MemOp::Clean { addr, len }),
    ]
}

/// The flat oracle: base bytes plus an overlay of EP-private pages.
#[derive(Default)]
struct Oracle {
    base: BTreeMap<u64, u8>,
    /// Private page contents, per page number.
    overlay: BTreeMap<u64, [u8; 4096]>,
}

impl Oracle {
    fn base_page(&self, vpn: u64) -> [u8; 4096] {
        let mut page = [0u8; 4096];
        for (addr, b) in self.base.range(vpn * 4096..(vpn + 1) * 4096) {
            page[(addr % 4096) as usize] = *b;
        }
        page
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let vpn = a / 4096;
            if !self.overlay.contains_key(&vpn) {
                let page = self.base_page(vpn);
                self.overlay.insert(vpn, page);
            }
            self.overlay.get_mut(&vpn).expect("inserted above")[(a % 4096) as usize] = b;
        }
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| {
                let a = addr + i;
                let vpn = a / 4096;
                match self.overlay.get(&vpn) {
                    Some(page) => page[(a % 4096) as usize],
                    None => self.base.get(&a).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    fn clean(&mut self, addr: u64, len: usize) {
        let start_vpn = addr / 4096;
        let end_vpn = (addr + len as u64).div_ceil(4096);
        for vpn in start_vpn..end_vpn {
            self.overlay.remove(&vpn);
        }
    }

    fn private_pages(&self) -> usize {
        self.overlay.len()
    }

    /// Distinct pages the base process wrote.
    fn base_pages(&self) -> usize {
        let pages: BTreeSet<u64> = self.base.keys().map(|a| a / 4096).collect();
        pages.len()
    }
}

/// Runs the op sequence through a real event process and the oracle.
fn run_case(base_writes: Vec<(u64, Vec<u8>)>, ops: Vec<MemOp>) {
    let mut kernel = Kernel::new(7);
    let mut oracle = Oracle::default();

    let ops_cell: Arc<Mutex<Vec<MemOp>>> = Arc::new(Mutex::new(ops));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let pages: Arc<Mutex<usize>> = Arc::new(Mutex::new(0));

    // Base memory setup mirrors into the oracle's base map.
    let base_for_service = base_writes.clone();
    for (addr, data) in &base_writes {
        for (i, &b) in data.iter().enumerate() {
            oracle.base.insert(addr + i as u64, b);
        }
    }

    let ops2 = ops_cell.clone();
    let fail2 = failures.clone();
    let pages2 = pages.clone();
    let pid = kernel.spawn_ep_service(
        "mem",
        Category::Other,
        ep_service_fn(
            move |sys| {
                let p = sys.new_port(Label::top());
                sys.set_port_label(p, Label::top()).unwrap();
                sys.publish_env("mem.port", Value::Handle(p));
                for (addr, data) in &base_for_service {
                    sys.mem_write(*addr, data).unwrap();
                }
            },
            move |sys, _msg| {
                let mut oracle_ep = OracleEp::default();
                for op in ops2.lock().unwrap().iter() {
                    match op {
                        MemOp::Write { addr, data } => {
                            sys.mem_write(*addr, data).unwrap();
                            oracle_ep.writes.push((*addr, data.clone()));
                        }
                        MemOp::Read { addr, len } => {
                            let got = sys.mem_read(*addr, *len).unwrap();
                            oracle_ep.reads.push((*addr, *len, got));
                        }
                        MemOp::Clean { addr, len } => {
                            sys.ep_clean(*addr, *len).unwrap();
                            oracle_ep.cleans.push((*addr, *len));
                        }
                    }
                }
                *pages2.lock().unwrap() = sys.ep_private_pages();
                // Stash the observations for the test body to check.
                fail2.lock().unwrap().push(serde_free_encode(&oracle_ep));
            },
        ),
    );

    let port = kernel.global_env("mem.port").unwrap().as_handle().unwrap();
    kernel.inject(port, Value::Unit);
    kernel.run();

    // Replay against the oracle in the same order, checking reads.
    let encoded = failures.lock().unwrap().first().cloned().expect("EP ran");
    let observed = serde_free_decode(&encoded);
    let mut idx = 0;
    for op in ops_cell.lock().unwrap().iter() {
        match op {
            MemOp::Write { addr, data } => oracle.write(*addr, data),
            MemOp::Read { addr, len } => {
                let expect = oracle.read(*addr, *len);
                let (oaddr, olen, got) = &observed.reads[idx];
                assert_eq!((*oaddr, *olen), (*addr, *len));
                assert_eq!(got, &expect, "read mismatch at {addr:#x}+{len}");
                idx += 1;
            }
            MemOp::Clean { addr, len } => oracle.clean(*addr, *len),
        }
    }
    assert_eq!(
        *pages.lock().unwrap(),
        oracle.private_pages(),
        "private page count"
    );
    // Every frame has one owner: the base table or the EP's delta.
    assert_eq!(
        kernel.kmem_report().user_frame_bytes,
        (oracle.base_pages() + oracle.private_pages()) * PAGE_SIZE,
        "frames in use"
    );
    kernel.kill_process(pid);
    assert_eq!(kernel.kmem_report().user_frame_bytes, 0, "frames leaked");
}

/// Observations captured inside the handler (encoded without serde to keep
/// the closure `'static`-friendly and dependency-free).
#[derive(Default, Clone)]
struct OracleEp {
    writes: Vec<(u64, Vec<u8>)>,
    reads: Vec<(u64, usize, Vec<u8>)>,
    cleans: Vec<(u64, usize)>,
}

fn serde_free_encode(o: &OracleEp) -> String {
    let reads: Vec<String> = o
        .reads
        .iter()
        .map(|(a, l, d)| {
            format!(
                "{a}:{l}:{}",
                d.iter().map(|b| format!("{b:02x}")).collect::<String>()
            )
        })
        .collect();
    reads.join(";")
}

fn serde_free_decode(s: &str) -> OracleEp {
    let mut out = OracleEp::default();
    if s.is_empty() {
        return out;
    }
    for part in s.split(';') {
        let mut bits = part.split(':');
        let a: u64 = bits.next().unwrap().parse().unwrap();
        let l: usize = bits.next().unwrap().parse().unwrap();
        let hex = bits.next().unwrap();
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        out.reads.push((a, l, bytes));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ep_memory_matches_flat_model(
        base in prop::collection::vec((0..SPACE - 64, prop::collection::vec(any::<u8>(), 1..64)), 0..6),
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        run_case(base, ops);
    }
}

#[test]
fn regression_write_clean_read() {
    // Clean must revert to *base* content, not zero, when a base page
    // exists under the overlay.
    run_case(
        vec![(100, vec![1, 2, 3, 4])],
        vec![
            MemOp::Write {
                addr: 100,
                data: vec![9, 9],
            },
            MemOp::Read { addr: 100, len: 4 },
            MemOp::Clean { addr: 0, len: 4096 },
            MemOp::Read { addr: 100, len: 4 },
        ],
    );
}

#[test]
fn regression_cross_page_write() {
    run_case(
        vec![],
        vec![
            MemOp::Write {
                addr: 4090,
                data: vec![5; 20],
            },
            MemOp::Read {
                addr: 4088,
                len: 30,
            },
            MemOp::Clean { addr: 4096, len: 1 },
            MemOp::Read {
                addr: 4090,
                len: 20,
            },
        ],
    );
}
