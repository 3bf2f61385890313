//! The host allocation budget of one OKWS request.
//!
//! Allocation is host-only — nothing simulated reads it — so no other test
//! sees it move. This one deploys OKWS in the benchmark's `hot-1x1` shape
//! (the §9.2 `ParamLength` service behind one netd, every session
//! built and the deployment warmed up first), counts the heap allocations
//! and bytes made while the kernel runs each round of requests, and holds
//! the per-request figures to a budget about 10 % above what the current
//! code makes, in debug and release builds alike. Its own test binary,
//! because a `#[global_allocator]` is per binary.
//!
//! The count includes what the standard library allocates on the
//! program's behalf (map nodes, `Vec` and `VecDeque` growth, `format!`),
//! so it depends on the toolchain as well as on this code. The budget was
//! measured with rustc 1.95.0 (57.4 allocations and 6,192 bytes per
//! request). If a toolchain update moves the count, re-measure and state
//! the new figures and toolchain here; do not just raise the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use asbestos::kernel::Kernel;
use asbestos::okws::logic::ParamLength;
use asbestos::okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

/// Sessions, and requests per round: one per user, as in the benchmark.
const USERS: usize = 16;
/// Rounds run before counting: sessions built, queues and pools at size.
const WARMUP_ROUNDS: usize = 20;
/// Rounds counted.
const ROUNDS: usize = 60;
/// Allocations per request allowed.
const BUDGET_ALLOCS: f64 = 63.0;
/// Bytes allocated per request allowed.
const BUDGET_BYTES: f64 = 6_800.0;

thread_local! {
    /// Allocations and bytes this thread has asked for (monotonic).
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    let _ = ALLOCATED.try_with(|c| {
        let (n, total) = c.get();
        c.set((n + 1, total + bytes as u64));
    });
}

/// The system allocator, counting each allocation on the thread that
/// makes it. This `unsafe impl` is the workspace's only `unsafe` code: it
/// delegates every call to [`System`] unchanged and only counts.
struct Counting;

// SAFETY: every method hands its arguments to the same method of `System`
// unchanged and returns its result, so each meets `GlobalAlloc`'s contract
// exactly as `System` does. Counting touches only a thread-local `Cell`
// with a `const` initialiser and no destructor, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// One round: a `GET /bench?len=11` from every user, then the kernel runs
/// to quiescence. Returns what the run allocated.
fn round(kernel: &mut Kernel, client: &mut OkwsClient) -> (u64, u64) {
    let issued: Vec<usize> = (0..USERS)
        .map(|u| {
            let (user, password) = (format!("u{u}"), format!("p{u}"));
            client.request(kernel, "bench", &user, &password, &[("len", "11")])
        })
        .collect();
    let before = ALLOCATED.with(Cell::get);
    kernel.run();
    let after = ALLOCATED.with(Cell::get);
    client.driver.poll(kernel);
    for idx in issued {
        assert_eq!(
            client.parse_response(idx),
            Some((200, vec![b'x'; 11])),
            "request {idx}"
        );
    }
    client.driver.reset_log();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_hot_request_stays_within_its_allocation_budget() {
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    for u in 0..USERS {
        config.users.push((format!("u{u}"), format!("p{u}")));
    }
    let mut kernel = Kernel::new(9002);
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);
    kernel.run();
    for _ in 0..WARMUP_ROUNDS {
        round(&mut kernel, &mut client);
    }
    let (mut allocs, mut bytes) = (0, 0);
    for _ in 0..ROUNDS {
        let (n, b) = round(&mut kernel, &mut client);
        allocs += n;
        bytes += b;
    }
    let requests = (ROUNDS * USERS) as f64;
    let (per_req, bytes_per_req) = (allocs as f64 / requests, bytes as f64 / requests);
    println!(
        "allocations per request: {per_req:.1} (budget {BUDGET_ALLOCS}); \
         bytes per request: {bytes_per_req:.0} (budget {BUDGET_BYTES})"
    );
    assert!(
        per_req <= BUDGET_ALLOCS,
        "{per_req:.1} allocations per request exceed the budget of {BUDGET_ALLOCS}"
    );
    assert!(
        bytes_per_req <= BUDGET_BYTES,
        "{bytes_per_req:.0} bytes per request exceed the budget of {BUDGET_BYTES}"
    );
}
