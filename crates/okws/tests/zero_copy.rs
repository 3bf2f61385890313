//! The zero-copy budget of the steady-state request path.
//!
//! Once a session is warm (authenticated, event process cached), a request
//! crosses netd ingest → ok-demux head peek → worker full read → response
//! build → netd write. Exactly one of those stages may materialize a
//! payload buffer: the worker's exact-capacity response build. Everything
//! else — the NIC buffer entering the kernel, the peeked head riding to
//! ok-demux, the full request riding to the worker, the response riding
//! back out — moves refcounts.
//!
//! [`Payload`] counts every materialization (`copy_from_slice`,
//! `From<Vec<u8>>`) in a per-thread counter, so the budget is checkable
//! end to end: N steady-state requests must cost exactly N
//! materializations. If any stage reintroduces a deep copy (a
//! `to_vec().into()` where a clone would do), the budget is exceeded and
//! this test fails. The kernel runs on the test's own thread, so tests
//! running in parallel cannot perturb the count.

use asbestos_kernel::{Kernel, Payload};
use asbestos_okws::logic::ParamLength;
use asbestos_okws::{Okws, OkwsClient, OkwsConfig, ServiceSpec};

#[test]
fn steady_state_request_materializes_exactly_one_buffer() {
    let mut kernel = Kernel::new(214);
    let mut config = OkwsConfig::new(80);
    config
        .services
        .push(ServiceSpec::new("bench", || Box::new(ParamLength)));
    config.users.push(("alice".into(), "pw-a".into()));
    let okws = Okws::start(&mut kernel, config);
    let mut client = OkwsClient::new(&okws);

    // Warm up: the first request authenticates through idd and forks the
    // session event process; the second confirms the cached-session path.
    // Neither is under measurement.
    for _ in 0..2 {
        let (status, _) = client
            .request_sync(&mut kernel, "bench", "alice", "pw-a", &[("q", "warm")])
            .expect("warmup response arrives");
        assert_eq!(status, 200);
    }

    // Measured steady state: one response build per request, nothing else.
    const REQUESTS: u64 = 8;
    let before = Payload::deep_copies();
    for i in 0..REQUESTS {
        let q = format!("payload-{i}");
        let (status, body) = client
            .request_sync(&mut kernel, "bench", "alice", "pw-a", &[("q", &q)])
            .expect("steady-state response arrives");
        assert_eq!(status, 200);
        assert!(!body.is_empty(), "the response body made it back intact");
    }
    let spent = Payload::deep_copies() - before;
    assert_eq!(
        spent, REQUESTS,
        "a steady-state request must materialize exactly one payload \
         (the response build); {spent} materializations for {REQUESTS} \
         requests means a stage on the hot path reintroduced a deep copy"
    );
}
