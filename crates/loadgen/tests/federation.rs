//! Stock scenarios federated: the one scenario engine over a
//! multi-kernel cluster, every hook included.
//!
//! The CI matrix sets `ASBESTOS_KERNELS` to sweep the kernel count; a
//! bare `cargo test` runs the federated cases at two kernels.

use asbestos_loadgen::{
    run_scenario, Baseline, Op, Scenario, ScenarioConfig, ScenarioReport, SustainedFlood, World,
    ZipfChurn,
};
use rand::rngs::StdRng;

/// Kernel count under test: `ASBESTOS_KERNELS`, floored at 2 so a bare
/// run still exercises the wire.
fn kernels() -> usize {
    let kernels = std::env::var("ASBESTOS_KERNELS").map(|v| v.trim().parse());
    kernels.map_or(2, |k| k.unwrap_or(2)).max(2)
}

fn baseline(shards: usize, lanes: usize) -> Baseline {
    Baseline {
        users: 32,
        requests: 192,
        kernels: kernels(),
        shards,
        lanes,
    }
}

#[test]
fn federated_baseline_serves_every_request() {
    let r = run_scenario(&mut baseline(1, 1), 0xBA5E);
    // The Baseline invariants, across the wire.
    assert_eq!(r.completed, r.issued, "federated baseline lost requests");
    assert_eq!(r.retries, 0, "sub-capacity traffic must never shed");
    assert_eq!(r.aborted, 0);
    assert!(r.goodput_rps > 0.0);
    // And the traffic genuinely federated: every request/response pair
    // crossed the wire, as frames with bytes on real sockets.
    assert!(
        r.forwarded as usize >= r.issued,
        "requests never crossed the wire ({} forwards for {} requests)",
        r.forwarded,
        r.issued
    );
    assert!(r.wire_frames > 0 && r.wire_bytes > 0);
}

#[test]
fn federated_baseline_is_deterministic() {
    let a = run_scenario(&mut baseline(1, 1), 0xF00D);
    let b = run_scenario(&mut baseline(1, 1), 0xF00D);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.fresh.p50_us, b.fresh.p50_us);
    assert_eq!(a.fresh.p99_us, b.fresh.p99_us);
    assert_eq!(a.fresh.p999_us, b.fresh.p999_us);
    assert_eq!(a.goodput_rps, b.goodput_rps);
    assert_eq!(a.elapsed_us, b.elapsed_us);
    assert_eq!(a.wire_frames, b.wire_frames);
    assert_eq!(a.wire_bytes, b.wire_bytes);
}

/// The federated world scales the deployment grid too: multi-shard
/// kernels mint handles from disjoint cluster-wide cipher lanes while
/// the front end fans requests across lanes.
#[test]
fn federated_baseline_runs_sharded() {
    let r = run_scenario(&mut baseline(2, 2), 0x5A4D);
    assert_eq!(
        r.completed, r.issued,
        "sharded federated baseline lost requests"
    );
    assert_eq!(r.retries, 0);
    assert!(r.forwarded as usize >= r.issued);
}

fn zipf_churn() -> ZipfChurn {
    ZipfChurn::new(64, 600, 1.1, 2, 2)
}

/// A stock scenario with its deployment federated, counting the `check`s
/// the engine ran.
struct Federated<S> {
    inner: S,
    kernels: usize,
    checks: usize,
}

fn federated<S: Scenario>(inner: S, kernels: usize) -> Federated<S> {
    Federated {
        inner,
        kernels,
        checks: 0,
    }
}

impl<S: Scenario> Scenario for Federated<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn config(&self) -> ScenarioConfig {
        self.inner.config().federated(self.kernels)
    }
    fn setup(&mut self, world: &mut World) {
        self.inner.setup(world);
    }
    fn before_arrival(&mut self, world: &mut World, seq: usize) {
        self.inner.before_arrival(world, seq);
    }
    fn op(&mut self, seq: usize, rng: &mut StdRng) -> Op {
        self.inner.op(seq, rng)
    }
    fn check(&mut self, world: &mut World, report: &ScenarioReport) {
        self.checks += 1;
        self.inner.check(world, report);
    }
}

/// The hardest volatile scenario — Zipf users, session and DB traffic,
/// logouts, mid-stream aborts — passes its own `setup`/`check` hooks
/// and `assert_all_ok` with its workers on other kernels (`op` panics
/// unless `setup` ran first).
#[test]
fn zipf_churn_runs_its_hooks_federated() {
    let mut a = federated(zipf_churn(), kernels());
    let ra = run_scenario(&mut a, 0xC0FFEE);
    assert_eq!(a.checks, 1, "the engine skipped the scenario's check");
    assert_eq!(ra.kernels, kernels());
    assert!(
        ra.forwarded as usize >= ra.completed,
        "churn requests never crossed the wire ({} forwards for {} completions)",
        ra.forwarded,
        ra.completed
    );

    let rb = run_scenario(&mut federated(zipf_churn(), kernels()), 0xC0FFEE);
    // Every field, wire counters included.
    assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
}

/// `federated(1)` is the config field at its default: a plain kernel,
/// no sockets, the same numbers.
#[test]
fn one_kernel_is_the_unfederated_default() {
    let explicit = run_scenario(&mut federated(zipf_churn(), 1), 0xC0FFEE);
    let default = run_scenario(&mut zipf_churn(), 0xC0FFEE);
    assert_eq!(format!("{explicit:?}"), format!("{default:?}"));
    assert_eq!(
        (explicit.kernels, explicit.wire_frames, explicit.forwarded),
        (1, 0, 0)
    );
}

/// The attacker's flood crosses the wire with everything else: the
/// victim is still served, every shed connection is retried to
/// completion, and the fresh probe is served first try — `SustainedFlood`'s
/// own `check`, with the workers on other kernels.
#[test]
fn sustained_flood_runs_its_hooks_federated() {
    let flood = SustainedFlood {
        requests: 110,
        flood_factor: 10,
        shards: 1,
        lanes: 1,
    };
    let mut f = federated(flood, kernels());
    let r = run_scenario(&mut f, 0xF100D);
    assert_eq!(f.checks, 1, "the engine skipped the scenario's check");
    assert!(
        r.forwarded as usize >= r.completed,
        "flood requests never crossed the wire ({} forwards for {} completions)",
        r.forwarded,
        r.completed
    );
}
