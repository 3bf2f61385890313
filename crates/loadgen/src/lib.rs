//! Scenario-driven open-loop load generation for the Asbestos/OKWS stack.
//!
//! The paper measures its prototype with a separate load-generator box
//! (§9): closed-loop latency at concurrency 4 (Figure 8), session sweeps
//! to 10,000 users. This crate is that box, grown up: an **open-loop**
//! arrival engine (arrivals never wait on completions, so queueing delay
//! shows up honestly in the tail), **heavy-tailed** user populations
//! (Zipf-ranked, million-rank capable), session churn, login storms
//! after [`scenario::World::reboot`], mixed session/DB traffic, and
//! mid-stream disconnects — all driven through the full sharded
//! deployment (kernel shards × netd lanes) with per-lane completion
//! polling.
//!
//! Workloads are declarative: implement [`scenario::Scenario`] (setup /
//! drive / check hooks) and hand it to [`scenario::run_scenario`]; the
//! engine owns deployment, pacing, polling, shed retries (an OKWS worker
//! closes a connection unserved when its session is draining or its
//! pending queue is full, and the client re-opens it), draining, and
//! produces a [`metrics::ScenarioReport`] of counts: requests issued,
//! completed, aborted and retried, messages delivered and dropped, the
//! deepest queue, and the wire counters. The stock scenarios in
//! [`scenarios`] feed `BENCH_latency.json` and the stress suite.
//!
//! Everything is deterministic under a seed: same seed, same schedule,
//! same ops, same counts — which is what lets CI pin the committed
//! numbers by equality.
//!
//! The kernel count is a deployment number like shards and lanes:
//! [`scenario::ScenarioConfig::federated`] puts the front end on kernel
//! 0 of an `asbestos-cluster` federation and the workers on the rest
//! (labels crossing the wire in serialized form), under the same
//! schedule, hooks and accounting — `BENCH_cluster.json` is measured
//! this way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod metrics;
pub mod scenario;
pub mod scenarios;
pub mod zipf;

pub use arrival::OpenLoopSchedule;
pub use metrics::ScenarioReport;
pub use scenario::{run_scenario, Op, Scenario, ScenarioConfig, ServiceKind, World};
pub use scenarios::{Baseline, LaneOverflowChurn, LoginStorm, SustainedFlood, ZipfChurn};
pub use zipf::ZipfSampler;
