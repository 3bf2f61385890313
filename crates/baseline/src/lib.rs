//! # asbestos-baseline
//!
//! Discrete-event models of the paper's comparison systems (§9.2): Apache
//! 1.3 with per-request CGI fork+exec, and "Mod-Apache" (the same handler
//! as an in-process module), both running on a miniature Unix cost model.
//!
//! These baselines substitute for the authors' Linux testbed. Their cost
//! constants are calibrated once against the paper's anchor numbers
//! (Mod-Apache ≈ 2 800 conn/s and ≈ 1 ms median latency; Apache ≈ half the
//! throughput with 3–5× the latency) and then left fixed; see
//! EXPERIMENTS.md for the calibration table.

#![forbid(unsafe_code)]

pub mod apache;
pub mod unix;
pub mod workload;

pub use apache::{apache_cgi, mod_apache, BaselineModel};
pub use unix::{UnixCosts, UnixSim};
pub use workload::{run_closed_loop, run_open_loop, RunResult};
