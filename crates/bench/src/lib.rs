//! # asbestos-bench
//!
//! The evaluation harness: everything needed to regenerate §9's figures.
//!
//! * [`fixture`] — standard OKWS deployments and workloads;
//! * [`figures`] — one measurement routine per paper figure, each returning
//!   plain data the `fig*` binaries print as the paper's rows/series.
//!
//! Run the binaries with `cargo run --release -p asbestos-bench --bin
//! fig6_memory` (and `fig7_throughput`, `fig8_latency`, `fig9_label_costs`).

#![forbid(unsafe_code)]

pub mod figures;
pub mod fixture;
pub mod report;

pub use figures::*;
pub use fixture::*;
