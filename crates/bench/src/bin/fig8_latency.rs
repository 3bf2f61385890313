//! Regenerates Figure 8: "The median and 90th percentile latencies of
//! requests to various server configurations."
//!
//! Usage: `cargo run --release -p asbestos-bench --bin fig8_latency [--quick]`

use asbestos_bench::{baseline_latencies, okws_latency, quick_mode};

fn main() {
    println!("# Figure 8: request latency at concurrency 4 (microseconds)");
    println!("# (paper: Mod-Apache 999/1015; Apache 3374/5262;");
    println!("#  OKWS-1 1875/2384; OKWS-1000 3414/6767)");
    println!(
        "{:>22} {:>12} {:>16}",
        "server", "median (us)", "90th pct (us)"
    );

    for row in baseline_latencies(2) {
        println!(
            "{:>22} {:>12.0} {:>16.0}",
            row.server, row.median_us, row.p90_us
        );
    }
    let batches = if quick_mode() { 50 } else { 250 };
    for sessions in [1usize, 1000] {
        let row = okws_latency(sessions, batches, 3000 + sessions as u64);
        println!(
            "{:>22} {:>12.0} {:>16.0}",
            row.server, row.median_us, row.p90_us
        );
    }
}
