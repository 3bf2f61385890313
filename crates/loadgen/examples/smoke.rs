//! Runs every stock scenario at small scale and prints the report lines.
//!
//! A fast end-to-end sanity pass over the loadgen engine; the committed
//! numbers come from `cargo bench --bench loadgen`, not from this.

use asbestos_loadgen::{
    run_scenario, Baseline, DisconnectChurn, LoginStorm, SustainedFlood, ZipfChurn,
};

fn main() {
    let r = run_scenario(
        &mut Baseline {
            users: 8,
            requests: 64,
            kernels: 1,
        },
        7,
    );
    println!("{}", r.summary_line());
    let r = run_scenario(&mut ZipfChurn::new(32, 200, 1.1), 11);
    println!("{}", r.summary_line());
    let r = run_scenario(&mut LoginStorm::new(24), 13);
    println!("{}", r.summary_line());
    let r = run_scenario(
        &mut SustainedFlood {
            requests: 220,
            flood_factor: 10,
        },
        17,
    );
    println!("{}", r.summary_line());
    let r = run_scenario(
        &mut DisconnectChurn {
            users: 6,
            phase_len: 24,
        },
        19,
    );
    println!("{}", r.summary_line());
}
