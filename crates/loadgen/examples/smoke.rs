//! Runs every stock scenario at small scale and prints the report lines.
//!
//! A fast end-to-end sanity pass over the loadgen engine; the committed
//! numbers come from `cargo bench --bench loadgen`, not from this.

use asbestos_loadgen::{
    run_scenario, Baseline, LaneOverflowChurn, LoginStorm, SustainedFlood, ZipfChurn,
};

fn main() {
    for (shards, lanes) in [(1usize, 1usize), (4, 4)] {
        let r = run_scenario(
            &mut Baseline {
                users: 8,
                requests: 64,
                kernels: 1,
                shards,
                lanes,
            },
            7,
        );
        println!("{}", r.summary_line());
        let r = run_scenario(&mut ZipfChurn::new(32, 200, 1.1, shards, lanes), 11);
        println!("{}", r.summary_line());
        let r = run_scenario(&mut LoginStorm::new(24, shards, lanes), 13);
        println!("{}", r.summary_line());
        let r = run_scenario(
            &mut SustainedFlood {
                requests: 220,
                flood_factor: 10,
                shards,
                lanes,
            },
            17,
        );
        println!("{}", r.summary_line());
        let r = run_scenario(&mut LaneOverflowChurn::new(6, 24, shards, lanes), 19);
        println!("{}", r.summary_line());
    }
}
