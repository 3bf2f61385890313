//! Regenerates Figure 7: "Throughput for various numbers of cached sessions
//! in OKWS, compared with Apache and Mod-Apache".
//!
//! Usage: `cargo run --release -p asbestos-bench --bin fig7_throughput [--quick]`

use asbestos_bench::{baseline_throughputs, okws_sweep_point, sweep_sessions};

fn main() {
    println!("# Figure 7: throughput (connections/second)");
    println!("# (paper: Mod-Apache ≈ 2800; Apache ≈ 1400; OKWS ≈ 1600 at 1 session");
    println!("#  falling to ≈ 700 at 10000; OKWS beats Apache until ≳1000 sessions)");
    println!("{:>22} {:>14}", "server", "conns/sec");

    let (apache, mod_apache) = baseline_throughputs(1);
    for (name, thr) in [("Mod-Apache", mod_apache), ("Apache", apache)] {
        println!("{name:>22} {thr:>14.0}");
    }
    for sessions in sweep_sessions() {
        let point = okws_sweep_point(sessions, 1000 + sessions as u64);
        println!(
            "{:>22} {:>14.0}",
            format!("OKWS {} sessions", point.sessions),
            point.throughput
        );
    }
}
