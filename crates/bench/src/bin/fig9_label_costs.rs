//! Regenerates Figure 9: "The average cost in Kcycles/connection of various
//! Asbestos components, as the number of cached sessions increases."
//!
//! Kernel IPC cost grows linearly with cached sessions, exactly as §9.3
//! reports: every delivery is charged the label entries it examines.
//!
//! Usage: `cargo run --release -p asbestos-bench --bin fig9_label_costs [--quick]`

use asbestos_bench::{okws_sweep_point, sweep_sessions};
use asbestos_kernel::Category;

fn main() {
    println!("# Figure 9: Kcycles/connection by component vs cached sessions");
    println!("# (paper: linear growth; Kernel IPC overtakes Network ≈ 3000 sessions");
    println!("#  and equals OKWS ≈ 7500; total ≈ 1750 at 1 session, ≈ 4000 at 10000)");
    println!();
    print!("{:>10}", "sessions");
    for cat in Category::ALL {
        print!(" {:>12}", cat.name());
    }
    println!(" {:>12}", "Total");

    for sessions in sweep_sessions() {
        let point = okws_sweep_point(sessions, 9000 + sessions as u64);
        print!("{:>10}", point.sessions);
        let mut total = 0.0;
        for k in point.kcycles_per_conn {
            print!(" {k:>12.0}");
            total += k;
        }
        println!(" {total:>12.0}");
    }
}
