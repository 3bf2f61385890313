//! The reboot thundering herd, end to end: boot 1 builds every session
//! against a durable store, the world reboots, and the whole population
//! re-authenticates in two back-to-back storm rounds. The scenario's own
//! `check` hook asserts the §5.1/§7.5 recovery contract:
//!
//! - recovered credentials still gate logins (a wrong password is
//!   rejected 403 before any post-reboot session exists);
//! - no boot-1 `⋆`-handle of idd's is observed after the reboot (handles
//!   are per-boot, §5.1);
//! - round-1 echoes are empty (no session survived the reboot);
//! - every round-2 echo is exactly that user's round-1 write — per-user
//!   FIFO held through login, session fork, and both storm rounds.

use asbestos_loadgen::{run_scenario, LoginStorm};

#[test]
fn login_storm_after_reboot_single_shard() {
    let report = run_scenario(&mut LoginStorm::new(24), 0x5708);
    assert_eq!(report.completed, report.issued);
    assert_eq!(report.outstanding, 0);
}
