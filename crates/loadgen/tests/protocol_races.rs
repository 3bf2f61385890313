//! The two OKWS protocol races that heavy churn exposes, pinned in tier-1:
//!
//! - idd must hold a first login's `LoginR` until every admin party has
//!   acked the user's `Bind` with `BindR`. Otherwise the new session's
//!   first tainted query can reach ok-dbproxy before the binding, the
//!   kernel drops it, and the session waits forever for its rows.
//! - A worker that logs a session out must drain until ok-demux's
//!   `SessionEndR` before it calls `ep_exit`. Otherwise a handoff ok-demux
//!   sent before it dropped the session is lost with the port, and the
//!   client never sees a response or a close.
//!
//! Either revert leaves a request that never completes under this
//! Zipf-ranked churn over 10,000 users at one shard and one netd lane
//! (the loadgen bench's `zipf-churn/1x1` row); `run_scenario` panics with
//! `request … never completed`.

use asbestos_loadgen::{run_scenario, ZipfChurn};

#[test]
fn zipf_churn_completes_every_request_single_shard() {
    let report = run_scenario(&mut ZipfChurn::new(10_000, 600, 1.1, 1, 1), 0x21BF);
    assert_eq!(report.completed + report.aborted, report.issued);
    assert_eq!(report.outstanding, 0);
}
