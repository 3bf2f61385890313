//! What a scenario run counted.
//!
//! Every scenario produces one [`ScenarioReport`]: how many requests were
//! issued, completed, aborted and shed-retried, how many messages the
//! kernels delivered and dropped, the deepest queue, and what crossed the
//! wire. Each is a count, and the run is deterministic under its seed, so
//! two runs agree on every field and a committed report can be checked by
//! equality. Virtual time paces the arrivals but is not reported: the cost
//! model cannot see a `Forward`, so a time here would claim
//! what it does not measure.

/// Everything one scenario run counted.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Member kernels in the deployment (1 = un-federated).
    pub kernels: usize,
    /// User population size.
    pub users: usize,
    /// Requests issued during the measured window.
    pub issued: usize,
    /// Requests that completed with a full response.
    pub completed: usize,
    /// Requests the client killed mid-stream.
    pub aborted: usize,
    /// Requests still open when the run ended (e.g. dropped at a clamped
    /// port queue — they never complete, by design).
    pub outstanding: usize,
    /// Total edge refusals that were retried.
    pub retries: u64,
    /// Completed requests that needed at least one shed retry.
    pub retried: usize,
    /// Messages every kernel delivered, from deploy.
    pub delivered: u64,
    /// Messages every kernel dropped, for any reason, from deploy.
    pub dropped: u64,
    /// Highest queue-depth high-water mark across kernels.
    pub queue_depth_hwm: u64,
    /// Frames every gateway put on the wire (0 at one kernel).
    pub wire_frames: u64,
    /// Bytes every gateway put on the wire (0 at one kernel).
    pub wire_bytes: u64,
    /// `Forward`s the gateways sent between kernels (0 at one kernel).
    pub forwarded: u64,
}

impl ScenarioReport {
    /// The counts every deployment has, in report order (the wire
    /// counters and the kernel count are the federation bench's own).
    pub fn counts(&self) -> [(&'static str, u64); 9] {
        [
            ("users", self.users as u64),
            ("issued", self.issued as u64),
            ("completed", self.completed as u64),
            ("aborted", self.aborted as u64),
            ("retries", self.retries),
            ("retried", self.retried as u64),
            ("delivered", self.delivered),
            ("dropped", self.dropped),
            ("queue_depth_hwm", self.queue_depth_hwm),
        ]
    }

    /// One-line human summary (the benches print these as they go).
    pub fn summary_line(&self) -> String {
        let counts: Vec<String> = self
            .counts()
            .iter()
            .map(|(key, value)| format!("{key} {value}"))
            .collect();
        format!(
            "{} [k{}] {}",
            self.scenario,
            self.kernels,
            counts.join(", ")
        )
    }
}
