//! Latency and goodput accounting for scenario runs.
//!
//! Every scenario produces one [`ScenarioReport`]: percentiles over the
//! *fresh* latency series (requests served on their first connection),
//! the *retried* series kept separate (shed-then-retried requests carry
//! edge-refusal round-trips that must not inflate the fresh p999 — the
//! distinction `ClientDriver` maintains), goodput against busiest-shard
//! wall clock, and the per-shard load-balance signals surfaced by the
//! kernel ([`asbestos_kernel::Kernel::per_shard_elapsed_cycles`]).

use asbestos_kernel::CYCLES_PER_SEC;
use asbestos_net::percentile;

/// Percentile summary of one latency series (microseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Samples in the series.
    pub count: usize,
    /// Arithmetic mean, µs.
    pub mean_us: f64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs.
    pub p999_us: f64,
    /// Worst sample, µs.
    pub max_us: f64,
}

impl LatencyStats {
    /// Summarizes an ascending-sorted series (as the driver returns).
    pub fn from_sorted(sorted: &[f64]) -> LatencyStats {
        if sorted.is_empty() {
            return LatencyStats::default();
        }
        let sum: f64 = sorted.iter().sum();
        LatencyStats {
            count: sorted.len(),
            mean_us: sum / sorted.len() as f64,
            p50_us: percentile(sorted, 50.0).unwrap(),
            p99_us: percentile(sorted, 99.0).unwrap(),
            p999_us: percentile(sorted, 99.9).unwrap(),
            max_us: *sorted.last().unwrap(),
        }
    }
}

/// Everything one scenario run measured.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Member kernels in the deployment (1 = un-federated).
    pub kernels: usize,
    /// Kernel shards per kernel.
    pub shards: usize,
    /// netd lanes in the front end.
    pub lanes: usize,
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
    /// Busiest-shard wall clock of the measured window, µs. Shards model
    /// parallel cores, so the slowest one bounds modeled wall time.
    pub elapsed_us: f64,
    /// Completions per second of busiest-shard wall clock.
    pub goodput_rps: f64,
    /// Latency of requests served on their first connection.
    pub fresh: LatencyStats,
    /// Latency of shed-then-retried requests (includes refusal
    /// round-trips — the price of graceful degradation, as its own
    /// series).
    pub retried: LatencyStats,
    /// Per-shard cycle advance over the measured window, µs.
    pub shard_elapsed_us: Vec<f64>,
    /// Busiest shard's advance over the mean advance (1.0 = perfectly
    /// balanced).
    pub shard_imbalance: f64,
    /// Highest queue-depth high-water mark across shards.
    pub queue_depth_hwm: u64,
    /// Frames every gateway put on the wire (0 at one kernel).
    pub wire_frames: u64,
    /// Bytes every gateway put on the wire (0 at one kernel).
    pub wire_bytes: u64,
    /// `Forward`s the gateways sent between kernels (0 at one kernel).
    pub forwarded: u64,
}

impl ScenarioReport {
    /// Computes the derived fields from raw window measurements, as a
    /// one-kernel report (no wire).
    #[allow(clippy::too_many_arguments)]
    pub fn from_window(
        scenario: &str,
        shards: usize,
        lanes: usize,
        users: usize,
        issued: usize,
        completed: usize,
        aborted: usize,
        outstanding: usize,
        retries: u64,
        elapsed_cycles: u64,
        fresh_sorted: &[f64],
        retried_sorted: &[f64],
        shard_cycles: &[u64],
        queue_depth_hwm: u64,
    ) -> ScenarioReport {
        let cycles_per_us = CYCLES_PER_SEC as f64 / 1e6;
        let elapsed_us = elapsed_cycles as f64 / cycles_per_us;
        let elapsed_sec = elapsed_cycles.max(1) as f64 / CYCLES_PER_SEC as f64;
        let shard_elapsed_us: Vec<f64> = shard_cycles
            .iter()
            .map(|&c| c as f64 / cycles_per_us)
            .collect();
        let mean_shard =
            shard_elapsed_us.iter().sum::<f64>() / shard_elapsed_us.len().max(1) as f64;
        let max_shard = shard_elapsed_us.iter().cloned().fold(0.0, f64::max);
        ScenarioReport {
            scenario: scenario.to_string(),
            kernels: 1,
            shards,
            lanes,
            users,
            issued,
            completed,
            aborted,
            outstanding,
            retries,
            elapsed_us,
            goodput_rps: completed as f64 / elapsed_sec,
            fresh: LatencyStats::from_sorted(fresh_sorted),
            retried: LatencyStats::from_sorted(retried_sorted),
            shard_elapsed_us,
            shard_imbalance: if mean_shard > 0.0 {
                max_shard / mean_shard
            } else {
                1.0
            },
            queue_depth_hwm,
            wire_frames: 0,
            wire_bytes: 0,
            forwarded: 0,
        }
    }

    /// One-line human summary (the bench prints these as it goes).
    pub fn summary_line(&self) -> String {
        format!(
            "{} [{}x{}] {} users: {}/{} ok, goodput {:.0} rps, p50 {:.1}us p99 {:.1}us p999 {:.1}us (retried: {} @ p99 {:.1}us), imbalance {:.2}",
            self.scenario,
            self.shards,
            self.lanes,
            self.users,
            self.completed,
            self.issued,
            self.goodput_rps,
            self.fresh.p50_us,
            self.fresh.p99_us,
            self.fresh.p999_us,
            self.retried.count,
            self.retried.p99_us,
            self.shard_imbalance,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_from_sorted_series() {
        let series: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        let s = LatencyStats::from_sorted(&series);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50_us, 500.0);
        assert_eq!(s.p99_us, 990.0);
        assert_eq!(s.p999_us, 999.0);
        assert_eq!(s.max_us, 1000.0);
        assert!((s.mean_us - 500.5).abs() < 1e-9);
    }

    #[test]
    fn empty_series_is_all_zero() {
        let s = LatencyStats::from_sorted(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p999_us, 0.0);
    }
}
