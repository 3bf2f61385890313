//! Open-loop arrival schedules in virtual time.
//!
//! The paper's load generator (§9) is a separate Linux box firing requests
//! at the server; crucially, real clients do not wait for each other — new
//! arrivals keep coming whether or not earlier requests have completed.
//! That is an *open* loop, and it is what makes tail latency honest: a
//! closed loop self-throttles under overload and hides queueing delay.
//!
//! A schedule here is a precomputed list of arrival deadlines in virtual
//! cycles (2.8 GHz model time, [`CYCLES_PER_SEC`]). The scenario engine
//! steps the kernels until the busiest one's clock passes each deadline,
//! then injects the next connection — arrivals never wait on completions.
//! One deliberate semantic of virtual time: when the kernel goes idle the
//! clock stops, so an under-loaded schedule compresses (the server sees
//! back-to-back arrivals instead of dead air). Queueing behaviour under
//! load — the part that shapes p99/p999 — is preserved exactly.

use asbestos_kernel::CYCLES_PER_SEC;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A precomputed open-loop arrival schedule.
#[derive(Clone, Debug)]
pub struct OpenLoopSchedule {
    due: Vec<u64>,
}

impl OpenLoopSchedule {
    /// Poisson arrivals at `rate_rps` requests per virtual second:
    /// exponential interarrival gaps drawn by CDF inversion from a seeded
    /// RNG, so the same seed always yields the same schedule.
    pub fn poisson(n: usize, rate_rps: f64, seed: u64) -> OpenLoopSchedule {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mean = CYCLES_PER_SEC as f64 / rate_rps;
        let mut t = 0.0f64;
        let mut due = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen_range(0.0..1.0);
            // Inverse-CDF of Exp(1/mean); 1-u keeps the log argument in
            // (0, 1] for u in [0, 1).
            t += -mean * (1.0 - u).ln();
            due.push(t as u64);
        }
        OpenLoopSchedule { due }
    }

    /// Evenly spaced arrivals at `rate_rps` (a paced load generator).
    pub fn uniform(n: usize, rate_rps: f64) -> OpenLoopSchedule {
        assert!(rate_rps > 0.0, "arrival rate must be positive");
        let gap = CYCLES_PER_SEC as f64 / rate_rps;
        let due = (1..=n).map(|i| (i as f64 * gap) as u64).collect();
        OpenLoopSchedule { due }
    }

    /// Arrival deadlines in virtual cycles, ascending.
    pub fn due(&self) -> &[u64] {
        &self.due
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.due.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.due.is_empty()
    }

    /// Mean interarrival gap of the realized schedule, in cycles.
    pub fn mean_interarrival_cycles(&self) -> f64 {
        match self.due.last() {
            Some(&last) if self.due.len() > 1 => last as f64 / self.due.len() as f64,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_monotone() {
        let s = OpenLoopSchedule::poisson(500, 1000.0, 42);
        assert!(s.due().windows(2).all(|w| w[0] <= w[1]));
        let u = OpenLoopSchedule::uniform(500, 1000.0);
        assert!(u.due().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let rate = 2000.0;
        let s = OpenLoopSchedule::poisson(20_000, rate, 7);
        let want = CYCLES_PER_SEC as f64 / rate;
        let got = s.mean_interarrival_cycles();
        assert!(
            (got - want).abs() / want < 0.05,
            "mean gap {got} vs expected {want}"
        );
    }
}
