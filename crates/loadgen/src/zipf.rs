//! Heavy-tailed user populations: a deterministic Zipf sampler.
//!
//! §9's OKWS workloads draw a large, churning user population; real Web
//! traffic is heavy-tailed — a few users account for most requests. The
//! sampler here is CDF-inversion over the Zipf(s) distribution on ranks
//! `1..=n`: weight of rank `k` is `1/k^s`, so `s = 0` is exactly uniform
//! and `s ≈ 1` is classic Web skew. Construction is O(n), sampling is one
//! RNG draw plus a binary search — cheap enough that a *million*-rank
//! population (the scenario harness's headline scale) costs ~8 MB of CDF
//! and tens of nanoseconds per draw.
//!
//! Everything is deterministic under a seeded [`rand::rngs::StdRng`]: two
//! runs of the same scenario produce identical user sequences, which is
//! what lets the latency bench pin its counts exactly.

use rand::rngs::StdRng;
use rand::Rng;

/// A Zipf(s) sampler over user ranks `0..n` (rank 0 is the heaviest).
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
    s: f64,
}

impl ZipfSampler {
    /// Builds the sampler for `n` users with skew `s` (`s = 0.0` is
    /// uniform; larger `s` concentrates more of the traffic on the head
    /// ranks).
    ///
    /// # Panics
    ///
    /// Panics on an empty population or a negative/non-finite skew.
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "Zipf population must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf skew must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the tail against float rounding: the last bucket must
        // cover u -> 1.0 exactly.
        *cdf.last_mut().unwrap() = 1.0;
        ZipfSampler { cdf, s }
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.cdf.len()
    }

    /// The configured skew.
    pub fn skew(&self) -> f64 {
        self.s
    }

    /// Draws one user rank in `0..population()` (0 = heaviest).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1)
    }

    /// The exact probability mass of rank `u` under this skew.
    pub fn share(&self, u: usize) -> f64 {
        let lo = if u == 0 { 0.0 } else { self.cdf[u - 1] };
        self.cdf[u] - lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn uniform_skew_is_flat() {
        let z = ZipfSampler::new(10, 0.0);
        for u in 0..10 {
            assert!((z.share(u) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn head_rank_dominates_under_skew() {
        let z = ZipfSampler::new(1000, 1.1);
        assert!(z.share(0) > 50.0 * z.share(999));
        let mut rng = StdRng::seed_from_u64(7);
        let mut head = 0usize;
        for _ in 0..10_000 {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top 10 of 1000 ranks carry a large share of the traffic.
        assert!(head > 2_000, "head ranks drew only {head}/10000");
    }

    #[test]
    fn samples_stay_in_range() {
        let z = ZipfSampler::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..1_000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
