//! The workload generators under the microscope: the Zipf sampler and
//! the open-loop arrival schedules must be deterministic under a seed
//! (the latency bench pins exact counts across runs), correctly
//! skew-ranked at any population size — including the million-rank
//! headline scale — and honest about their configured arrival rate.

use asbestos_kernel::CYCLES_PER_SEC;
use asbestos_loadgen::{OpenLoopSchedule, ZipfSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------------------------------------------------------------------
// Deterministic-seed goldens: these exact sequences are load-bearing —
// a sampler or RNG change shifts every scenario's user sequence, which
// invalidates the committed BENCH_latency.json counts. Changing
// them intentionally means deleting that file, re-running the bench and
// committing the regenerated JSON alongside.
// ---------------------------------------------------------------------

#[test]
fn zipf_golden_sequence_is_stable() {
    let z = ZipfSampler::new(1000, 1.1);
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let got: Vec<usize> = (0..16).map(|_| z.sample(&mut rng)).collect();
    assert_eq!(got, [0, 3, 4, 7, 0, 4, 0, 0, 221, 1, 3, 5, 0, 0, 45, 27]);
}

#[test]
fn poisson_golden_schedule_is_stable() {
    let sched = OpenLoopSchedule::poisson(8, 2000.0, 0xA771);
    assert_eq!(
        sched.due(),
        [1683834, 1930826, 2737696, 3777904, 4952898, 6402963, 7164275, 9269696]
    );
}

#[test]
fn same_seed_same_draws_different_seed_different_draws() {
    let z = ZipfSampler::new(10_000, 1.1);
    let draw = |seed: u64| -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..64).map(|_| z.sample(&mut rng)).collect()
    };
    assert_eq!(draw(42), draw(42));
    assert_ne!(draw(42), draw(43));

    let s = |seed: u64| OpenLoopSchedule::poisson(64, 5000.0, seed).due().to_vec();
    assert_eq!(s(7), s(7));
    assert_ne!(s(7), s(8));
}

// ---------------------------------------------------------------------
// Million-rank scale: the harness's headline population must construct
// quickly, sample in range, and stay properly heavy-tailed.
// ---------------------------------------------------------------------

#[test]
fn million_rank_population_samples_and_skews() {
    let z = ZipfSampler::new(1_000_000, 1.1);
    assert_eq!(z.population(), 1_000_000);

    // Golden head draws at the full scale.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let head: Vec<usize> = (0..8).map(|_| z.sample(&mut rng)).collect();
    assert_eq!(head, [0, 10, 14, 33, 0, 15, 1, 0]);

    // Every draw lands in range, and the head ranks dominate: under
    // Zipf(1.1) over a million ranks the top 1000 carry well over a
    // third of the mass.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let mut top1000 = 0usize;
    for _ in 0..20_000 {
        let u = z.sample(&mut rng);
        assert!(u < 1_000_000);
        if u < 1000 {
            top1000 += 1;
        }
    }
    assert!(
        top1000 > 20_000 / 3,
        "top 1000 of 1M ranks drew only {top1000}/20000"
    );

    // The exact shares agree: rank 0 outweighs the deep tail by orders
    // of magnitude.
    assert!(z.share(0) > 100_000.0 * z.share(999_999));
}

// ---------------------------------------------------------------------
// Property tests: skew-ranking and mass conservation at arbitrary
// populations and skews.
// ---------------------------------------------------------------------

proptest! {
    /// Shares are non-increasing in rank for any population and skew:
    /// rank k must never be less likely than rank k+1. (Skews arrive as
    /// millis — the vendored proptest has integer strategies only.)
    #[test]
    fn shares_are_rank_monotone(n in 2usize..400, s_milli in 0u32..2500) {
        let s = s_milli as f64 / 1000.0;
        let z = ZipfSampler::new(n, s);
        for k in 0..n - 1 {
            prop_assert!(
                z.share(k) >= z.share(k + 1) - 1e-12,
                "share({k}) = {} < share({}) = {} at n={n} s={s}",
                z.share(k), k + 1, z.share(k + 1)
            );
        }
    }

    /// The shares are a probability distribution: they sum to 1.
    #[test]
    fn shares_sum_to_one(n in 1usize..400, s_milli in 0u32..2500) {
        let s = s_milli as f64 / 1000.0;
        let z = ZipfSampler::new(n, s);
        let total: f64 = (0..n).map(|k| z.share(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total} at n={n} s={s}");
    }

    /// Raising the skew concentrates the head: the rank-0 share is
    /// non-decreasing in s.
    #[test]
    fn higher_skew_concentrates_the_head(n in 2usize..400, s_milli in 0u32..2000) {
        let s = s_milli as f64 / 1000.0;
        let lo = ZipfSampler::new(n, s);
        let hi = ZipfSampler::new(n, s + 0.25);
        prop_assert!(hi.share(0) >= lo.share(0) - 1e-12);
    }

    /// Draws always land in range, at any population and skew.
    #[test]
    fn samples_stay_in_range(n in 1usize..400, s_milli in 0u32..2500, seed in any::<u64>()) {
        let s = s_milli as f64 / 1000.0;
        let z = ZipfSampler::new(n, s);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Poisson schedules are monotone and hit their configured rate
    /// within sampling tolerance.
    #[test]
    fn poisson_schedules_are_monotone_and_honest(
        rate_int in 500u32..50_000,
        seed in any::<u64>(),
    ) {
        let rate = rate_int as f64;
        let sched = OpenLoopSchedule::poisson(4_000, rate, seed);
        prop_assert!(sched.due().windows(2).all(|w| w[0] <= w[1]));
        let want = CYCLES_PER_SEC as f64 / rate;
        let got = sched.mean_interarrival_cycles();
        prop_assert!(
            (got - want).abs() / want < 0.1,
            "mean gap {got} vs configured {want} at rate {rate}"
        );
    }
}
