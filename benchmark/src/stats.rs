//! Order statistics over repetition results.

/// Fewest rounds that must lie beyond a percentile before it is reported.
/// The sixteen requests of one round complete together, so independent
/// samples are rounds, not requests.
pub const MIN_ROUNDS_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
///
/// Returns `None` when the slice is empty or when fewer than
/// [`MIN_ROUNDS_BEYOND`] of the `rounds` that produced the samples lie
/// beyond the percentile — a p99 over 300 rounds is three rounds' worth
/// of tail and is refused rather than reported.
pub fn percentile(sorted: &[f64], rounds: usize, p: f64) -> Option<f64> {
    if rounds as f64 * (1.0 - p / 100.0) < MIN_ROUNDS_BEYOND - 1e-9 {
        return None;
    }
    asbestos_net::percentile(sorted, p)
}

/// Median of the repetitions' values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no repetitions");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) ÷ median: the run-to-run spread printed for counters that
/// thread timing may move.
pub fn rel_spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (max - min) / mid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 1000, 50.0), Some(500.0));
        assert_eq!(percentile(&v, 1000, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 100_000, 99.9), Some(999.0));
        assert_eq!(
            percentile(&v, 100_000, 100.0),
            None,
            "nothing lies beyond the max"
        );
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&four, 1000, 50.0), Some(2.0));
        assert_eq!(percentile(&four, 1000, 51.0), Some(3.0));
        assert_eq!(percentile(&[], 1000, 50.0), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=16_000).map(f64::from).collect();
        // 16,000 request samples, but only 999 rounds: 9.99 rounds beyond p99.
        assert_eq!(percentile(&v, 999, 99.0), None);
        assert!(percentile(&v, 1000, 99.0).is_some());
        // The median needs 20 rounds.
        assert_eq!(percentile(&v, 19, 50.0), None);
        assert!(percentile(&v, 20, 50.0).is_some());
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One slow process-level timing mode does not move the result.
        assert_eq!(median(&[100.0, 101.0, 55.0]), 100.0);
    }

    #[test]
    fn spread() {
        assert_eq!(rel_spread(&[10.0, 10.0, 10.0]), 0.0);
        assert!((rel_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }
}
