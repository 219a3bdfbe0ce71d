//! Sample summaries: medians, means and percentiles under the
//! "at least ten samples beyond it" rule.

/// The fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `q` (in `0..1`) over `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it — a tail that
/// thin is one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it (1-based rank ⌈q·n⌉, at least 1).
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// [`percentile`], or NaN when the sample is too small for it. A NaN
/// metric marks the run's result incorrect.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(f64::NAN)
}

/// The median of each key's samples (`samples[k]` holds key `k`'s, one
/// per repetition): a key's typical time, unmoved by a stall or a fast
/// moment in fewer than half of the repetitions.
pub fn median_per_key(samples: &[Vec<f64>]) -> Vec<f64> {
    samples.iter().map(|s| median(s)).collect()
}

/// Arithmetic mean (`0` for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the function has to sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond rank 90.
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        // 99 samples: rank ⌈89.1⌉ = 90 leaves only 9 beyond.
        assert_eq!(percentile(&ramp(99), 0.90), None);
        // p99 needs a thousand samples.
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        // The cold-pair and first-touch sample counts the workloads use.
        assert_eq!(percentile(&ramp(132), 0.90), Some(119.0));
        assert_eq!(percentile(&ramp(218), 0.90), Some(197.0));
        // A p95 over 132 samples has only 6 beyond it.
        assert_eq!(percentile(&ramp(132), 0.95), None);
    }

    #[test]
    fn percentile_rejects_degenerate_input() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.0), None);
        assert_eq!(percentile(&ramp(100), -0.1), None);
        // The median of twenty samples has ten beyond it.
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_per_key_ignores_a_minority_of_outliers() {
        let samples = vec![vec![5.0, 900.0, 6.0, 5.5, 1.0], vec![2.0, 2.0, 3.0]];
        assert_eq!(median_per_key(&samples), vec![5.5, 2.0]);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
