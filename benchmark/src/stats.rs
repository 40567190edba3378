//! The harness's own arithmetic: medians, spreads, and the highest
//! percentile a sample supports.

/// Median of `xs` (mean of the middle pair for even lengths). Panics on
/// an empty slice: every caller measures at least one rep.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(max - min) / median`: the rep-to-rep spread the `noisy` guard reads.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (lo, hi) =
        xs.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    (hi - lo) / m
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(xs, n=4)` uses (exclusive), so `compare`'s
/// spreads are the ones the benchmark's acceptance rule is stated in.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k*(n+1)/4, 1-based, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, or `None` under 20 samples (even the
/// median then has fewer than ten on each side).
pub fn highest_supported_percentile(samples: u64) -> Option<f64> {
    // (numerator, denominator): integer arithmetic, because
    // `100.0 * (1.0 - 0.9)` is 9.999999999999998.
    const LADDER: [(u64, u64); 6] =
        [(9999, 10000), (999, 1000), (99, 100), (95, 100), (9, 10), (1, 2)];
    LADDER
        .into_iter()
        .find(|(num, den)| samples.saturating_mul(den - num) >= 10 * den)
        .map(|(num, den)| num as f64 / den as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(rel_spread(&[10.0, 11.0, 9.0]), 0.2);
        assert_eq!(rel_spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(999), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
        assert_eq!(highest_supported_percentile(100_000), Some(0.9999));
    }
}
