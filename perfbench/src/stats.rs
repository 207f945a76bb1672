//! Order statistics and ratios used by every workload.

/// Nearest-rank percentile of an ascending sample (`q` in `[0, 1]`): the
/// smallest value with at least `q` of the sample at or below it.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples strictly beyond the nearest-rank `q` percentile
/// position of a sample of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The `q` percentile of `sorted`, or `None` when fewer than ten samples
/// lie beyond it (a tail read off fewer samples is noise).
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), q) >= 10).then(|| percentile(sorted, q))
}

/// Median of an unsorted sample (the mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of the smaller half of `values`: a time robust to other work
/// on a shared host, which can only make a repetition slower.
pub fn fast_half_median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(2));
    median(&v)
}

/// Host speed of a closed loop, robust to neighbours on a shared host.
///
/// `samples_ms` are per-query host times in the order they ran. They are
/// cut into consecutive slices of `per` queries. Other work on the host
/// can only slow a slice down, so the faster half of the slices measures
/// the program: returns the median throughput (queries/s) of that half
/// and the median query time (ms) over its queries.
pub fn uncontended(samples_ms: &[f64], per: usize) -> (f64, f64) {
    assert!(!samples_ms.is_empty(), "no samples");
    let per = per.clamp(1, samples_ms.len());
    let mut slices: Vec<(f64, &[f64])> = samples_ms
        .chunks_exact(per)
        .map(|c| (per as f64 * 1e3 / c.iter().sum::<f64>(), c))
        .collect();
    slices.sort_by(|a, b| b.0.total_cmp(&a.0));
    slices.truncate(slices.len().div_ceil(2));
    let rates: Vec<f64> = slices.iter().map(|s| s.0).collect();
    let times: Vec<f64> = slices.iter().flat_map(|s| s.1.iter().copied()).collect();
    (median(&rates), median(&times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u64], 0.99), 7);
        // Rank ceil(0.5 * 5) = 3.
        assert_eq!(percentile(&[1u64, 2, 3, 4, 5], 0.5), 3);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1,000 samples sits at rank 990: ten lie beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(100, 0.5), 50);
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&big, 0.99), Some(989.0));
        assert_eq!(tail(&big[..999], 0.99), None);
        assert_eq!(tail(&[], 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn fast_half() {
        assert_eq!(fast_half_median(&[9.0, 1.0, 2.0]), 1.5);
        assert_eq!(fast_half_median(&[4.0, 3.0, 2.0, 1.0, 100.0, 200.0]), 2.0);
        assert_eq!(fast_half_median(&[5.0]), 5.0);
    }

    #[test]
    fn uncontended_ignores_slowed_slices() {
        // Slices of 4 queries at 1 ms and 2 ms alternate with slices
        // slowed 3x by other work.
        let mut v = Vec::new();
        for i in 0..10 {
            let f = if i % 2 == 0 { 1.0 } else { 3.0 };
            v.extend([1.0 * f, 2.0 * f, 1.0 * f, 2.0 * f]);
        }
        let (rate, p50) = uncontended(&v, 4);
        assert!((rate - 4.0 * 1e3 / 6.0).abs() < 1e-9);
        assert_eq!(p50, 1.5);
        // A ragged tail is dropped; one slice of everything when `per` is
        // larger than the sample.
        assert_eq!(uncontended(&[1.0, 1.0, 1.0, 9.0], 3), (1000.0, 1.0));
        assert_eq!(uncontended(&[2.0, 2.0], 10), (500.0, 2.0));
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
