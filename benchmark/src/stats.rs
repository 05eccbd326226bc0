//! Order statistics and ratios used by every reported metric.

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice;
/// returns the value and how many samples lie strictly beyond its rank.
pub fn percentile(sorted: &[f64], p: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// Percentile `p` of unsorted `values` and the samples strictly beyond
/// it; `(0, 0)` for no samples.
pub fn tail(values: &[f64], p: f64) -> (f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        (0.0, 0)
    } else {
        percentile(&v, p)
    }
}

/// `num / den`, or 0 when there was nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mean_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), (50.0, 50));
        assert_eq!(percentile(&v, 90.0), (90.0, 10));
        assert_eq!(percentile(&v, 99.0), (99.0, 1));
        assert_eq!(percentile(&v, 100.0), (100.0, 0));
        assert_eq!(percentile(&[7.0], 50.0), (7.0, 0));
    }

    #[test]
    fn tail_of_unsorted_samples() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(tail(&v, 90.0), (90.0, 10));
        assert_eq!(tail(&v[..99], 75.0), (76.0, 24));
        assert_eq!(tail(&[], 90.0), (0.0, 0));
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
    }
}
