//! Order statistics for timing samples.
//!
//! A timing is reported as its median and the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, with the
//! sample count, so a tail figure is never read off one or two
//! outliers. Percentiles use the nearest-rank definition: the value at
//! rank `ceil(p / 100 * n)` of the sorted samples.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Candidate tail percentiles, from the highest down.
const TAIL_CANDIDATES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Median of `values`: the middle sample, or the mean of the two
/// middle samples for an even count. `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => sorted.get(n / 2).copied(),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`. `None`
/// when empty or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let sorted = sorted(values);
    sorted.get(rank(sorted.len(), p) - 1).copied()
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest of 99, 95, 90, 75 and 50 that has at least
/// [`TAIL_SAMPLES`] samples beyond it among `n`, or `None` when even
/// the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// A timing summary: sample count, median, and the supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median sample.
    pub median: f64,
    /// The tail percentile reported, if the count supports one.
    pub tail_p: Option<f64>,
    /// The value at `tail_p`.
    pub tail: Option<f64>,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        let median = median(values)?;
        let tail_p = tail_percentile(values.len());
        let tail = tail_p.and_then(|p| percentile(values, p));
        Some(Summary { count: values.len(), median, tail_p, tail })
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).max(1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentile() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        assert_eq!(percentile(&values, 99.0), Some(99.0));
        assert_eq!(percentile(&values, 100.0), Some(100.0));
        assert_eq!(percentile(&values, 0.5), Some(1.0));
        // Rank ceil(0.9 * 7) = 7: the maximum.
        assert_eq!(percentile(&[7.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&values, 0.0), None);
        assert_eq!(percentile(&values, 101.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = Summary::of(&values).expect("non-empty");
        assert_eq!(s.count, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail_p, Some(90.0));
        assert_eq!(s.tail, Some(90.0));
        let few = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((few.count, few.median, few.tail_p, few.tail), (2, 1.5, None, None));
        assert_eq!(Summary::of(&[]), None);
    }
}
