//! Order statistics for the report: medians, percentiles, and the rule for
//! which tail percentile a sample can support.

/// The `q`-quantile (nearest rank) of an ascending-sorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1)).min(n)
}

/// Tail percentiles a report may quote, lowest first.
pub const TAILS: [f64; 5] = [0.50, 0.90, 0.95, 0.99, 0.999];

/// The highest of [`TAILS`] with at least ten of `n` samples beyond it —
/// a tail estimated from fewer is noise. `None` when even the median has
/// fewer than ten samples above it.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().rfind(|&q| samples_beyond(n, q) >= 10)
}

/// A latency sample summarised for the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// The highest tail the sample supports (see
    /// [`highest_supported_tail`]).
    pub supported_tail: Option<f64>,
}

impl Summary {
    /// Summarise an unsorted sample; `None` when it is empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            count: sorted.len(),
            p50: percentile(&sorted, 0.50),
            p95: percentile(&sorted, 0.95),
            supported_tail: highest_supported_tail(sorted.len()),
        })
    }

    /// "n=…, tail supported up to p…" for the report line.
    pub fn describe(&self) -> String {
        match self.supported_tail {
            Some(q) => format!("n={}, supports up to p{}", self.count, q * 100.0),
            None => format!("n={}, too few samples for any tail", self.count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), 50.0);
        assert_eq!(percentile(&sample, 0.95), 95.0);
        assert_eq!(percentile(&sample, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_picker_wants_ten_samples_beyond() {
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(20), Some(0.50));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        for n in 1..2_000 {
            if let Some(q) = highest_supported_tail(n) {
                assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn summary_prints_the_sample_count() {
        let sample: Vec<f64> = (1..=400).map(f64::from).collect();
        let summary = Summary::of(&sample).unwrap();
        assert_eq!(
            (summary.count, summary.p50, summary.p95),
            (400, 200.0, 380.0)
        );
        assert_eq!(summary.describe(), "n=400, supports up to p95");
        assert!(Summary::of(&[]).is_none());
    }
}
