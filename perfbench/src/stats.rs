//! Summary statistics over latency samples.

/// A percentile read off a sample, with the sample's size and how many
/// samples lie strictly beyond the reported rank — the guide for whether
/// the percentile is supported (at least ten beyond).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The value at the nearest rank.
    pub value: f64,
    /// Samples the percentile was read from.
    pub count: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`, which need
/// not be sorted. `None` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    Some(Quantile {
        value: sorted[idx],
        count: n,
        beyond: n - idx - 1,
    })
}

/// Median (nearest-rank p50) value, or 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |q| q.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let p50 = percentile(&v, 50.0).unwrap();
        assert_eq!((p50.value, p50.count, p50.beyond), (50.0, 100, 50));
        let p99 = percentile(&v, 99.0).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        let p100 = percentile(&v, 100.0).unwrap();
        assert_eq!((p100.value, p100.beyond), (100.0, 0));
    }

    #[test]
    fn percentile_counts_samples_beyond_the_rank() {
        // 1000 samples: p99 sits at rank 990, leaving ten above it.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let q = percentile(&v, 99.0).unwrap();
        assert_eq!((q.value, q.count, q.beyond), (989.0, 1000, 10));
    }

    #[test]
    fn tiny_and_empty_samples() {
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[]), 0.0);
        let one = percentile(&[7.5], 99.0).unwrap();
        assert_eq!((one.value, one.count, one.beyond), (7.5, 1, 0));
        assert_eq!(percentile(&[3.0, 1.0], 1.0).unwrap().value, 1.0);
    }
}
