//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark reports is taken from the full sorted
//! sample set (nearest rank), never from histogram buckets, and carries
//! its sample count and how many samples lie strictly beyond it.

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// duration or a count).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` in `[0, 100]`; 0 when empty.
    #[must_use]
    pub fn pct(&self, p: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.len();
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }

    /// The median (nearest rank).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.pct(50.0)
    }

    /// Samples strictly greater than the `p`-th percentile.
    #[must_use]
    pub fn beyond(&self, p: f64) -> usize {
        let v = self.pct(p);
        self.sorted.len() - self.sorted.partition_point(|&x| x <= v)
    }

    /// `name n=… p50=… p99=… beyond_p50=… beyond_p99=…` for the log.
    #[must_use]
    pub fn describe(&self, name: &str, percentiles: &[f64]) -> String {
        let mut line = format!("{name} n={}", self.len());
        for &p in percentiles {
            line.push_str(&format!(" p{p}={:.3} beyond_p{p}={}", self.pct(p), self.beyond(p)));
        }
        line
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_tails() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.pct(50.0), 50.0);
        assert_eq!(s.pct(99.0), 99.0);
        assert_eq!(s.pct(100.0), 100.0);
        assert_eq!(s.beyond(99.0), 1);
        assert_eq!(s.beyond(50.0), 50);
        assert_eq!(Samples::default().pct(50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
