//! Replication statistics: summaries of repeated measurements.

/// Summary of a sample of `f64` measurements (e.g. the gap over 30 seeded
/// runs).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    values: Vec<f64>, // kept sorted
    mean: f64,
    variance: f64,
}

impl Summary {
    /// Summarize a nonempty sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or non-finite values.
    pub fn from_values(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empty sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "non-finite sample value"
        );
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let variance = if values.len() > 1 {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        } else {
            0.0
        };
        Self {
            values,
            mean,
            variance,
        }
    }

    /// Convenience: summarize integers.
    pub fn from_u64(values: impl IntoIterator<Item = u64>) -> Self {
        Self::from_values(values.into_iter().map(|v| v as f64).collect())
    }

    /// Sample size.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Standard error of the mean.
    pub fn stderr(&self) -> f64 {
        self.stddev() / (self.count() as f64).sqrt()
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.values.last().unwrap()
    }

    /// `q`-quantile by linear interpolation on the sorted sample,
    /// `q ∈ [0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let pos = q * (self.values.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let frac = pos - lo as f64;
            self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        }
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Normal-approximation confidence interval for the mean at the given
    /// two-sided level (e.g. `0.95`).
    pub fn mean_ci(&self, level: f64) -> (f64, f64) {
        assert!(level > 0.0 && level < 1.0);
        let z = crate::normal::normal_quantile(0.5 + level / 2.0);
        let half = z * self.stderr();
        (self.mean - half, self.mean + half)
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (n={}, min {:.3}, med {:.3}, max {:.3})",
            self.mean,
            self.stderr(),
            self.count(),
            self.min(),
            self.median(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_moments() {
        let s = Summary::from_values(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.count(), 4);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = Summary::from_values(vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(s.median(), 30.0);
        assert_eq!(s.quantile(0.0), 10.0);
        assert_eq!(s.quantile(1.0), 50.0);
        assert!((s.quantile(0.25) - 20.0).abs() < 1e-12);
        assert!((s.quantile(0.1) - 14.0).abs() < 1e-12);
    }

    #[test]
    fn single_observation() {
        let s = Summary::from_values(vec![7.0]);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.median(), 7.0);
    }

    #[test]
    fn ci_contains_mean_and_shrinks() {
        let small = Summary::from_values((0..10).map(|i| i as f64).collect());
        let large = Summary::from_values((0..1000).map(|i| (i % 10) as f64).collect());
        let (lo_s, hi_s) = small.mean_ci(0.95);
        let (lo_l, hi_l) = large.mean_ci(0.95);
        assert!(lo_s < small.mean() && small.mean() < hi_s);
        assert!(hi_l - lo_l < hi_s - lo_s);
    }

    #[test]
    fn from_u64_works() {
        let s = Summary::from_u64([3u64, 1, 2]);
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = Summary::from_values(vec![]);
    }

    #[test]
    fn display_contains_mean() {
        let s = Summary::from_values(vec![1.0, 2.0, 3.0]);
        assert!(s.to_string().contains("2.000"));
    }
}
