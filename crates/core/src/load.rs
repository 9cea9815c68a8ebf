//! Load statistics over a bin-load vector.

use std::collections::BTreeMap;

/// Summary statistics of a final (or intermediate) load vector.
///
/// The headline quantity in the literature is the **gap**: the difference
/// between the maximum load and the optimum `⌈m/n⌉`. The naive single-choice
/// allocation has gap `Θ(√((m/n)·log n))` for `m ≥ n log n`; the protocols
/// reproduced here push it to `O(1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadStats {
    max: u32,
    min: u32,
    total: u64,
    bins: u32,
    mean: f64,
    variance: f64,
    histogram: BTreeMap<u32, u32>,
}

impl LoadStats {
    /// Compute statistics from a load vector.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice (a spec always has ≥ 1 bin).
    pub fn from_loads(loads: &[u32]) -> Self {
        assert!(!loads.is_empty(), "load vector must be nonempty");
        let mut max = 0u32;
        let mut min = u32::MAX;
        let mut total = 0u64;
        let mut histogram: BTreeMap<u32, u32> = BTreeMap::new();
        for &l in loads {
            max = max.max(l);
            min = min.min(l);
            total += l as u64;
            *histogram.entry(l).or_insert(0) += 1;
        }
        let bins = loads.len() as u32;
        let mean = total as f64 / bins as f64;
        let variance = loads
            .iter()
            .map(|&l| {
                let d = l as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / bins as f64;
        Self {
            max,
            min,
            total,
            bins,
            mean,
            variance,
            histogram,
        }
    }

    /// Maximum load over all bins.
    #[inline]
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Minimum load over all bins.
    #[inline]
    pub fn min(&self) -> u32 {
        self.min
    }

    /// Total number of balls placed.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Standard deviation of the loads.
    #[inline]
    pub(crate) fn stddev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Gap above the optimum: `max − ⌈total/bins⌉`.
    ///
    /// This is the quantity the papers bound (`O(1)`, `O(log log n)`,
    /// `Θ(√((m/n) log n))`, …). Zero means a perfectly balanced allocation.
    #[inline]
    pub fn gap(&self) -> u32 {
        let opt = self.total.div_ceil(self.bins as u64) as u32;
        self.max.saturating_sub(opt)
    }

    /// Spread `max − min`.
    #[inline]
    pub fn spread(&self) -> u32 {
        self.max - self.min
    }

    /// Histogram of load → number of bins with that load.
    pub fn histogram(&self) -> &BTreeMap<u32, u32> {
        &self.histogram
    }

    /// Smallest load `q` such that at least `fraction` of the bins have
    /// load ≤ `q`. `fraction` is clamped to `[0, 1]`.
    pub fn quantile(&self, fraction: f64) -> u32 {
        let f = fraction.clamp(0.0, 1.0);
        let target = (f * self.bins as f64).ceil() as u64;
        let mut seen = 0u64;
        for (&load, &count) in &self.histogram {
            seen += count as u64;
            if seen >= target {
                return load;
            }
        }
        self.max
    }
}

impl std::fmt::Display for LoadStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max {} (gap {}), min {}, mean {:.2}, σ {:.2} over {} bins",
            self.max,
            self.gap(),
            self.min,
            self.mean,
            self.stddev(),
            self.bins
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_stats() {
        let s = LoadStats::from_loads(&[1, 2, 3, 4]);
        assert_eq!(s.max(), 4);
        assert_eq!(s.min(), 1);
        assert_eq!(s.total(), 10);
        assert_eq!(s.mean, 2.5);
        assert!((s.variance - 1.25).abs() < 1e-12);
        assert_eq!(s.spread(), 3);
    }

    #[test]
    fn gap_against_ceiling_average() {
        // total 10, 4 bins → opt = 3; max 4 → gap 1.
        let s = LoadStats::from_loads(&[1, 2, 3, 4]);
        assert_eq!(s.gap(), 1);
        // perfectly balanced
        let t = LoadStats::from_loads(&[5, 5, 5]);
        assert_eq!(t.gap(), 0);
        // below ceiling (unplaced balls) saturates at zero
        let u = LoadStats::from_loads(&[0, 0, 1]);
        assert_eq!(u.gap(), 0);
    }

    #[test]
    fn histogram_counts() {
        let s = LoadStats::from_loads(&[2, 2, 3, 5, 5, 5]);
        let h = s.histogram();
        assert_eq!(h.get(&2), Some(&2));
        assert_eq!(h.get(&3), Some(&1));
        assert_eq!(h.get(&5), Some(&3));
        assert_eq!(h.get(&4), None);
    }

    #[test]
    fn quantiles() {
        let s = LoadStats::from_loads(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(s.quantile(0.0), 1);
        assert_eq!(s.quantile(0.5), 5);
        assert_eq!(s.quantile(1.0), 10);
        assert_eq!(s.quantile(2.0), 10); // clamped
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_loads_panic() {
        let _ = LoadStats::from_loads(&[]);
    }

    #[test]
    fn display_contains_key_numbers() {
        let s = LoadStats::from_loads(&[3, 3, 3]).to_string();
        assert!(s.contains("max 3"));
    }
}
