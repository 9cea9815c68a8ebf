//! Order statistics over a run's samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between the two closest ranks (the "type 7" rule most tools use).
/// Returns `None` for an empty sample.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values` (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// The median of `values`, or 0 for an empty sample (a metric with no
/// passing operation reads 0, and the run is marked incorrect anyway).
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    median(&values.into_iter().collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Nanoseconds as seconds.
pub fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The arithmetic mean of `values` (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(11.0));
        assert_eq!(percentile(&v, 0.9), Some(10.0));
        assert_eq!(percentile(&v, 0.25), Some(3.5));
        // Ten samples: rank 0.9 × 9 = 8.1 sits a tenth past the 9th value.
        let ten: Vec<f64> = (1..=10).map(|i| f64::from(i) * 10.0).collect();
        let p90 = percentile(&ten, 0.9).unwrap();
        assert!((p90 - 91.0).abs() < 1e-9, "{p90}");
        // Input order does not matter.
        let shuffled = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&shuffled, 0.75), Some(40.0));
    }

    #[test]
    fn mean_of_known_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
