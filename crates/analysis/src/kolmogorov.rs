//! Kolmogorov–Smirnov distances, for verifying the Berry–Esseen setup of
//! the lower-bound proof (Theorem 4 / Claim 5) empirically: the
//! normalized per-bin load CDF must be within `c·ρ/(σ³√M)` of the
//! standard normal in sup-distance.

use crate::normal::normal_cdf;

/// Sup-distance between the empirical CDF of `sample` and a reference
/// CDF `f`.
///
/// Uses the standard two-sided KS statistic
/// `max_i max(|i/n − F(x_i)|, |F(x_i) − (i−1)/n|)` over the sorted
/// sample.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn ks_distance_to(sample: &[f64], f: impl Fn(f64) -> f64) -> f64 {
    assert!(!sample.is_empty(), "empty sample");
    let mut sorted: Vec<f64> = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let fx = f(x);
        let upper = ((i + 1) as f64 / n - fx).abs();
        let lower = (fx - i as f64 / n).abs();
        d = d.max(upper).max(lower);
    }
    d
}

/// KS distance between the standardized sample and the standard normal.
///
/// The sample is centered and scaled by the provided `mean` and `stddev`
/// (use the *theoretical* moments — e.g. `μ = M/n`, `σ = √(M·p(1−p))`
/// for per-bin loads — not the sample moments, to match the theorem's
/// statement).
pub fn ks_distance_to_normal(sample: &[f64], mean: f64, stddev: f64) -> f64 {
    assert!(stddev > 0.0);
    let standardized: Vec<f64> = sample.iter().map(|&x| (x - mean) / stddev).collect();
    ks_distance_to(&standardized, normal_cdf)
}

/// The discreteness floor of a lattice distribution's KS distance to any
/// continuous CDF: half the largest single-atom mass. For per-bin loads
/// this is `≈ pmf(mode)/2 ≈ 1/(2σ√(2π))`; comparing a measured KS
/// distance against `berry_esseen_bound + discreteness floor` is the
/// honest finite-size check.
pub fn lattice_ks_floor(stddev: f64) -> f64 {
    assert!(stddev > 0.0);
    1.0 / (2.0 * stddev * (2.0 * std::f64::consts::PI).sqrt())
}

/// The Dvoretzky–Kiefer–Wolfowitz deviation bound: with `n` samples,
/// `P[sup_x |F̂(x) − F(x)| > ε] ≤ α` for
/// `ε = √(ln(2/α) / (2n))`. This is the tolerance the conformance
/// oracles grant a measured KS distance before declaring a claim
/// refuted.
///
/// # Panics
///
/// Panics when `n == 0` or `alpha` is outside `(0, 1)`.
pub fn dkw_epsilon(n: usize, alpha: f64) -> f64 {
    assert!(n > 0, "need at least one sample");
    assert!((0.0..1.0).contains(&alpha) && alpha > 0.0, "alpha in (0,1)");
    ((2.0 / alpha).ln() / (2.0 * n as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core_free_rng::SplitMix64ish;

    /// Tiny local generator so this crate stays free of cross-deps in
    /// tests.
    mod pba_core_free_rng {
        pub(super) struct SplitMix64ish(pub(super) u64);
        impl SplitMix64ish {
            pub(super) fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            }
            pub(super) fn unit(&mut self) -> f64 {
                (self.next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
            }
        }
    }

    #[test]
    fn uniform_sample_close_to_uniform_cdf() {
        let mut rng = SplitMix64ish(42);
        let sample: Vec<f64> = (0..20_000).map(|_| rng.unit()).collect();
        let d = ks_distance_to(&sample, |x| x.clamp(0.0, 1.0));
        // KS ~ 1.36/√n at 95%: ≈ 0.0096 for n = 20000.
        assert!(d < 0.02, "KS distance {d}");
    }

    #[test]
    fn shifted_sample_is_far() {
        let sample: Vec<f64> = (0..1000).map(|i| 0.5 + i as f64 / 2000.0).collect();
        let d = ks_distance_to(&sample, |x| x.clamp(0.0, 1.0));
        assert!(d > 0.4, "KS distance {d}");
    }

    #[test]
    fn clt_sample_close_to_normal() {
        // Sums of 64 uniforms, standardized: KS to Φ should be small.
        let mut rng = SplitMix64ish(7);
        let k = 64;
        let sample: Vec<f64> = (0..10_000)
            .map(|_| (0..k).map(|_| rng.unit()).sum::<f64>())
            .collect();
        let mean = k as f64 * 0.5;
        let stddev = (k as f64 / 12.0).sqrt();
        let d = ks_distance_to_normal(&sample, mean, stddev);
        assert!(d < 0.03, "KS distance {d}");
    }

    #[test]
    fn ks_floor_decreases_with_sigma() {
        assert!(lattice_ks_floor(10.0) < lattice_ks_floor(2.0));
        // σ = 1: floor ≈ 0.199.
        assert!((lattice_ks_floor(1.0) - 0.1995).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        let _ = ks_distance_to(&[], |x| x);
    }
}
