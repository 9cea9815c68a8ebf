//! The `(1+β)`-choice process.
//!
//! Each ball flips a β-coin: with probability `β` it uses two choices
//! (GREEDY\[2\]); otherwise one. Peres, Talwar, and Wieder showed the gap is
//! `Θ(log n / β)` — interpolating between the single-choice `√` regime and
//! the two-choice double-log regime. Included as an ablation of "how much
//! second choice is enough".

use pba_core::rng::{ball_stream, Rand64};
use pba_core::ProblemSpec;

/// Configuration for the `(1+β)`-choice process.
#[derive(Debug, Clone, Copy)]
pub struct OnePlusBeta {
    spec: ProblemSpec,
    beta: f64,
}

impl OnePlusBeta {
    /// Create with `β ∈ [0, 1]`.
    pub fn new(spec: ProblemSpec, beta: f64) -> Self {
        assert!((0.0..=1.0).contains(&beta), "beta must be in [0,1]");
        Self { spec, beta }
    }

    /// Run the process; returns final loads.
    pub fn run(&self, seed: u64) -> Vec<u32> {
        let n = self.spec.bins();
        let mut loads = vec![0u32; n as usize];
        for ball in 0..self.spec.balls() {
            let mut rng = ball_stream(seed, 0, ball);
            let two = rng.bernoulli(self.beta);
            let mut best = rng.below(n);
            if two {
                let candidate = rng.below(n);
                if loads[candidate as usize] < loads[best as usize] {
                    best = candidate;
                }
            }
            loads[best as usize] += 1;
        }
        loads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::LoadStats;

    #[test]
    fn places_all_balls() {
        let spec = ProblemSpec::new(30_000, 128).unwrap();
        let loads = OnePlusBeta::new(spec, 0.5).run(2);
        assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 30_000);
    }

    #[test]
    fn beta_zero_is_single_choice() {
        let spec = ProblemSpec::new(10_000, 64).unwrap();
        // β = 0 never consumes the second draw... but the coin flip offsets
        // the stream relative to single_choice_loads, so compare statistics
        // rather than exact vectors: total mass and seed-determinism.
        let a = OnePlusBeta::new(spec, 0.0).run(5);
        let b = OnePlusBeta::new(spec, 0.0).run(5);
        assert_eq!(a, b);
        assert_eq!(a.iter().map(|&l| l as u64).sum::<u64>(), 10_000);
    }

    #[test]
    fn gap_interpolates_between_regimes() {
        let spec = ProblemSpec::new(1 << 18, 1 << 10).unwrap(); // m/n = 256
        let g0 = LoadStats::from_loads(&OnePlusBeta::new(spec, 0.0).run(9)).gap();
        let g05 = LoadStats::from_loads(&OnePlusBeta::new(spec, 0.5).run(9)).gap();
        let g1 = LoadStats::from_loads(&OnePlusBeta::new(spec, 1.0).run(9)).gap();
        assert!(g05 < g0, "β=0.5 ({g05}) should beat β=0 ({g0})");
        assert!(g1 <= g05, "β=1 ({g1}) should not lose to β=0.5 ({g05})");
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_rejected() {
        let spec = ProblemSpec::new(10, 2).unwrap();
        let _ = OnePlusBeta::new(spec, 1.5);
    }
}
