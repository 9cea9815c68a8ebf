//! Sequential `d`-choice GREEDY (\[ABKU99\]).
//!
//! Balls arrive one at a time; each samples `d` uniform bins and joins the
//! least loaded (ties broken by the first sampled). For `m = n` the gap is
//! `ln ln n / ln d + O(1)`; for `m ≫ n` Berenbrink et al. \[BCSV06\] showed
//! the gap stays `O(log log n)`, *independent of m* — the benchmark the
//! parallel heavily loaded algorithm is measured against (E2).

use pba_core::rng::{ball_stream, Rand64};
use pba_core::ProblemSpec;

/// Configuration for sequential GREEDY\[d\].
#[derive(Debug, Clone, Copy)]
pub struct GreedyD {
    spec: ProblemSpec,
    d: u32,
}

impl GreedyD {
    /// GREEDY with `d ≥ 1` choices.
    pub fn new(spec: ProblemSpec, d: u32) -> Self {
        assert!(d >= 1, "d must be at least 1");
        Self { spec, d }
    }

    /// The classical two-choice process.
    pub fn two_choice(spec: ProblemSpec) -> Self {
        Self::new(spec, 2)
    }

    /// Run the process; returns final loads.
    pub fn run(&self, seed: u64) -> Vec<u32> {
        let n = self.spec.bins();
        let mut loads = vec![0u32; n as usize];
        for ball in 0..self.spec.balls() {
            let mut rng = ball_stream(seed, 0, ball);
            let mut best = rng.below(n);
            for _ in 1..self.d {
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
    use pba_analysis::predict::two_choice_gap;
    use pba_core::LoadStats;

    #[test]
    fn places_all_balls() {
        let spec = ProblemSpec::new(50_000, 256).unwrap();
        let loads = GreedyD::two_choice(spec).run(3);
        assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 50_000);
    }

    #[test]
    fn d1_equals_single_choice_distribution() {
        // GREEDY[1] with the same seed must equal single_choice_loads.
        let spec = ProblemSpec::new(10_000, 64).unwrap();
        let a = GreedyD::new(spec, 1).run(5);
        let b = crate::seq::single_choice_loads(spec, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn two_choice_beats_one_choice() {
        let spec = ProblemSpec::new(1 << 18, 1 << 10).unwrap(); // m/n = 256
        let one = LoadStats::from_loads(&GreedyD::new(spec, 1).run(7)).gap();
        let two = LoadStats::from_loads(&GreedyD::new(spec, 2).run(7)).gap();
        // One-choice gap scale ≈ √(2·256·ln 1024) ≈ 60; two-choice ≈ 3.
        assert!(two < one / 3, "one={one} two={two}");
    }

    #[test]
    fn heavy_gap_is_doubly_logarithmic_scale() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 9, n).unwrap(); // m/n = 512
        let gap = LoadStats::from_loads(&GreedyD::two_choice(spec).run(11)).gap();
        // [BCSV06]: gap ≈ log₂ log₂ n + O(1) ≈ 3.3 + O(1).
        let predicted = two_choice_gap(n);
        assert!(
            (gap as f64) <= predicted + 5.0,
            "gap {gap} far above predicted scale {predicted}"
        );
    }

    #[test]
    fn more_choices_no_worse() {
        let spec = ProblemSpec::new(1 << 16, 1 << 8).unwrap();
        let g2 = LoadStats::from_loads(&GreedyD::new(spec, 2).run(13)).gap();
        let g4 = LoadStats::from_loads(&GreedyD::new(spec, 4).run(13)).gap();
        assert!(g4 <= g2 + 1, "g2={g2} g4={g4}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_choices_rejected() {
        let spec = ProblemSpec::new(10, 2).unwrap();
        let _ = GreedyD::new(spec, 0);
    }
}
