//! Sequential (one ball at a time) baselines.
//!
//! These are the comparators the parallel papers position against: the
//! single-choice allocation, `d`-choice GREEDY of Azar et al. (whose
//! heavily loaded gap `m/n + O(log log n)` is the Berenbrink et al. result
//! the heavily loaded paper improves to `m/n + O(1)` in parallel) and the
//! `(1+β)`-choice process.
//!
//! Sequential processes need no engine: each returns a load vector
//! directly (and optionally a per-ball assignment).

mod greedy;
mod one_plus_beta;

pub use greedy::GreedyD;
pub use one_plus_beta::OnePlusBeta;

use pba_core::rng::{ball_stream, Rand64};
use pba_core::ProblemSpec;

/// Sequential single-choice: each ball joins a uniformly random bin.
///
/// Identical in distribution to the parallel
/// [`crate::SingleChoice`]; provided so sequential experiments avoid
/// engine overhead.
pub fn single_choice_loads(spec: ProblemSpec, seed: u64) -> Vec<u32> {
    let mut loads = vec![0u32; spec.bins() as usize];
    for ball in 0..spec.balls() {
        let mut rng = ball_stream(seed, 0, ball);
        loads[rng.below(spec.bins()) as usize] += 1;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::Allocation;

    #[test]
    fn single_choice_places_all_balls() {
        let spec = ProblemSpec::new(10_000, 64).unwrap();
        let loads = single_choice_loads(spec, 1);
        assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 10_000);
        let alloc = Allocation::new(spec, loads, None);
        assert!(alloc.is_well_formed());
    }

    #[test]
    fn single_choice_is_seeded() {
        let spec = ProblemSpec::new(5_000, 32).unwrap();
        assert_eq!(single_choice_loads(spec, 9), single_choice_loads(spec, 9));
        assert_ne!(single_choice_loads(spec, 9), single_choice_loads(spec, 10));
    }
}
