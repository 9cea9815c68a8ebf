//! One-shot uniform placement — the naive baseline both papers start from.
//!
//! Every ball contacts one uniformly random bin; bins accept everything.
//! One round, `m` messages, and a maximal load of
//! `m/n + Θ(√((m/n)·log n))` for `m ≥ n log n` (Chernoff), or
//! `Θ(log n / log log n)` at `m = n`. Experiment E1 reproduces both
//! regimes.

use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// The single-choice protocol (degree 1, no rejection, one round).
#[derive(Debug, Clone, Copy)]
pub struct SingleChoice;

impl SingleChoice {
    /// Create for `spec`; one round places every ball whatever the
    /// instance, so the protocol keeps no parameters.
    pub fn new(_spec: ProblemSpec) -> Self {
        Self
    }
}

impl RoundProtocol for SingleChoice {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "single-choice"
    }

    fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
        2 // terminates after round 0; budget 2 guards regressions
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        _state: &mut NoBallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        out.push(rng.below(ctx.spec.bins()));
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, _load: u32, arrivals: u32) -> BinGrant {
        // Accept everything; "want" equals arrivals so no bin ever counts
        // as underloaded (there is no threshold to miss).
        BinGrant {
            accept: arrivals,
            want: arrivals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_analysis::predict::single_choice_gap;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completes_in_one_round() {
        let spec = ProblemSpec::new(100_000, 256).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(1))
            .run(SingleChoice::new(spec))
            .unwrap();
        assert_eq!(out.rounds, 1);
        assert!(out.is_complete());
        assert_eq!(out.messages.requests, 100_000);
        assert_eq!(out.messages.commits, 100_000);
    }

    #[test]
    fn gap_matches_chernoff_scale_heavy_regime() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 8, n).unwrap(); // m/n = 256
        let out = Simulator::new(spec, RunConfig::seeded(7))
            .run(SingleChoice::new(spec))
            .unwrap();
        let gap = out.gap() as f64;
        let predicted = single_choice_gap(spec.balls(), n); // ≈ √(2·256·ln1024) ≈ 60
        assert!(gap > predicted * 0.4, "gap {gap} vs predicted {predicted}");
        assert!(gap < predicted * 2.0, "gap {gap} vs predicted {predicted}");
    }

    #[test]
    fn no_underloaded_bins_by_definition() {
        let spec = ProblemSpec::new(10_000, 64).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(3))
            .run(SingleChoice::new(spec))
            .unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(trace.records()[0].underloaded_bins, 0);
    }
}
