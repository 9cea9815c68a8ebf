//! Batched multiple-choice allocation (\[BCE+12\], "Multiple-choice
//! balanced allocation in (almost) parallel").
//!
//! Balls arrive in batches of size `B`. Within a batch every ball samples
//! two bins and commits to the one that was less loaded *at the start of
//! the batch* — all decisions in a batch use the same stale load vector,
//! which is exactly what a batch of parallel two-choice players can
//! observe. Larger batches mean staler information and a (slightly)
//! larger gap; \[BCE+12\] show the gap stays `O(log n)`-free, i.e.
//! comparable to sequential two-choice, for `B = O(n)`.
//!
//! Each batch is one engine round: bins accept every request and attach
//! their round-start load ([`CommitOption::load_before`]); the ball picks
//! the smaller.
//!
//! [`CommitOption::load_before`]: pba_core::CommitOption

use crate::choices::FixedChoices;
use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, CommitOption, RoundContext};
use pba_core::rng::SplitMix64;
use pba_core::{ProblemSpec, RoundProtocol};

/// Two-choice allocation in batches of `B` balls.
#[derive(Debug, Clone, Copy)]
pub struct BatchedTwoChoice {
    spec: ProblemSpec,
    batch: u64,
}

impl BatchedTwoChoice {
    /// Batch size `B ≥ 1`.
    pub fn new(spec: ProblemSpec, batch: u64) -> Self {
        assert!(batch >= 1);
        Self { spec, batch }
    }

    /// The batch size.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Number of batches (= rounds).
    pub fn batches(&self) -> u64 {
        self.spec.balls().div_ceil(self.batch)
    }
}

impl RoundProtocol for BatchedTwoChoice {
    type BallState = FixedChoices;

    const NEEDS_COMMIT_CHOICE: bool = true;

    fn name(&self) -> &'static str {
        "batched-two-choice"
    }

    fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
        (self.batches() + 1).min(u32::MAX as u64) as u32
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        state: &mut FixedChoices,
        _rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        // Only the current batch participates; everyone else stays silent
        // and remains active.
        let batch_index = ball.ball as u64 / self.batch;
        if batch_index == ctx.round as u64 {
            for &bin in state.ensure(2, ctx, ball).iter() {
                out.push(bin);
            }
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, _load: u32, arrivals: u32) -> BinGrant {
        BinGrant {
            accept: arrivals,
            want: arrivals,
        }
    }

    fn pick_commit(
        &self,
        _ctx: &RoundContext,
        _ball: BallContext,
        options: &[CommitOption],
    ) -> usize {
        // Stale-information two-choice: compare loads from the batch
        // start, ignore within-batch arrivals (slots).
        options
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.load_before)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{LoadStats, RunConfig, Simulator};

    #[test]
    fn completes_in_m_over_b_rounds() {
        let spec = ProblemSpec::new(1 << 14, 1 << 8).unwrap();
        let p = BatchedTwoChoice::new(spec, 1 << 10);
        let batches = p.batches();
        let out = Simulator::new(spec, RunConfig::seeded(1)).run(p).unwrap();
        assert!(out.is_complete());
        assert_eq!(out.rounds as u64, batches);
    }

    #[test]
    fn batch_of_one_matches_sequential_two_choice_quality() {
        let n = 1u32 << 8;
        let spec = ProblemSpec::new((n as u64) * 64, n).unwrap();
        let batched = Simulator::new(spec, RunConfig::seeded(3))
            .run(BatchedTwoChoice::new(spec, 1))
            .unwrap();
        let seq_gap = LoadStats::from_loads(&crate::seq::GreedyD::two_choice(spec).run(3)).gap();
        // B = 1 IS sequential two-choice (fresh loads every ball).
        assert!(
            batched.gap() <= seq_gap + 2,
            "batched {} vs seq {seq_gap}",
            batched.gap()
        );
    }

    #[test]
    fn larger_batches_do_not_collapse_quality() {
        // [BCE+12]: gap stays small for B = O(n).
        let n = 1u32 << 9;
        let spec = ProblemSpec::new((n as u64) * 32, n).unwrap();
        let g_n = Simulator::new(spec, RunConfig::seeded(5))
            .run(BatchedTwoChoice::new(spec, n as u64))
            .unwrap()
            .gap();
        let single = Simulator::new(spec, RunConfig::seeded(5))
            .run(crate::SingleChoice::new(spec))
            .unwrap()
            .gap();
        assert!(g_n < single, "batched(B=n) {g_n} vs single-choice {single}");
        assert!(g_n <= 12, "gap {g_n}");
    }

    #[test]
    fn staleness_monotonicity_roughly_holds() {
        let n = 1u32 << 9;
        let spec = ProblemSpec::new((n as u64) * 16, n).unwrap();
        let small = Simulator::new(spec, RunConfig::seeded(7))
            .run(BatchedTwoChoice::new(spec, (n / 4) as u64))
            .unwrap()
            .gap();
        let huge = Simulator::new(spec, RunConfig::seeded(7))
            .run(BatchedTwoChoice::new(spec, spec.balls()))
            .unwrap()
            .gap();
        // One giant batch = fully stale (all zeros) = random-ish placement
        // among pairs; must be no better than mildly stale batches.
        assert!(huge >= small, "huge {huge} vs small {small}");
    }
}
