//! The deterministic `n`-round fallback: balls try all bins one by one.
//!
//! Ball `b` contacts bin `(b + r) mod n` in round `r`; bins use the fixed
//! threshold `⌈m/n⌉` throughout. Because bins only ever fill up and every
//! ball visits every bin within `n` rounds, the allocation completes in at
//! most `n` rounds *deterministically* — the "Note on Success
//! Probability" algorithm covering `n < log log(m/n)`, where the
//! randomized bound is meaningless.

use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::SplitMix64;
use pba_core::{ProblemSpec, RoundProtocol};

/// Deterministic round-robin sweep (no randomness at all).
#[derive(Debug, Clone, Copy)]
pub struct TrivialRoundRobin;

impl RoundProtocol for TrivialRoundRobin {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "trivial-round-robin"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // Completion within n rounds is a theorem; +1 slack for the final
        // check.
        spec.bins() + 1
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        _state: &mut NoBallState,
        _rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        let n = ctx.spec.bins();
        out.push((ball.ball % n + ctx.round % n) % n);
    }

    fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        BinGrant::up_to(ctx.spec.ceil_avg().saturating_sub(load))
    }

    fn load_cap(&self, spec: &ProblemSpec) -> Option<u32> {
        Some(spec.ceil_avg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completes_within_n_rounds_with_perfect_balance() {
        let spec = ProblemSpec::new(10_000, 32).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(0))
            .run(TrivialRoundRobin)
            .unwrap();
        assert!(out.is_complete());
        assert!(out.rounds <= 32);
        assert_eq!(out.gap(), 0); // threshold ⌈m/n⌉ ⇒ perfectly balanced
    }

    #[test]
    fn is_seed_independent() {
        let spec = ProblemSpec::new(777, 13).unwrap();
        let a = Simulator::new(spec, RunConfig::seeded(1))
            .run(TrivialRoundRobin)
            .unwrap();
        let b = Simulator::new(spec, RunConfig::seeded(999))
            .run(TrivialRoundRobin)
            .unwrap();
        assert_eq!(a.loads, b.loads);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn worst_case_adversarial_m_close_to_capacity() {
        // m = n·⌈m/n⌉ exactly: zero slack anywhere, still completes.
        let spec = ProblemSpec::new(31 * 17, 17).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(0))
            .run(TrivialRoundRobin)
            .unwrap();
        assert!(out.is_complete());
        assert!(out.loads.iter().all(|&l| l == 31));
    }

    #[test]
    fn single_bin_degenerate_case() {
        let spec = ProblemSpec::new(100, 1).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(0))
            .run(TrivialRoundRobin)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.rounds, 1);
        assert_eq!(out.loads, vec![100]);
    }
}
