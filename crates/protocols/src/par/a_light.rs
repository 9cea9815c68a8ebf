//! `A_light` — adaptive symmetric finisher in the style of Lenzen &
//! Wattenhofer \[LW16\].
//!
//! For `O(n)` balls into `n` bins. In round `r`, every active ball
//! contacts `min(2^r, degree_cap)` uniformly random bins; a bin accepts a
//! round's arrivals **all-or-nothing** iff its load stays within the cap
//! `⌈m/n⌉ + extra`. The doubling request degree is the LW16 mechanism for
//! beating the `Θ(log n)` coupon-collector tail of constant-degree retry:
//! the active-ball count collapses super-exponentially, giving
//! `log* n + O(1)`-flavoured round counts with `O(1)` expected messages
//! per ball.
//!
//! Used standalone (E7 companion) and as phase 2 of
//! [`crate::ThresholdHeavy`].

use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// The adaptive doubling-degree collision finisher.
#[derive(Debug, Clone, Copy)]
pub struct ALight {
    cap: u32,
    degree_cap: u32,
}

impl ALight {
    /// Per-bin capacity `⌈m/n⌉ + extra`, degree cap 8.
    ///
    /// `extra ≥ 1`; total capacity must exceed `m` for completion.
    pub fn new(spec: ProblemSpec, extra: u32) -> Self {
        assert!(extra >= 1, "extra must be ≥ 1");
        let cap = spec.ceil_avg().saturating_add(extra);
        Self { cap, degree_cap: 8 }
    }

    /// Override the doubling degree cap (`≥ 1`).
    #[cfg(test)]
    pub(crate) fn with_degree_cap(mut self, cap: u32) -> Self {
        assert!(cap >= 1);
        self.degree_cap = cap;
        self
    }
}

/// Doubling request degree, throttled so the *expected arrivals per bin*
/// stay within the average remaining headroom.
///
/// All-or-nothing acceptance stalls when arrivals systematically exceed
/// headroom: with total capacity `cap·n` and `placed = m − active` balls
/// already stored, the average headroom is `(cap·n − placed)/n`, and the
/// expected per-bin arrivals are `degree·active/n`. Keeping
/// `degree ≤ headroom·n/active` preserves the light-case doubling
/// behaviour (`active ≪ n` ⇒ large degree allowed) while staying
/// productive when `A_light` is (ab)used on a heavily loaded instance.
pub(crate) fn throttled_degree(age: u32, degree_cap: u32, ctx: &RoundContext, cap: u32) -> u32 {
    let doubling = 1u32.checked_shl(age).unwrap_or(degree_cap).min(degree_cap);
    let slack = (cap as u64 * ctx.spec.bins() as u64).saturating_sub(ctx.placed);
    let headroom_limit = slack
        .checked_div(ctx.active)
        .map_or(doubling as u64, |h| h.max(1));
    doubling.min(headroom_limit.min(u32::MAX as u64) as u32)
}

impl RoundProtocol for ALight {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "a-light"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        100 + 4 * (64 - spec.bins().leading_zeros())
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        _state: &mut NoBallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        let n = ctx.spec.bins();
        let degree = throttled_degree(ctx.round, self.degree_cap, ctx, self.cap);
        for _ in 0..degree {
            out.push(rng.below(n));
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, arrivals: u32) -> BinGrant {
        BinGrant::all_or_nothing(self.cap, load, arrivals)
    }

    fn load_cap(&self, _spec: &ProblemSpec) -> Option<u32> {
        Some(self.cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn balanced_case_fast_and_tight() {
        let n = 1u32 << 14;
        let spec = ProblemSpec::new(n as u64, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(1))
            .run(ALight::new(spec, 2))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.max_load() <= 3); // cap = 1 + 2
                                      // log* n territory: a handful of rounds, not log n ≈ 14.
        assert!(out.rounds <= 9, "rounds {}", out.rounds);
    }

    #[test]
    fn two_n_balls_complete() {
        let n = 1u32 << 12;
        let spec = ProblemSpec::new(2 * n as u64, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(3))
            .run(ALight::new(spec, 2))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.gap() <= 2);
    }

    #[test]
    fn load_cap_is_never_exceeded() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new(3 * n as u64, n).unwrap();
        let p = ALight::new(spec, 1);
        let cap = p.load_cap(&spec).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(5)).run(p).unwrap();
        assert!(out.max_load() <= cap);
    }

    #[test]
    fn expected_messages_per_ball_are_constant_scale() {
        let n = 1u32 << 14;
        let spec = ProblemSpec::new(n as u64, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(7))
            .run(ALight::new(spec, 2))
            .unwrap();
        let per_ball = out.messages.requests as f64 / spec.balls() as f64;
        // Doubling degrees but super-exponentially collapsing active set:
        // the series stays O(1) per ball.
        assert!(per_ball < 8.0, "per-ball requests {per_ball}");
    }

    #[test]
    fn rounds_shrink_versus_constant_degree_retry() {
        // Same capacity, degree pinned to 1 (no doubling): the
        // coupon-collector tail shows up. Doubling must beat it.
        let n = 1u32 << 12;
        let spec = ProblemSpec::new(n as u64, n).unwrap();
        let doubling = Simulator::new(spec, RunConfig::seeded(9))
            .run(ALight::new(spec, 1))
            .unwrap();
        let fixed = Simulator::new(spec, RunConfig::seeded(9))
            .run(ALight::new(spec, 1).with_degree_cap(1))
            .unwrap();
        assert!(
            doubling.rounds < fixed.rounds,
            "doubling {} vs fixed {}",
            doubling.rounds,
            fixed.rounds
        );
    }
}
