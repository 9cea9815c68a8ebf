//! Per-ball persistent choice state for non-adaptive protocols.
//!
//! Non-adaptive protocols (Stemann's collision protocol, ACMR98 GREEDY)
//! fix each ball's `d` random bins once and communicate only with those
//! bins for the rest of the run. The engine stores one `BallState` per
//! ball; this module keeps that state to the round of the first draw and
//! re-derives the bins from the counter-based ball stream on every use.

use std::ops::Deref;

use pba_core::protocol::{BallContext, RoundContext};
use pba_core::rng::{ball_stream, Rand64};

/// Maximum supported non-adaptive degree.
pub(crate) const MAX_DEGREE: usize = 8;

/// A ball's fixed set of bin choices, stored as the round of its first
/// draw (4 bytes per ball).
///
/// `FixedChoices::ensure` records the round of its first call and draws
/// the bins from the ball's stream for that round,
/// `ball_stream(seed, first, ball)`. The streams are counter-based, so
/// every later call re-derives the same bins, on any executor lane. The
/// first draw is usually round 0, but not always: a ball a fault plan
/// defers (a straggler, a ball in backoff) first draws in a later round,
/// and batched two-choice first draws batch `k` in round `k`. Inside the
/// engine the stream of the first round is exactly the `rng` gather hands
/// the protocol in that round, so the bins are the ones a stored copy
/// drawn from that `rng` would hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedChoices {
    /// Round of the first draw; `u32::MAX` until drawn.
    first: u32,
}

impl Default for FixedChoices {
    fn default() -> Self {
        Self { first: u32::MAX }
    }
}

/// The bins `FixedChoices::ensure` returns, by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bins {
    bins: [u32; MAX_DEGREE],
    len: u8,
}

impl Deref for Bins {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.bins[..self.len as usize]
    }
}

impl FixedChoices {
    /// The ball's `d` bins: drawn uniformly from its stream for the round
    /// of the first call, distinct when `n ≥ d` (retrying duplicates, as
    /// in the standard presentation where a ball's `d` bins are
    /// distinct); for `n < d` duplicates are allowed. The first call
    /// records `ctx.round`; later calls re-derive the same bins.
    pub(crate) fn ensure(&mut self, d: usize, ctx: &RoundContext, ball: BallContext) -> Bins {
        assert!(
            d <= MAX_DEGREE,
            "degree {d} exceeds MAX_DEGREE {MAX_DEGREE}"
        );
        assert!(d >= 1);
        if self.first == u32::MAX {
            self.first = ctx.round;
        }
        let n = ctx.spec.bins();
        let mut rng = ball_stream(ctx.seed, self.first, ball.ball as u64);
        let mut out = Bins {
            bins: [0; MAX_DEGREE],
            len: d as u8,
        };
        let distinct_possible = (n as usize) >= d;
        let mut k = 0;
        let mut guard = 0;
        while k < d {
            let candidate = rng.below(n);
            let duplicate = out.bins[..k].contains(&candidate);
            guard += 1;
            if duplicate && distinct_possible && guard < 1000 {
                continue;
            }
            out.bins[k] = candidate;
            k += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::rng::SplitMix64;
    use pba_core::ProblemSpec;

    fn ctx(n: u32, seed: u64, round: u32) -> RoundContext {
        RoundContext {
            spec: ProblemSpec::new(1 << 10, n).unwrap(),
            round,
            active: 1 << 10,
            placed: 0,
            seed,
        }
    }

    fn ball(ball: u32) -> BallContext {
        BallContext { ball }
    }

    /// The draw of the 36-byte layout that stored its bins: the same
    /// rejection loop, run once on the `rng` of the first round.
    fn stored_draw(d: usize, n: u32, rng: &mut SplitMix64) -> Vec<u32> {
        let mut bins = [0u32; MAX_DEGREE];
        let distinct_possible = (n as usize) >= d;
        let mut k = 0;
        let mut guard = 0;
        while k < d {
            let candidate = rng.below(n);
            let duplicate = bins[..k].contains(&candidate);
            guard += 1;
            if duplicate && distinct_possible && guard < 1000 {
                continue;
            }
            bins[k] = candidate;
            k += 1;
        }
        bins[..d].to_vec()
    }

    #[test]
    fn state_is_four_bytes() {
        assert_eq!(std::mem::size_of::<FixedChoices>(), 4);
    }

    #[test]
    fn draws_match_the_stored_layout() {
        for d in [1usize, 2, 3, 8] {
            for n in [2u32, 16, 1 << 20] {
                for (seed, round) in [(1u64, 0u32), (9, 4)] {
                    for b in 0..64u32 {
                        let mut c = FixedChoices::default();
                        let got = c.ensure(d, &ctx(n, seed, round), ball(b));
                        let mut rng = ball_stream(seed, round, b as u64);
                        assert_eq!(
                            &got[..],
                            &stored_draw(d, n, &mut rng)[..],
                            "d {d}, n {n}, seed {seed}, round {round}, ball {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn later_rounds_return_the_first_draw() {
        let mut c = FixedChoices::default();
        let first = c.ensure(3, &ctx(100, 1, 3), ball(42));
        assert_eq!(c.ensure(3, &ctx(100, 1, 7), ball(42)), first);
        assert_eq!(c.ensure(3, &ctx(100, 1, 3), ball(42)), first);
        // A ball that first draws in round 7 gets round 7's bins.
        let mut late = FixedChoices::default();
        let mut rng = ball_stream(1, 7, 42);
        assert_eq!(
            &late.ensure(3, &ctx(100, 1, 7), ball(42))[..],
            &stored_draw(3, 100, &mut rng)[..]
        );
    }

    #[test]
    fn choices_are_distinct_when_possible() {
        for b in 0..200u32 {
            let mut c = FixedChoices::default();
            let ch = c.ensure(4, &ctx(16, 3, 0), ball(b)).to_vec();
            let mut sorted = ch.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "duplicates in {ch:?}");
            assert!(ch.iter().all(|&b| b < 16));
        }
    }

    #[test]
    fn tiny_n_allows_duplicates() {
        let mut c = FixedChoices::default();
        let ch = c.ensure(4, &ctx(2, 1, 0), ball(0));
        assert_eq!(ch.len(), 4);
        assert!(ch.iter().all(|&b| b < 2));
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_DEGREE")]
    fn oversized_degree_panics() {
        let mut c = FixedChoices::default();
        c.ensure(9, &ctx(100, 1, 0), ball(0));
    }
}
