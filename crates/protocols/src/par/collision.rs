//! Stemann's `c`-collision protocol (SPAA 1996) — the primary reproduced
//! system.
//!
//! Each ball fixes `d` uniformly random bins once (non-adaptive) and
//! contacts all of them every round while unallocated. A bin accepts a
//! round's arrivals **all-or-nothing**: everything, iff the resulting load
//! stays within the collision bound `c`; otherwise it rejects the entire
//! round (a "collision"). Balls accepted by at least one bin commit to one
//! and leave.
//!
//! For `m = n`, `d = 2`, `c ≥ 2`, the protocol terminates within
//! `≈ log₂ log₂ n + O(c)` rounds w.h.p. with maximal load ≤ `c` — the
//! double-log round count is what experiment E7 reproduces, along with
//! the `c`-vs-rounds and `d`-vs-rounds trade-offs.
//!
//! Two collision-bound semantics are provided:
//!
//! * [`CollisionSemantics::Cumulative`] (default): accept iff
//!   `load + arrivals ≤ c`. The final load is structurally ≤ `c`.
//! * [`CollisionSemantics::PerRound`]: accept iff `arrivals ≤ c`,
//!   regardless of load (the literal per-round reading); the load bound
//!   then holds only w.h.p. through the collapsing active set.

use crate::choices::FixedChoices;
use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, RoundContext};
use pba_core::rng::SplitMix64;
use pba_core::{ProblemSpec, RoundProtocol};

/// How the collision bound is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollisionSemantics {
    /// Accept a round's arrivals iff `load + arrivals ≤ c`.
    Cumulative,
    /// Accept a round's arrivals iff `arrivals ≤ c` (load ignored).
    PerRound,
}

/// Stemann's non-adaptive `c`-collision protocol with `d` choices.
#[derive(Debug, Clone, Copy)]
pub struct Collision {
    spec: ProblemSpec,
    d: u32,
    c: u32,
    semantics: CollisionSemantics,
}

impl Collision {
    /// The canonical instance: `d = 2`, `c = 2`, cumulative semantics.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_params(spec, 2, 2)
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Custom degree and collision bound (cumulative semantics).
    ///
    /// Total capacity `c·n` must exceed `m`, otherwise completion is
    /// impossible.
    pub fn with_params(spec: ProblemSpec, d: u32, c: u32) -> Self {
        assert!(
            (1..=crate::choices::MAX_DEGREE as u32).contains(&d),
            "d out of range"
        );
        assert!(c >= 1);
        assert!(
            (c as u64) * (spec.bins() as u64) > spec.balls(),
            "total capacity c·n = {} must exceed m = {}",
            (c as u64) * (spec.bins() as u64),
            spec.balls()
        );
        Self {
            spec,
            d,
            c,
            semantics: CollisionSemantics::Cumulative,
        }
    }

    /// Switch the collision-bound semantics.
    pub fn with_semantics(mut self, semantics: CollisionSemantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Number of choices per ball.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The collision bound.
    pub fn c(&self) -> u32 {
        self.c
    }
}

impl RoundProtocol for Collision {
    type BallState = FixedChoices;

    fn name(&self) -> &'static str {
        "collision"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // log log n + O(c) w.h.p.; rare stragglers retry within the cap.
        200 + 8 * (64 - spec.bins().leading_zeros()) + 8 * self.c
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        state: &mut FixedChoices,
        _rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        for &bin in state.ensure(self.d as usize, ctx, ball).iter() {
            out.push(bin);
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, arrivals: u32) -> BinGrant {
        match self.semantics {
            CollisionSemantics::Cumulative => BinGrant::all_or_nothing(self.c, load, arrivals),
            CollisionSemantics::PerRound => {
                if arrivals <= self.c {
                    BinGrant {
                        accept: arrivals,
                        want: self.c,
                    }
                } else {
                    BinGrant {
                        accept: 0,
                        want: self.c,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    fn balanced(n: u32) -> ProblemSpec {
        ProblemSpec::new(n as u64, n).unwrap()
    }

    #[test]
    fn canonical_instance_load_at_most_c() {
        let spec = balanced(1 << 14);
        let out = Simulator::new(spec, RunConfig::seeded(1))
            .run(Collision::new(spec))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.max_load() <= 2, "load {}", out.max_load());
    }

    #[test]
    fn rounds_are_double_log_scale() {
        // n = 2^16: log₂ log₂ n = 4. Expect single-digit rounds, far
        // below log₂ n = 16.
        let spec = balanced(1 << 16);
        let out = Simulator::new(spec, RunConfig::seeded(3))
            .run(Collision::new(spec))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.rounds <= 12, "rounds {}", out.rounds);
    }

    #[test]
    fn rounds_grow_slowly_with_n() {
        let r10 = Simulator::new(balanced(1 << 10), RunConfig::seeded(5))
            .run(Collision::new(balanced(1 << 10)))
            .unwrap()
            .rounds;
        let r18 = Simulator::new(balanced(1 << 18), RunConfig::seeded(5))
            .run(Collision::new(balanced(1 << 18)))
            .unwrap()
            .rounds;
        // 256× more bins; double-log growth means a couple extra rounds.
        assert!(r18 <= r10 + 6, "r10={r10} r18={r18}");
    }

    #[test]
    fn larger_c_fewer_rounds() {
        let spec = balanced(1 << 14);
        let r2 = Simulator::new(spec, RunConfig::seeded(7))
            .run(Collision::with_params(spec, 2, 2))
            .unwrap()
            .rounds;
        let r4 = Simulator::new(spec, RunConfig::seeded(7))
            .run(Collision::with_params(spec, 2, 4))
            .unwrap()
            .rounds;
        assert!(r4 <= r2, "c=2: {r2} rounds, c=4: {r4} rounds");
    }

    #[test]
    fn degree_one_deadlocks_where_degree_two_succeeds() {
        // d = 1 is non-adaptive with a single fixed bin: any bin whose
        // contenders exceed the collision bound rejects the same set
        // forever — the protocol deadlocks w.h.p. (≈1.9% of bins draw ≥ 4
        // contenders at m = n). The power of the second choice is the
        // whole point of [Ste96].
        let spec = balanced(1 << 12);
        let cfg = pba_core::RunConfig {
            max_rounds: Some(50),
            ..RunConfig::seeded(9)
        };
        let r1 = Simulator::new(spec, cfg).run(Collision::with_params(spec, 1, 3));
        assert!(
            matches!(r1, Err(pba_core::CoreError::RoundBudgetExhausted { .. })),
            "expected deadlock, got {r1:?}"
        );
        let r2 = Simulator::new(spec, RunConfig::seeded(9))
            .run(Collision::with_params(spec, 2, 3))
            .unwrap();
        assert!(r2.is_complete());
        assert!(r2.rounds <= 12);
    }

    #[test]
    fn per_round_semantics_completes() {
        let spec = balanced(1 << 12);
        let out = Simulator::new(spec, RunConfig::seeded(11))
            .run(Collision::new(spec).with_semantics(CollisionSemantics::PerRound))
            .unwrap();
        assert!(out.is_complete());
        // w.h.p. the load stays small even without the structural cap.
        assert!(out.max_load() <= 6, "load {}", out.max_load());
    }

    #[test]
    fn nonadaptive_choices_are_stable_across_rounds() {
        // With per-ball fixed choices, messages per round ≤ d·active and
        // every ball's two bins never change — verified indirectly: the
        // run completes with ≤ d·m·rounds messages and the request count
        // per round is exactly d·active.
        let spec = balanced(1 << 10);
        let out = Simulator::new(spec, RunConfig::seeded(13))
            .run(Collision::new(spec))
            .unwrap();
        for rec in out.trace.as_ref().unwrap().records() {
            assert_eq!(rec.requests, 2 * rec.active_before);
        }
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn infeasible_capacity_rejected() {
        let spec = ProblemSpec::new(4000, 1000).unwrap();
        let _ = Collision::with_params(spec, 2, 2); // 2·1000 < 4000
    }
}
