//! Non-adaptive `r`-round parallel GREEDY in the threshold formulation of
//! Adler, Chakrabarti, Mitzenmacher & Rasmussen (\[ACMR98\]).
//!
//! Each ball fixes `d` uniform bins and communicates only with them. In
//! round `i < r−1` a bin accepts requests only while its load stays below
//! the round threshold `τ_i` (a rising schedule); in the final round bins
//! accept everything and each ball commits to the accepting bin where it
//! would sit *lowest* (bins attach their height to accept messages — the
//! engine's [`CommitOption::load_before`] + slot).
//!
//! ACMR98 show such symmetric non-adaptive algorithms achieve max load
//! `Θ((log n/log log n)^{1/r})`-flavoured trade-offs in `r` rounds and no
//! better; experiment E9 reproduces the decreasing-load-in-`r` shape.
//!
//! [`CommitOption::load_before`]: pba_core::CommitOption

use crate::choices::FixedChoices;
use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, CommitOption, Flow, RoundContext};
use pba_core::rng::SplitMix64;
use pba_core::trace::RoundRecord;
use pba_core::{ProblemSpec, RoundProtocol};

/// r-round non-adaptive parallel GREEDY with `d` choices.
#[derive(Debug, Clone)]
pub struct AdlerGreedy {
    d: u32,
    rounds: u32,
    thresholds: Vec<u32>,
}

impl AdlerGreedy {
    /// `d` choices, `r ≥ 1` rounds, automatic threshold schedule
    /// `τ_i = base_i + ⌈s^{i+1}⌉` with `s = (ln n/ln ln n)^{1/r}` (the
    /// ACMR98 load scale) and `base_i` the progressive fill `⌈m(i+1)/(nr)⌉`.
    pub fn new(spec: ProblemSpec, d: u32, rounds: u32) -> Self {
        assert!((1..=crate::choices::MAX_DEGREE as u32).contains(&d));
        assert!(rounds >= 1);
        let n = spec.bins() as f64;
        let ln_n = n.max(16.0).ln();
        let s = (ln_n / ln_n.ln()).powf(1.0 / rounds as f64);
        let thresholds = (0..rounds)
            .map(|i| {
                let base = (spec.balls() * (i as u64 + 1))
                    .div_ceil(spec.bins() as u64 * rounds as u64) as u32;
                base + s.powi(i as i32 + 1).ceil() as u32
            })
            .collect();
        Self {
            d,
            rounds,
            thresholds,
        }
    }

    /// Explicit threshold schedule (length = rounds; the last entry is
    /// ignored because the final round accepts everything).
    #[cfg(test)]
    pub(crate) fn with_thresholds(d: u32, thresholds: Vec<u32>) -> Self {
        assert!(!thresholds.is_empty());
        assert!((1..=crate::choices::MAX_DEGREE as u32).contains(&d));
        let rounds = thresholds.len() as u32;
        Self {
            d,
            rounds,
            thresholds,
        }
    }

    fn is_final_round(&self, round: u32) -> bool {
        round + 1 >= self.rounds
    }
}

impl RoundProtocol for AdlerGreedy {
    type BallState = FixedChoices;

    const NEEDS_COMMIT_CHOICE: bool = true;

    fn name(&self) -> &'static str {
        "adler-greedy"
    }

    fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
        self.rounds + 1
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

    fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, arrivals: u32) -> BinGrant {
        if self.is_final_round(ctx.round) {
            // GREEDY commit round: accept everything; balls pick the
            // lowest landing height themselves.
            BinGrant {
                accept: arrivals,
                want: arrivals,
            }
        } else {
            let tau = self.thresholds[ctx.round as usize];
            BinGrant::up_to(tau.saturating_sub(load))
        }
    }

    fn pick_commit(
        &self,
        _ctx: &RoundContext,
        _ball: BallContext,
        options: &[CommitOption],
    ) -> usize {
        // Land as low as possible: height = load at round start + number
        // of accepted requests ahead of us at that bin.
        options
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.load_before + o.slot)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    fn after_round(&mut self, ctx: &RoundContext, _record: &RoundRecord) -> Flow {
        if self.is_final_round(ctx.round) {
            Flow::Stop // all balls committed (final round accepts all)
        } else {
            Flow::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{LoadStats, RunConfig, Simulator};

    fn balanced(n: u32) -> ProblemSpec {
        ProblemSpec::new(n as u64, n).unwrap()
    }

    fn gap_for(r: u32, seed: u64) -> u32 {
        let spec = balanced(1 << 14);
        let out = Simulator::new(spec, RunConfig::seeded(seed))
            .run(AdlerGreedy::new(spec, 2, r))
            .unwrap();
        assert!(
            out.is_complete(),
            "r={r} left {} unallocated",
            out.unallocated
        );
        // The run may finish early when the threshold rounds already place
        // everyone; it never exceeds r.
        assert!(out.rounds <= r, "r={r} but ran {} rounds", out.rounds);
        LoadStats::from_loads(&out.loads).gap()
    }

    #[test]
    fn completes_within_r_rounds() {
        for r in [1, 2, 3, 5] {
            let _ = gap_for(r, 1);
        }
    }

    #[test]
    fn one_round_is_greedy_parallel_baseline() {
        // r = 1: pure parallel GREEDY — everything lands at once, load is
        // the max over bins of (stale-info d-choice pileup), well above
        // the multi-round result but far below single-choice.
        let spec = balanced(1 << 14);
        let g1 = gap_for(1, 3);
        let single = Simulator::new(spec, RunConfig::seeded(3))
            .run(crate::SingleChoice::new(spec))
            .unwrap()
            .gap();
        assert!(
            g1 <= single,
            "1-round greedy {g1} vs single choice {single}"
        );
    }

    #[test]
    fn more_rounds_lower_load() {
        let g1 = gap_for(1, 5);
        let g3 = gap_for(3, 5);
        let g5 = gap_for(5, 5);
        assert!(g3 <= g1, "g1={g1} g3={g3}");
        assert!(g5 <= g3 + 1, "g3={g3} g5={g5}");
    }

    #[test]
    fn explicit_thresholds_respected_in_nonfinal_rounds() {
        let spec = balanced(1 << 12);
        let p = AdlerGreedy::with_thresholds(2, vec![1, 2, 1000]);
        let out = Simulator::new(spec, RunConfig::seeded(7)).run(p).unwrap();
        let recs = out.trace.as_ref().unwrap().records();
        // After round 0 no bin exceeds τ_0 = 1; after round 1, τ_1 = 2.
        assert!(recs[0].max_load <= 1);
        assert!(recs[1].max_load <= 2);
    }

    #[test]
    fn heavy_case_supported() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) * 16, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(9))
            .run(AdlerGreedy::new(spec, 2, 4))
            .unwrap();
        assert!(out.is_complete());
        // Progressive-fill bases keep the gap moderate even at m/n = 16.
        assert!(out.gap() <= 16, "gap {}", out.gap());
    }
}
