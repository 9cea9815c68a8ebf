//! The [`RoundProtocol`] trait — what a balls-into-bins protocol must
//! provide for the engine to execute it.
//!
//! The trait mirrors the synchronous message-passing model of the papers.
//! Each round the engine:
//!
//! 1. calls [`RoundProtocol::begin_round`] once (adaptive protocols update
//!    their threshold schedule here);
//! 2. calls [`RoundProtocol::ball_choices`] for every *unallocated* ball —
//!    the ball's requests for this round (degree may vary by round and
//!    protocol);
//! 3. calls [`RoundProtocol::bin_grant`] for every bin, passing its current
//!    load and the number of arriving requests — the bin's acceptance
//!    decision, expressed as a [`BinGrant`];
//! 4. resolves acceptances in request order (bins hand out `accept` slots),
//!    lets each ball with ≥ 1 acceptance commit to its first accepting bin
//!    (after applying [`RoundProtocol::redirect`]), and updates loads;
//! 5. calls [`RoundProtocol::after_round`] with the round's
//!    [`RoundRecord`]; the protocol may finish, continue, or abort.
//!
//! ## Expressing the paper families
//!
//! * **Threshold protocols** (heavily loaded paper): degree-1 choices,
//!   `BinGrant::up_to(T_r − load)`.
//! * **Collision protocols** (Stemann): degree-`d` choices,
//!   `BinGrant::all_or_nothing(c, load, arrivals)` — accept everything iff
//!   the bin stays within the collision bound `c`, else reject all.
//! * **Asymmetric superbin protocols**: balls contact only leader bins;
//!   leaders grant `L_r` slots and [`RoundProtocol::redirect`] spreads slot
//!   `j` round-robin over the superbin's member bins.

use crate::model::ProblemSpec;
use crate::rng::SplitMix64;
use crate::trace::RoundRecord;

/// Immutable per-round context handed to every protocol hook.
#[derive(Debug, Clone, Copy)]
pub struct RoundContext {
    /// The problem instance.
    pub spec: ProblemSpec,
    /// Current round (0-based).
    pub round: u32,
    /// Unallocated balls at the beginning of this round.
    pub active: u64,
    /// Balls already placed.
    pub placed: u64,
    /// The run seed (protocols may derive auxiliary streams from it).
    pub seed: u64,
}

/// Per-ball context for [`RoundProtocol::ball_choices`].
#[derive(Debug, Clone, Copy)]
pub struct BallContext {
    /// The ball's id (`0..m`).
    pub ball: u32,
}

/// A bin's acceptance decision for one round.
///
/// `accept` is how many of the arriving requests the bin grants (the engine
/// clamps it to the arrival count); `want` is how many it *wanted* to grant
/// (its threshold headroom), used for the underload statistics of Claims
/// 1–3 — `want` may exceed the arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinGrant {
    /// Requests to accept (clamped to arrivals by the engine).
    pub accept: u32,
    /// Requests the bin had capacity for (unclamped demand).
    pub want: u32,
}

impl BinGrant {
    /// Threshold semantics: accept up to `headroom` requests.
    #[inline]
    pub fn up_to(headroom: u32) -> Self {
        Self {
            accept: headroom,
            want: headroom,
        }
    }

    /// Collision semantics with bound `c`: accept *all* arrivals iff
    /// `load + arrivals ≤ c`, otherwise reject all. `want` is the headroom
    /// `c − load` so underload statistics stay meaningful.
    #[inline]
    pub fn all_or_nothing(c: u32, load: u32, arrivals: u32) -> Self {
        let headroom = c.saturating_sub(load);
        if arrivals <= headroom {
            Self {
                accept: arrivals,
                want: headroom,
            }
        } else {
            Self {
                accept: 0,
                want: headroom,
            }
        }
    }

    /// Reject everything.
    #[inline]
    pub fn reject() -> Self {
        Self { accept: 0, want: 0 }
    }
}

/// Where the run goes after a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flow {
    /// Keep running (the engine stops on its own when no balls remain).
    Continue,
    /// Stop now even if balls remain (e.g. a protocol phase hand-off; the
    /// simulator reports remaining balls to the caller).
    Stop,
    /// Declare failure.
    Abort(String),
}

/// Sink for a ball's bin choices in one round.
///
/// Collects into the engine's flat request buffer and validates bin ids.
pub struct ChoiceSink<'a> {
    buf: &'a mut Vec<u32>,
    n: u32,
    out_of_range: Option<u64>,
}

impl<'a> ChoiceSink<'a> {
    /// Wrap the engine's request buffer for one ball.
    pub(crate) fn new(buf: &'a mut Vec<u32>, n: u32) -> Self {
        Self {
            buf,
            n,
            out_of_range: None,
        }
    }

    /// Contact bin `bin` this round.
    #[inline]
    pub fn push(&mut self, bin: u32) {
        if bin < self.n {
            self.buf.push(bin);
        } else if self.out_of_range.is_none() {
            self.out_of_range = Some(bin as u64);
        }
    }

    /// First out-of-range bin pushed, if any (engine turns this into
    /// [`crate::CoreError::BinOutOfRange`]).
    pub(crate) fn out_of_range(&self) -> Option<u64> {
        self.out_of_range
    }
}

/// Marker for protocols whose balls carry no per-ball state.
pub type NoBallState = ();

/// One acceptance a ball may commit to (input to
/// [`RoundProtocol::pick_commit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitOption {
    /// The accepting bin (before redirect).
    pub bin: u32,
    /// The acceptance slot (arrival rank) at that bin.
    pub slot: u32,
    /// The bin's load at the *beginning* of the round — the "height"
    /// information bins attach to accept messages in GREEDY-style
    /// protocols. The engine reads it from the live loads, which nothing
    /// changes before the round's commit pass. Only populated when
    /// [`RoundProtocol::NEEDS_COMMIT_CHOICE`] is `true`; zero otherwise.
    pub load_before: u32,
}

/// A round-synchronous balls-into-bins protocol.
///
/// `&self` methods are called concurrently by the parallel executor and
/// must be pure w.r.t. protocol state; `&mut self` hooks (`begin_round`,
/// `after_round`) run single-threaded between rounds.
pub trait RoundProtocol: Send + Sync {
    /// Per-ball persistent state (e.g. the fixed `d` choices of a
    /// non-adaptive protocol). Use [`NoBallState`] when stateless.
    type BallState: Default + Clone + Send + Sync;

    /// Set to `true` when the protocol overrides
    /// [`RoundProtocol::pick_commit`] and needs `load_before` populated.
    /// When `false` (default) the engine commits each ball to its first
    /// accepting bin with zero bookkeeping overhead.
    const NEEDS_COMMIT_CHOICE: bool = false;

    /// Set to `true` when the protocol overrides
    /// [`RoundProtocol::redirect`] with something other than the identity
    /// (superbin protocols spread accepted slots over member bins). The
    /// invariant checker ([`crate::sim::RunConfig::with_validation`])
    /// relaxes its per-bin capacity check for such protocols, because a
    /// commit may land on a different bin than the one that granted it.
    const MAY_REDIRECT: bool = false;

    /// Human-readable protocol name (used in tables and traces).
    fn name(&self) -> &'static str;

    /// Safety cap on rounds for this spec. The engine errors with
    /// [`crate::CoreError::RoundBudgetExhausted`] beyond it. Choose a bound
    /// comfortably above the w.h.p. round complexity.
    fn round_budget(&self, spec: &ProblemSpec) -> u32;

    /// Called once at the start of each round, before any ball acts.
    fn begin_round(&mut self, _ctx: &RoundContext) {}

    /// Emit the bins this *unallocated* ball contacts this round.
    ///
    /// `rng` is the ball's private stream for `(seed, round, ball)`;
    /// `state` is the ball's persistent state.
    fn ball_choices(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        state: &mut Self::BallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    );

    /// A bin's acceptance decision given its current `load` and the number
    /// of `arrivals` this round.
    fn bin_grant(&self, ctx: &RoundContext, bin: u32, load: u32, arrivals: u32) -> BinGrant;

    /// Map an accepted slot to the final bin (identity for symmetric
    /// protocols; superbin protocols spread slots over member bins).
    #[inline]
    fn redirect(&self, _ctx: &RoundContext, bin: u32, _slot: u32) -> u32 {
        bin
    }

    /// How many load units (replicas) one committed ball contributes.
    ///
    /// `1` (the default) is the classic unit-ball model. (k,d)-choice
    /// protocols return `k`: each committed ball occupies one slot in `k`
    /// distinct accepting bins, chosen by
    /// [`RoundProtocol::select_commits`]. The engine, the invariant
    /// checker, and [`crate::Allocation::verify`] all account loads in
    /// units of `replicas() × committed balls`. Protocols with
    /// `replicas() > 1` must set [`RoundProtocol::NEEDS_COMMIT_CHOICE`]
    /// (the fast unit-commit path places exactly one replica).
    #[inline]
    fn replicas(&self) -> u32 {
        1
    }

    /// A per-bin load cap that holds for the whole run, if the protocol
    /// has one: `bin_grant` never lets a bin's load pass it, in any
    /// round. With it the engine fails fast: when the bins that crash
    /// faults leave live cannot hold `replicas() × m` load units between
    /// them, the run stops before round 0 with
    /// [`crate::CoreError::Infeasible`] instead of spending its round
    /// budget. `None` (the default) promises no cap.
    fn load_cap(&self, _spec: &ProblemSpec) -> Option<u32> {
        None
    }

    /// Choose which accepting bin the ball commits to, as an index into
    /// `options` (nonempty). Called only when
    /// [`RoundProtocol::NEEDS_COMMIT_CHOICE`] is `true`; the default
    /// engine behaviour is `0` (first acceptance in request order).
    #[inline]
    fn pick_commit(
        &self,
        _ctx: &RoundContext,
        _ball: BallContext,
        _options: &[CommitOption],
    ) -> usize {
        0
    }

    /// Choose the full commit set for a ball, as indices into `options`
    /// (nonempty). Called only when
    /// [`RoundProtocol::NEEDS_COMMIT_CHOICE`] is `true`.
    ///
    /// The default delegates to [`RoundProtocol::pick_commit`] — one
    /// replica, classic behaviour. Protocols may override to:
    ///
    /// * push `k == replicas()` indices on **distinct bins** (k-slot
    ///   requests: the ball commits everywhere at once, its assignment
    ///   records the first pick as the primary bin);
    /// * push *nothing* to **decline** the round entirely — the ball
    ///   stays active and retries (the estimated-average rejection loop).
    ///
    /// Pushing any other number of indices than `0` or `replicas()`
    /// breaks the load-conservation invariant and is caught by the
    /// in-engine checker. Indices must be in-range and on pairwise
    /// distinct bins.
    #[inline]
    fn select_commits(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        options: &[CommitOption],
        picks: &mut Vec<u32>,
    ) {
        picks.push(self.pick_commit(ctx, ball, options).min(options.len() - 1) as u32);
    }

    /// Observe the finished round; decide whether to continue.
    fn after_round(&mut self, _ctx: &RoundContext, _record: &RoundRecord) -> Flow {
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn up_to_grant() {
        let g = BinGrant::up_to(5);
        assert_eq!(g.accept, 5);
        assert_eq!(g.want, 5);
    }

    #[test]
    fn all_or_nothing_accepts_within_bound() {
        let g = BinGrant::all_or_nothing(4, 1, 3); // load 1 + 3 arrivals = 4 ≤ 4
        assert_eq!(g.accept, 3);
        assert_eq!(g.want, 3);
    }

    #[test]
    fn all_or_nothing_rejects_over_bound() {
        let g = BinGrant::all_or_nothing(4, 2, 3); // 2 + 3 > 4
        assert_eq!(g.accept, 0);
        assert_eq!(g.want, 2);
    }

    #[test]
    fn all_or_nothing_full_bin() {
        let g = BinGrant::all_or_nothing(2, 3, 1); // already over
        assert_eq!(g.accept, 0);
        assert_eq!(g.want, 0);
    }

    #[test]
    fn choice_sink_validates_range() {
        let mut buf = Vec::new();
        let mut sink = ChoiceSink::new(&mut buf, 4);
        sink.push(0);
        sink.push(3);
        sink.push(4); // out of range
        sink.push(9); // also out of range; first is reported
        assert_eq!(sink.out_of_range(), Some(4));
        assert_eq!(buf, vec![0, 3]);
    }
}
