//! # `pba-protocols` — balls-into-bins allocation protocols
//!
//! Every protocol from the two "Parallel Balanced Allocations" papers and
//! the baselines they compare against, implemented on the `pba-core`
//! engine:
//!
//! ## Parallel, symmetric
//!
//! * [`Collision`] — Stemann's `c`-collision protocol with `d` random
//!   choices (SPAA 1996): the primary reproduced system. Bins accept a
//!   round's arrivals iff they fit under the collision bound; terminates
//!   in `≈ log log n` rounds for `m = n`, `d = 2`, `c ≥ 2`.
//! * [`StemannHeavy`] — collision-style protocol for `m ≫ n` with load
//!   `O(m/n)` (the regime Stemann's paper covers per the successor
//!   paper's footnote 2).
//! * [`ThresholdHeavy`] — the heavily loaded threshold algorithm
//!   `A_heavy` (Theorem 1): rising thresholds
//!   `T_i = m/n − (m̃_i/n)^{2/3}`, then a light finishing phase.
//! * [`ALight`] — LW16-style adaptive symmetric finisher: active balls
//!   double their request degree each round; bins accept all-or-nothing
//!   under a constant bound. Used as `A_heavy`'s phase 2 and standalone.
//! * [`AdlerGreedy`] — non-adaptive `r`-round parallel GREEDY in the
//!   ACMR98 threshold formulation (fixed `d` choices, per-round
//!   thresholds, commit to the least-loaded accepting bin).
//! * [`FixedThreshold`] — the naive fixed-capacity retry protocol from
//!   the papers' introduction (`Ω(log n)` rounds; also the object of the
//!   Theorem 2 lower bound).
//! * [`SingleChoice`] — one round of uniform placement, no rejection.
//! * [`KdChoice`] — Park's (k,d)-choice generalization
//!   (arXiv:1201.3310): each ball samples `d` bins and commits `k`
//!   replicas to the `k` least loaded, for a max load of
//!   `k·m/n + ln ln n / ln(d/k) + O(1)` w.h.p. The first k-slot-request
//!   protocol on the engine (`replicas() = k`).
//! * [`EstimatedAverage`] — probe–estimate–retry loop
//!   (arXiv:1111.0801): balls reject placements above the sample-mean
//!   load estimate and retry; a hard `⌈m/n⌉` bin cap makes completed
//!   runs perfectly balanced, with expected-constant retries per ball.
//!
//! ## Parallel, asymmetric
//!
//! * [`Asymmetric`] — the superbin protocol of Theorem 3: `O(1)` rounds,
//!   load `m/n + O(1)`, per-bin message bound `(1+o(1))m/n + O(log n)`.
//! * [`TrivialRoundRobin`] — the deterministic `n`-round sweep (balls try
//!   bins one by one), the fallback for `n < log log(m/n)`.
//!
//! ## Semi-parallel / sequential baselines
//!
//! * [`BatchedTwoChoice`] — batched multiple-choice (\[BCE+12\]).
//! * [`seq::GreedyD`] — sequential `d`-choice GREEDY (\[ABKU99\]; heavily
//!   loaded analysis \[BCSV06\]).
//! * [`seq::OnePlusBeta`] — the `(1+β)`-choice process.

pub mod choices;
pub mod par;
pub mod registry;
pub mod schedule;
pub mod seq;

pub use par::a_light::ALight;
pub use par::adler_greedy::AdlerGreedy;
pub use par::asymmetric::Asymmetric;
pub use par::batched::BatchedTwoChoice;
pub use par::collision::Collision;
pub use par::estimated_average::EstimatedAverage;
pub use par::fixed_threshold::FixedThreshold;
pub use par::kd_choice::KdChoice;
pub use par::parallel_two_choice::ParallelTwoChoice;
pub use par::single_choice::SingleChoice;
pub use par::stemann_heavy::StemannHeavy;
pub use par::threshold_heavy::ThresholdHeavy;
pub use par::trivial::TrivialRoundRobin;
pub use registry::{protocol_names, run_by_name, visit_protocol, ProtocolVisitor};
pub use schedule::UndershootSchedule;
pub use seq::{GreedyD, OnePlusBeta};
