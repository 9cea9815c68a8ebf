//! # `pba-core` — model, RNG, engine, and statistics
//!
//! This crate is the substrate every protocol in the workspace runs on. It
//! implements the synchronous message-passing model of the parallel
//! balls-into-bins papers:
//!
//! 1. balls perform local computation and send allocation requests to bins;
//! 2. bins receive the requests, decide how many to accept, and respond;
//! 3. balls receive responses and may commit to a bin (and terminate).
//!
//! A protocol implements [`RoundProtocol`] (which bins a ball contacts, how
//! many requests a bin grants, optional redirects and adaptive state); the
//! [`Simulator`] executes it round by round, with either a bit-for-bit
//! deterministic sequential executor or a parallel executor built on
//! [`pba_par`]. Message counts (ball→bin requests, bin→ball responses,
//! commit notifications) are accounted exactly as the papers count them.
//!
//! ## Layout
//!
//! * [`model`] — problem specification (`m` balls, `n` bins).
//! * [`rng`] — deterministic splittable randomness (SplitMix64,
//!   Xoshiro256++, counter-based per-(seed, round, ball) streams).
//! * [`protocol`] — the [`RoundProtocol`] trait and its vocabulary types.
//! * [`engine`] — request gathering, per-bin counting, acceptance
//!   resolution, commits; one backend-parameterized round kernel.
//! * [`exec`] — the execution substrate behind the engine: [`Backend`]
//!   (serial vs. pool), chunk plans, per-lane scratch arenas,
//!   and the fault-admission layer.
//! * [`sim`] — the user-facing [`Simulator`] / [`RunConfig`] /
//!   [`RunOutcome`] API.
//! * [`metrics`] — the observability layer: [`MetricsSink`], per-round
//!   phase timings, run summaries, pool utilization.
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]): message
//!   drops with capped-backoff retries, crashed bins, straggler lanes,
//!   and streaming shard-domain failures.
//! * [`binstate`] — the [`BinState`] load-accounting trait shared by the
//!   one-shot engine and the streaming allocator (`pba-stream`).
//! * [`json`] — the zero-dependency JSON emitter + parser behind the
//!   runner's JSONL traces and `verify --json`.
//! * [`wire`] — the hand-rolled binary wire toolkit (little-endian
//!   primitives, LEB128 varints, FNV-1a-checksummed frames) shared by
//!   snapshots, the cluster shard protocol, and the socket ingest path.
//! * [`load`], [`messages`], [`allocation`], [`trace`] — statistics and
//!   run records.
//! * `validate` — the in-engine invariant checker armed by
//!   [`RunConfig::with_validation`][sim::RunConfig::with_validation]:
//!   ball conservation, bin-capacity respect, monotone commitment, and
//!   fault-redirect legality, checked every round.
//! * [`mathutil`] — `log* n`, iterated logarithms, and friends.

pub mod allocation;
pub mod binstate;
pub mod delegate;
pub mod engine;
pub mod error;
pub mod exec;
pub mod faults;
pub mod json;
pub mod load;
pub mod mathutil;
pub mod messages;
pub mod metrics;
pub mod model;
pub mod protocol;
pub mod rng;
pub mod sim;
pub mod trace;
pub(crate) mod validate;
pub mod wire;

pub use allocation::Allocation;
pub use binstate::BinState;
pub use delegate::GrantDelegate;
pub use error::{CoreError, Result};
pub use exec::{Backend, ChunkPlan};
pub use faults::{FaultPlan, FaultRecord, FaultStats, StragglerSpec};
pub use load::LoadStats;
pub use messages::{MessageStats, MessageTracking};
pub use metrics::{
    BatchRecord, ClusterMeta, ClusterShardRecord, EngineMetrics, FanoutSink, MetricsReport,
    MetricsSink, Phase, RoundTiming, RunMeta, RunSummary, ServiceMeta, ServiceRecord, StreamMeta,
};
pub use model::ProblemSpec;
pub use protocol::{
    BallContext, BinGrant, ChoiceSink, CommitOption, Flow, NoBallState, RoundContext, RoundProtocol,
};
pub use rng::{ball_stream, RoundStreams, SplitMix64, Xoshiro256pp};
pub use sim::{ExecutorKind, RunConfig, RunOutcome, Simulator};
pub use trace::{RoundRecord, RunTrace};
pub use wire::{WireError, WireReader, WireWriter};
