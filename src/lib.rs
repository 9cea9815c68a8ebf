//! # `pba` — Parallel Balanced Allocations
//!
//! A reproduction of the parallel balls-into-bins literature around
//! *“Parallel Balanced Allocations”* (Stemann, SPAA 1996) and its
//! heavily-loaded successor (*“Parallel Balanced Allocations: The Heavily
//! Loaded Case”*): round-synchronous collision protocols, rising-threshold
//! protocols for `m ≫ n`, asymmetric superbin protocols, sequential
//! multiple-choice baselines, a deterministic simulation engine with message
//! accounting, a from-scratch parallel substrate, a numerics toolkit, and an
//! experiment harness that regenerates every reproduced result.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names.
//!
//! ## Quickstart
//!
//! ```
//! use pba::prelude::*;
//!
//! // 1M balls into 1024 bins with the heavily-loaded threshold protocol.
//! let spec = ProblemSpec::new(1 << 20, 1 << 10).unwrap();
//! let protocol = ThresholdHeavy::new(spec);
//! let outcome = Simulator::new(spec, RunConfig::seeded(42))
//!     .run(protocol)
//!     .unwrap();
//!
//! let stats = outcome.load_stats();
//! assert_eq!(stats.total(), 1 << 20);
//! // Max load is m/n + O(1): far below the naive √((m/n)·ln n) excess.
//! assert!(stats.gap() <= 8, "gap {} too large", stats.gap());
//! ```

pub use pba_analysis as analysis;
pub use pba_cluster as cluster;
pub use pba_conformance as conformance;
pub use pba_core as core;
pub use pba_par as par;
pub use pba_protocols as protocols;
pub use pba_runner as runner;
pub use pba_stream as stream;

/// Commonly used items, re-exported for `use pba::prelude::*`.
pub mod prelude {
    pub use pba_core::{
        Allocation, ChunkPlan, EngineMetrics, ExecutorKind, FanoutSink, FaultPlan, FaultRecord,
        FaultStats, LoadStats, MessageStats, MetricsReport, MetricsSink, Phase, ProblemSpec,
        RoundProtocol, RunConfig, RunOutcome, Simulator, StragglerSpec,
    };
    pub use pba_protocols::{
        ALight, AdlerGreedy, Asymmetric, BatchedTwoChoice, Collision, EstimatedAverage,
        FixedThreshold, GreedyD, KdChoice, ParallelTwoChoice, SingleChoice, StemannHeavy,
        ThresholdHeavy, TrivialRoundRobin,
    };
    pub use pba_stream::{
        replay, Batch, LatencyHistogram, PolicyKind, ReplayService, ServiceConfig, ServiceReport,
        StreamAllocator, WeightDist, Workload, WorkloadCfg, WorkloadKind,
    };
}
