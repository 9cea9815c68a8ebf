//! Engine observability: per-round phase timings, run summaries, and pool
//! utilization, delivered through the [`MetricsSink`] trait.
//!
//! The papers' claims (Stemann's collision rounds, the heavily loaded
//! paper's Claims 1–3 underload accounting, Lenzen–Wattenhofer's
//! rounds-vs-messages trade-off) are all *per-round* quantities. The
//! engine already records a [`RoundRecord`] per round; this module adds
//! the *mechanical* side of the measurement: how long each executor phase
//! took, how the thread pool was utilized, and end-of-run throughput —
//! reported live through a sink instead of post-hoc.
//!
//! ## Design
//!
//! * A sink is attached per run via
//!   [`RunConfig::with_metrics`](crate::RunConfig::with_metrics). The
//!   engine aggregates one round's phase clocks locally and delivers them
//!   in a **single** [`MetricsSink::on_round`] call together with the
//!   [`RoundRecord`] and a [`RunMeta`] describing the run — so each call
//!   is self-contained and a sink shared by concurrent runs (e.g. seed
//!   replication) never sees torn per-round state.
//! * **Zero-cost when disabled**: with no sink configured the engine's
//!   round loop performs *no clock reads at all* — the `RoundTimer` is
//!   simply never constructed (verified by the cross-executor determinism
//!   tests and the `None`-sink branch shape in `engine.rs`).
//! * Pool counters ([`PoolStats`]) are snapshotted before and after the
//!   run and the delta is reported through [`MetricsSink::on_pool`]
//!   (parallel executors only).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use pba_par::PoolStats;

use crate::faults::{FaultRecord, FaultStats};
use crate::model::ProblemSpec;
use crate::sim::ExecutorKind;
use crate::trace::RoundRecord;

/// Number of executor phases per round.
pub(crate) const PHASES: usize = 4;

/// The four phases of one synchronous round, shared by both executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Balls draw their bin choices (RNG + protocol `ball_choices`).
    Gather = 0,
    /// The exclusive scan over bin ranges that turns each chunk's
    /// per-bin arrival counts into global arrival-rank bases and totals.
    CountScan = 1,
    /// Bins decide grants (`bin_grant` over all bins).
    Grant = 2,
    /// Acceptance resolution, commits, and round bookkeeping.
    ResolveCommit = 3,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; PHASES] = [
        Phase::Gather,
        Phase::CountScan,
        Phase::Grant,
        Phase::ResolveCommit,
    ];

    /// Stable snake-case name (used for JSONL keys and table headers).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Gather => "gather",
            Phase::CountScan => "count_scan",
            Phase::Grant => "grant",
            Phase::ResolveCommit => "resolve_commit",
        }
    }

    /// Index into a `[u64; PHASES]` timing array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Wall-clock breakdown of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTiming {
    /// Nanoseconds per phase, indexed by [`Phase::index`].
    pub phase_nanos: [u64; PHASES],
    /// Total nanoseconds for the round (≥ the phase sum: it also covers
    /// inter-phase bookkeeping).
    pub total_nanos: u64,
}

impl RoundTiming {
    /// Nanoseconds spent in `phase`.
    #[inline]
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Sum of the per-phase nanoseconds.
    pub fn phase_sum(&self) -> u64 {
        self.phase_nanos.iter().sum()
    }
}

/// Identity of the run a metrics callback belongs to.
///
/// Sinks shared across concurrent runs (seed replication fans out on the
/// pool) key their state on `(seed, protocol)` or simply emit
/// self-contained records carrying these fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// The problem instance.
    pub spec: ProblemSpec,
    /// RNG seed of the run.
    pub seed: u64,
    /// Protocol name.
    pub protocol: &'static str,
    /// Which executor ran the rounds.
    pub executor: ExecutorKind,
    /// Execution lanes available to the run (1 for sequential).
    pub lanes: usize,
}

/// End-of-run totals delivered to [`MetricsSink::on_run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Rounds executed.
    pub rounds: u32,
    /// Balls placed.
    pub placed: u64,
    /// Balls left unallocated (0 unless the protocol stopped early).
    pub unallocated: u64,
    /// Wall-clock nanoseconds for the whole run (round loop inclusive).
    pub wall_nanos: u64,
}

/// Identity of the streaming allocator a batch callback belongs to.
///
/// The streaming analogue of [`RunMeta`]: long-lived `StreamAllocator`
/// sessions (crate `pba-stream`) have no fixed `m`, so their events carry
/// bin count, seed and policy instead of a [`ProblemSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMeta {
    /// Number of bins.
    pub bins: u32,
    /// RNG seed of the session.
    pub seed: u64,
    /// Placement policy name.
    pub policy: &'static str,
}

/// Per-batch totals delivered to [`MetricsSink::on_batch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchRecord {
    /// Zero-based batch sequence number within the session.
    pub batch: u64,
    /// Balls that arrived in this batch.
    pub arrivals: u64,
    /// Balls that departed in this batch.
    pub departures: u64,
    /// Total ball weight placed in this batch (= `arrivals` for unit balls).
    pub arrival_weight: u64,
    /// Balls resident after the batch was applied.
    pub resident: u64,
    /// Maximum bin load after the batch.
    pub max_load: u64,
    /// Gap above `⌈total/bins⌉` after the batch.
    pub gap: u64,
    /// Wall-clock nanoseconds to ingest the batch (0 when no sink was
    /// attached during ingestion — the engine reads no clocks unobserved).
    pub wall_nanos: u64,
    /// Virtual fault domains unavailable during this batch (0 without an
    /// armed [`FaultPlan`](crate::FaultPlan)).
    pub failed_domains: u64,
    /// Arrivals redirected away from failed domains in this batch.
    pub fault_redirects: u64,
}

/// Identity of the replay service session a checkpoint callback belongs
/// to.
///
/// The service facade (`pba-run serve`, crate `pba-stream`'s service
/// module) wraps a `StreamAllocator` in a long-lived ingestion loop; its
/// events carry the allocator identity plus the service-side shape —
/// queue capacity and the target replay rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMeta {
    /// Number of bins.
    pub bins: u32,
    /// RNG seed of the session.
    pub seed: u64,
    /// Placement policy name.
    pub policy: &'static str,
    /// Bounded ingestion-queue capacity (submitters block when full).
    pub queue: usize,
    /// Target replay rate in balls/sec (`0.0` = unthrottled).
    pub rate: f64,
}

/// Per-checkpoint totals delivered to [`MetricsSink::on_service`].
///
/// One record per service checkpoint (every `checkpoint_every` batches,
/// plus a final partial window at drain). Latency quantiles come from the
/// window's log₂ placement-latency histogram: the time from a batch
/// entering the bounded queue to its last placement landing, charged to
/// every ball of the batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Zero-based checkpoint sequence number within the session.
    pub checkpoint: u64,
    /// Batches ingested in this checkpoint window.
    pub batches: u64,
    /// Balls placed in this checkpoint window.
    pub balls: u64,
    /// Balls resident after the window.
    pub resident: u64,
    /// Maximum bin load after the window.
    pub max_load: u64,
    /// Gap above `⌈total/bins⌉` after the window.
    pub gap: u64,
    /// Median per-ball placement latency (nanoseconds).
    pub p50_nanos: u64,
    /// 99th-percentile placement latency (nanoseconds).
    pub p99_nanos: u64,
    /// 99.9th-percentile placement latency (nanoseconds).
    pub p999_nanos: u64,
    /// Worst placement latency observed in the window (nanoseconds).
    pub max_nanos: u64,
    /// Wall-clock nanoseconds the window spanned.
    pub wall_nanos: u64,
    /// Size in bytes of the state snapshot taken at this checkpoint
    /// (0 when no snapshot was requested here).
    pub snapshot_bytes: u64,
}

/// Identity of a cluster run a shard callback belongs to.
///
/// Cluster mode (`pba-run cluster`, crate `pba-cluster`) distributes the
/// bin space over shard processes; its events carry the sharding geometry
/// and the workload kind instead of a [`ProblemSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterMeta {
    /// Number of bins distributed across the shards.
    pub bins: u32,
    /// RNG seed of the run.
    pub seed: u64,
    /// Shard processes the bin space is split across.
    pub shards: u32,
    /// `"engine"` (round-synchronous protocol) or `"stream"` (batches).
    pub mode: &'static str,
    /// Protocol or policy name the cluster executed.
    pub workload: &'static str,
}

/// Per-shard wire totals delivered to [`MetricsSink::on_cluster`] once
/// per shard at the end of a cluster run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterShardRecord {
    /// Zero-based shard index.
    pub shard: u32,
    /// First bin owned by this shard (inclusive).
    pub lo: u32,
    /// One past the last bin owned by this shard.
    pub hi: u32,
    /// Frames the orchestrator sent to this shard.
    pub frames_sent: u64,
    /// Frames the orchestrator received from this shard.
    pub frames_recv: u64,
    /// Bytes sent to this shard (complete binary frames, envelope
    /// included).
    pub bytes_sent: u64,
    /// Bytes received from this shard.
    pub bytes_recv: u64,
    /// Round/batch barriers this shard participated in.
    pub barriers: u64,
    /// Wall-clock nanoseconds the shard was alive, as observed by the
    /// orchestrator (0 when no sink was attached during the run).
    pub wall_nanos: u64,
    /// True when the chaos harness killed this shard's process mid-run.
    pub killed: bool,
}

/// Receiver for engine observability events.
///
/// Implementations must be `Send + Sync`: seed replication attaches one
/// sink to many concurrent runs. Every callback carries the [`RunMeta`]
/// (or [`StreamMeta`] for streaming events), so events from interleaved
/// runs are attributable.
///
/// Only [`on_round`](MetricsSink::on_round) is required; the run-,
/// pool-, and batch-level callbacks default to no-ops.
pub trait MetricsSink: Send + Sync {
    /// One round completed: its record plus the phase wall-clock split.
    fn on_round(&self, meta: &RunMeta, record: &RoundRecord, timing: &RoundTiming);

    /// The run completed (or stopped early).
    fn on_run(&self, meta: &RunMeta, summary: &RunSummary) {
        let _ = (meta, summary);
    }

    /// Pool utilization accumulated by this run (parallel executors only;
    /// the delta of [`pba_par::ThreadPool::stats`] across the run).
    fn on_pool(&self, meta: &RunMeta, stats: &PoolStats) {
        let _ = (meta, stats);
    }

    /// One streaming batch was ingested (streaming allocator only).
    fn on_batch(&self, meta: &StreamMeta, record: &BatchRecord) {
        let _ = (meta, record);
    }

    /// One round injected at least one fault (fault-injected runs only;
    /// delivered immediately before that round's
    /// [`on_round`](MetricsSink::on_round)). Rounds without faults emit
    /// nothing, so the no-fault path stays silent.
    fn on_fault(&self, meta: &RunMeta, record: &FaultRecord) {
        let _ = (meta, record);
    }

    /// One shard process's wire totals, delivered per shard when a
    /// cluster run finishes (cluster mode only).
    fn on_cluster(&self, meta: &ClusterMeta, record: &ClusterShardRecord) {
        let _ = (meta, record);
    }

    /// One service checkpoint closed (replay service only): the window's
    /// batch/ball totals plus per-ball placement-latency quantiles.
    fn on_service(&self, meta: &ServiceMeta, record: &ServiceRecord) {
        let _ = (meta, record);
    }
}

/// Measures one round's phases; constructed **only** when a sink is
/// attached, so the disabled path performs no clock reads.
pub(crate) struct RoundTimer {
    start: Instant,
    last: Instant,
    phase_nanos: [u64; PHASES],
}

impl RoundTimer {
    pub(crate) fn start() -> Self {
        let now = Instant::now();
        Self {
            start: now,
            last: now,
            phase_nanos: [0; PHASES],
        }
    }

    /// Close the current phase: elapsed time since the previous lap (or
    /// construction) is charged to `phase`.
    pub(crate) fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.phase_nanos[phase.index()] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }

    pub(crate) fn finish(self) -> RoundTiming {
        RoundTiming {
            phase_nanos: self.phase_nanos,
            total_nanos: self.start.elapsed().as_nanos() as u64,
        }
    }
}

/// Aggregated view of everything an [`EngineMetrics`] sink saw.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Completed runs.
    pub runs: u64,
    /// Rounds across all runs.
    pub rounds: u64,
    /// Balls placed across all runs.
    pub placed: u64,
    /// Nanoseconds per phase, summed over all rounds of all runs.
    pub phase_nanos: [u64; PHASES],
    /// Total round nanoseconds (phase sum + bookkeeping).
    pub round_nanos: u64,
    /// Total run wall nanoseconds (sums *per-run* wall time; concurrent
    /// runs overlap, so this is CPU-like, not elapsed, time).
    pub run_nanos: u64,
    /// Pool utilization summed over runs, if any parallel run reported.
    pub pool: Option<PoolStats>,
    /// Streaming batches ingested across all sessions.
    pub batches: u64,
    /// Balls arrived across all streaming batches.
    pub batch_arrivals: u64,
    /// Total streaming batch ingestion wall nanoseconds.
    pub batch_nanos: u64,
    /// Shard processes observed across all cluster runs.
    pub cluster_shards: u64,
    /// Wire frames exchanged with shards (both directions summed).
    pub cluster_frames: u64,
    /// Wire bytes exchanged with shards (both directions summed).
    pub cluster_bytes: u64,
    /// Service checkpoints closed across all replay sessions.
    pub service_checkpoints: u64,
    /// Balls placed across all service checkpoint windows.
    pub service_balls: u64,
    /// Rounds that injected at least one fault.
    pub fault_rounds: u64,
    /// Injected-fault totals across all observed rounds (`crashed_bins`
    /// is per-run state and stays 0 here; read it from
    /// [`RunOutcome::faults`](crate::RunOutcome) instead).
    pub faults: FaultStats,
}

impl MetricsReport {
    /// Balls placed per second of engine run time.
    ///
    /// Returns 0.0 before any timed run completes.
    pub fn balls_per_sec(&self) -> f64 {
        per_sec(self.placed, self.run_nanos)
    }

    /// Rounds executed per second of engine run time.
    pub fn rounds_per_sec(&self) -> f64 {
        per_sec(self.rounds, self.run_nanos)
    }

    /// Streaming batches ingested per second of timed batch ingestion.
    pub fn batches_per_sec(&self) -> f64 {
        per_sec(self.batches, self.batch_nanos)
    }

    /// Streaming ball arrivals placed per second of timed batch ingestion.
    pub fn stream_balls_per_sec(&self) -> f64 {
        per_sec(self.batch_arrivals, self.batch_nanos)
    }

    /// Fraction of total phase time spent in `phase` (0.0 when untimed).
    pub fn phase_fraction(&self, phase: Phase) -> f64 {
        let total: u64 = self.phase_nanos.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.phase_nanos[phase.index()] as f64 / total as f64
        }
    }
}

fn per_sec(count: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        count as f64 / (nanos as f64 / 1e9)
    }
}

/// The standard aggregating sink: accumulates rounds, placements, phase
/// time, run time, and pool counters across any number of (possibly
/// concurrent) runs.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use pba_core::metrics::EngineMetrics;
/// use pba_core::{ProblemSpec, RunConfig, Simulator};
/// # use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext, RoundProtocol};
/// # use pba_core::rng::{Rand64, SplitMix64};
/// # struct Retry;
/// # impl RoundProtocol for Retry {
/// #     type BallState = NoBallState;
/// #     fn name(&self) -> &'static str { "retry" }
/// #     fn round_budget(&self, _s: &ProblemSpec) -> u32 { 100_000 }
/// #     fn ball_choices(&self, ctx: &RoundContext, _b: BallContext, _st: &mut NoBallState,
/// #         rng: &mut SplitMix64, out: &mut ChoiceSink<'_>) { out.push(rng.below(ctx.spec.bins())); }
/// #     fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, _arr: u32) -> BinGrant {
/// #         BinGrant::up_to(ctx.spec.ceil_avg().saturating_sub(load)) }
/// # }
///
/// let metrics = Arc::new(EngineMetrics::new());
/// let spec = ProblemSpec::new(10_000, 64).unwrap();
/// let config = RunConfig::seeded(7).with_metrics(metrics.clone());
/// Simulator::new(spec, config).run(Retry).unwrap();
///
/// let report = metrics.report();
/// assert_eq!(report.runs, 1);
/// assert_eq!(report.placed, 10_000);
/// assert!(report.balls_per_sec() > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct EngineMetrics {
    inner: Mutex<MetricsReport>,
}

impl EngineMetrics {
    /// Fresh, empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of everything recorded so far.
    pub fn report(&self) -> MetricsReport {
        self.inner.lock().unwrap().clone()
    }
}

impl MetricsSink for EngineMetrics {
    fn on_round(&self, _meta: &RunMeta, _record: &RoundRecord, timing: &RoundTiming) {
        let mut agg = self.inner.lock().unwrap();
        agg.rounds += 1;
        for (total, &nanos) in agg.phase_nanos.iter_mut().zip(&timing.phase_nanos) {
            *total += nanos;
        }
        agg.round_nanos += timing.total_nanos;
    }

    fn on_run(&self, _meta: &RunMeta, summary: &RunSummary) {
        let mut agg = self.inner.lock().unwrap();
        agg.runs += 1;
        agg.placed += summary.placed;
        agg.run_nanos += summary.wall_nanos;
    }

    fn on_pool(&self, _meta: &RunMeta, stats: &PoolStats) {
        let mut agg = self.inner.lock().unwrap();
        let pool = agg.pool.get_or_insert_with(PoolStats::default);
        pool.jobs += stats.jobs;
        pool.tasks += stats.tasks;
        if pool.busy_nanos.len() < stats.busy_nanos.len() {
            pool.busy_nanos.resize(stats.busy_nanos.len(), 0);
        }
        for (total, &nanos) in pool.busy_nanos.iter_mut().zip(&stats.busy_nanos) {
            *total += nanos;
        }
    }

    fn on_batch(&self, _meta: &StreamMeta, record: &BatchRecord) {
        let mut agg = self.inner.lock().unwrap();
        agg.batches += 1;
        agg.batch_arrivals += record.arrivals;
        agg.batch_nanos += record.wall_nanos;
    }

    fn on_fault(&self, _meta: &RunMeta, record: &FaultRecord) {
        let mut agg = self.inner.lock().unwrap();
        agg.fault_rounds += 1;
        agg.faults.absorb(record);
    }

    fn on_cluster(&self, _meta: &ClusterMeta, record: &ClusterShardRecord) {
        let mut agg = self.inner.lock().unwrap();
        agg.cluster_shards += 1;
        agg.cluster_frames += record.frames_sent + record.frames_recv;
        agg.cluster_bytes += record.bytes_sent + record.bytes_recv;
    }

    fn on_service(&self, _meta: &ServiceMeta, record: &ServiceRecord) {
        let mut agg = self.inner.lock().unwrap();
        agg.service_checkpoints += 1;
        agg.service_balls += record.balls;
    }
}

/// Broadcasts every event to several sinks, in order.
///
/// Lets a caller-supplied sink (say, a JSONL trace writer) and the
/// harness's own [`EngineMetrics`] aggregator observe the same runs.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn MetricsSink>>,
}

impl FanoutSink {
    /// Fan out to `sinks` (empty is allowed and harmless).
    pub fn new(sinks: Vec<Arc<dyn MetricsSink>>) -> Self {
        Self { sinks }
    }
}

impl MetricsSink for FanoutSink {
    fn on_round(&self, meta: &RunMeta, record: &RoundRecord, timing: &RoundTiming) {
        for s in &self.sinks {
            s.on_round(meta, record, timing);
        }
    }

    fn on_run(&self, meta: &RunMeta, summary: &RunSummary) {
        for s in &self.sinks {
            s.on_run(meta, summary);
        }
    }

    fn on_pool(&self, meta: &RunMeta, stats: &PoolStats) {
        for s in &self.sinks {
            s.on_pool(meta, stats);
        }
    }

    fn on_batch(&self, meta: &StreamMeta, record: &BatchRecord) {
        for s in &self.sinks {
            s.on_batch(meta, record);
        }
    }

    fn on_fault(&self, meta: &RunMeta, record: &FaultRecord) {
        for s in &self.sinks {
            s.on_fault(meta, record);
        }
    }

    fn on_cluster(&self, meta: &ClusterMeta, record: &ClusterShardRecord) {
        for s in &self.sinks {
            s.on_cluster(meta, record);
        }
    }

    fn on_service(&self, meta: &ServiceMeta, record: &ServiceRecord) {
        for s in &self.sinks {
            s.on_service(meta, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MessageStats;

    fn meta() -> RunMeta {
        RunMeta {
            spec: ProblemSpec::new(100, 10).unwrap(),
            seed: 1,
            protocol: "test",
            executor: ExecutorKind::Sequential,
            lanes: 1,
        }
    }

    fn record() -> RoundRecord {
        RoundRecord {
            round: 0,
            active_before: 100,
            requests: 100,
            granted: 90,
            committed: 90,
            messages: MessageStats {
                requests: 100,
                responses: 100,
                commits: 90,
            },
            ..Default::default()
        }
    }

    #[test]
    fn round_timer_accumulates_monotonically() {
        let mut t = RoundTimer::start();
        t.lap(Phase::Gather);
        t.lap(Phase::CountScan);
        t.lap(Phase::Grant);
        t.lap(Phase::ResolveCommit);
        let timing = t.finish();
        assert!(timing.total_nanos >= timing.phase_sum());
    }

    #[test]
    fn engine_metrics_aggregates_rounds_and_runs() {
        let m = EngineMetrics::new();
        let timing = RoundTiming {
            phase_nanos: [10, 20, 30, 40],
            total_nanos: 110,
        };
        m.on_round(&meta(), &record(), &timing);
        m.on_round(&meta(), &record(), &timing);
        m.on_run(
            &meta(),
            &RunSummary {
                rounds: 2,
                placed: 180,
                unallocated: 0,
                wall_nanos: 250,
            },
        );
        let r = m.report();
        assert_eq!(r.rounds, 2);
        assert_eq!(r.runs, 1);
        assert_eq!(r.placed, 180);
        assert_eq!(r.phase_nanos, [20, 40, 60, 80]);
        assert_eq!(r.round_nanos, 220);
        assert_eq!(r.run_nanos, 250);
        assert!(r.balls_per_sec() > 0.0);
        let frac: f64 = Phase::ALL.iter().map(|&p| r.phase_fraction(p)).sum();
        assert!((frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pool_stats_merge_resizes_lanes() {
        let m = EngineMetrics::new();
        m.on_pool(
            &meta(),
            &PoolStats {
                jobs: 1,
                tasks: 4,
                busy_nanos: vec![5, 6],
            },
        );
        m.on_pool(
            &meta(),
            &PoolStats {
                jobs: 2,
                tasks: 8,
                busy_nanos: vec![1, 1, 1],
            },
        );
        let pool = m.report().pool.unwrap();
        assert_eq!(pool.jobs, 3);
        assert_eq!(pool.tasks, 12);
        assert_eq!(pool.busy_nanos, vec![6, 7, 1]);
    }

    #[test]
    fn fanout_broadcasts() {
        let a = Arc::new(EngineMetrics::new());
        let b = Arc::new(EngineMetrics::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.on_round(&meta(), &record(), &RoundTiming::default());
        assert_eq!(a.report().rounds, 1);
        assert_eq!(b.report().rounds, 1);
    }

    #[test]
    fn empty_report_rates_are_zero() {
        let r = MetricsReport::default();
        assert_eq!(r.balls_per_sec(), 0.0);
        assert_eq!(r.rounds_per_sec(), 0.0);
        assert_eq!(r.batches_per_sec(), 0.0);
        assert_eq!(r.stream_balls_per_sec(), 0.0);
        assert_eq!(r.phase_fraction(Phase::Gather), 0.0);
    }

    #[test]
    fn engine_metrics_aggregates_batches() {
        let m = EngineMetrics::new();
        let smeta = StreamMeta {
            bins: 64,
            seed: 1,
            policy: "two-choice",
        };
        let record = BatchRecord {
            batch: 0,
            arrivals: 128,
            departures: 10,
            arrival_weight: 128,
            resident: 118,
            max_load: 4,
            gap: 2,
            wall_nanos: 1_000,
            ..BatchRecord::default()
        };
        m.on_batch(&smeta, &record);
        m.on_batch(&smeta, &BatchRecord { batch: 1, ..record });
        let r = m.report();
        assert_eq!(r.batches, 2);
        assert_eq!(r.batch_arrivals, 256);
        assert_eq!(r.batch_nanos, 2_000);
        assert!(r.batches_per_sec() > 0.0);
        assert!(r.stream_balls_per_sec() > 0.0);
    }

    #[test]
    fn engine_metrics_aggregates_fault_rounds() {
        let m = EngineMetrics::new();
        let record = FaultRecord {
            round: 3,
            dropped_requests: 5,
            crash_lost: 1,
            ..FaultRecord::default()
        };
        m.on_fault(&meta(), &record);
        m.on_fault(&meta(), &record);
        let r = m.report();
        assert_eq!(r.fault_rounds, 2);
        assert_eq!(r.faults.dropped_requests, 10);
        assert_eq!(r.faults.crash_lost, 2);
        assert_eq!(r.faults.crashed_bins, 0);
    }

    #[test]
    fn fanout_broadcasts_faults() {
        let a = Arc::new(EngineMetrics::new());
        let b = Arc::new(EngineMetrics::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.on_fault(
            &meta(),
            &FaultRecord {
                straggler_balls: 7,
                ..FaultRecord::default()
            },
        );
        assert_eq!(a.report().faults.straggler_balls, 7);
        assert_eq!(b.report().fault_rounds, 1);
    }

    #[test]
    fn engine_metrics_aggregates_cluster_shards() {
        let m = EngineMetrics::new();
        let cmeta = ClusterMeta {
            bins: 64,
            seed: 7,
            shards: 2,
            mode: "engine",
            workload: "collision",
        };
        let rec = ClusterShardRecord {
            shard: 0,
            lo: 0,
            hi: 32,
            frames_sent: 10,
            frames_recv: 10,
            bytes_sent: 1_000,
            bytes_recv: 500,
            barriers: 5,
            wall_nanos: 99,
            killed: false,
        };
        m.on_cluster(&cmeta, &rec);
        m.on_cluster(&cmeta, &ClusterShardRecord { shard: 1, ..rec });
        let r = m.report();
        assert_eq!(r.cluster_shards, 2);
        assert_eq!(r.cluster_frames, 40);
        assert_eq!(r.cluster_bytes, 3_000);
    }

    #[test]
    fn fanout_broadcasts_cluster_records() {
        let a = Arc::new(EngineMetrics::new());
        let b = Arc::new(EngineMetrics::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let cmeta = ClusterMeta {
            bins: 8,
            seed: 0,
            shards: 1,
            mode: "stream",
            workload: "two-choice",
        };
        fan.on_cluster(&cmeta, &ClusterShardRecord::default());
        assert_eq!(a.report().cluster_shards, 1);
        assert_eq!(b.report().cluster_shards, 1);
    }

    #[test]
    fn engine_metrics_aggregates_service_checkpoints() {
        let m = EngineMetrics::new();
        let smeta = ServiceMeta {
            bins: 64,
            seed: 3,
            policy: "batched-two-choice",
            queue: 4,
            rate: 0.0,
        };
        let rec = ServiceRecord {
            checkpoint: 0,
            batches: 8,
            balls: 512,
            resident: 512,
            max_load: 10,
            gap: 2,
            p50_nanos: 1_000,
            p99_nanos: 2_000,
            p999_nanos: 4_000,
            max_nanos: 5_000,
            wall_nanos: 10_000,
            snapshot_bytes: 0,
        };
        m.on_service(&smeta, &rec);
        m.on_service(
            &smeta,
            &ServiceRecord {
                checkpoint: 1,
                ..rec
            },
        );
        let r = m.report();
        assert_eq!(r.service_checkpoints, 2);
        assert_eq!(r.service_balls, 1024);
    }

    #[test]
    fn fanout_broadcasts_service_records() {
        let a = Arc::new(EngineMetrics::new());
        let b = Arc::new(EngineMetrics::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let smeta = ServiceMeta {
            bins: 8,
            seed: 0,
            policy: "one-choice",
            queue: 1,
            rate: 1e6,
        };
        fan.on_service(&smeta, &ServiceRecord::default());
        assert_eq!(a.report().service_checkpoints, 1);
        assert_eq!(b.report().service_checkpoints, 1);
    }

    #[test]
    fn fanout_broadcasts_batches() {
        let a = Arc::new(EngineMetrics::new());
        let b = Arc::new(EngineMetrics::new());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        let smeta = StreamMeta {
            bins: 8,
            seed: 0,
            policy: "one-choice",
        };
        fan.on_batch(&smeta, &BatchRecord::default());
        assert_eq!(a.report().batches, 1);
        assert_eq!(b.report().batches, 1);
    }
}
