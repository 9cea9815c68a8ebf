//! Integration: deterministic chaos. Fault injection must be a pure
//! function of `(seed, FaultPlan)` — identical plans give bit-identical
//! allocations AND bit-identical fault-event streams across executors,
//! lane counts, and shard counts — and the no-fault path must stay
//! pristine (zero fault events, no clock reads added to the round loop).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pba::core::metrics::{RoundTiming, RunMeta};
use pba::core::RoundRecord;
use pba::prelude::*;

/// A plan exercising every engine-side fault class at once.
fn rich_plan() -> FaultPlan {
    FaultPlan::new(0xC4A05)
        .with_drop_prob(0.15)
        .with_crashed_bins(0.05)
        .with_stragglers(8, 0.2)
}

/// Records the fault-event stream verbatim.
#[derive(Default)]
struct FaultRecorder {
    events: Mutex<Vec<FaultRecord>>,
}

impl MetricsSink for FaultRecorder {
    fn on_round(&self, _meta: &RunMeta, _record: &RoundRecord, _timing: &RoundTiming) {}

    fn on_fault(&self, _meta: &RunMeta, record: &FaultRecord) {
        self.events.lock().unwrap().push(*record);
    }
}

fn faulted_run(
    name: &str,
    executor: ExecutorKind,
    plan: FaultPlan,
) -> (RunOutcome, Vec<FaultRecord>) {
    // Large enough that the parallel executor genuinely fans out instead
    // of falling back to the sequential path (PAR_CUTOFF), and m = n so
    // the protocols' capacity slack can absorb a 5% crashed-bin loss
    // (collision's bound c·n > m is tight in the heavily loaded regime).
    let spec = ProblemSpec::new(1 << 17, 1 << 17).unwrap();
    faulted_run_at(name, executor, plan, spec, None)
}

fn faulted_run_at(
    name: &str,
    executor: ExecutorKind,
    plan: FaultPlan,
    spec: ProblemSpec,
    chunk_plan: Option<ChunkPlan>,
) -> (RunOutcome, Vec<FaultRecord>) {
    let rec = Arc::new(FaultRecorder::default());
    // Validation armed: every chaos run doubles as an invariant audit
    // (conservation, capacity, fault legality) at zero cost to the
    // assertions below — outcomes are bit-identical either way.
    let mut cfg = RunConfig::seeded(23)
        .with_executor(executor)
        .with_faults(plan)
        .with_validation(true)
        .with_metrics(rec.clone());
    if let Some(p) = chunk_plan {
        cfg = cfg.with_chunk_plan(p);
    }
    let out = pba::protocols::run_by_name(name, spec, cfg)
        .expect("known protocol")
        .expect("run ok");
    let events = rec.events.lock().unwrap().clone();
    (out, events)
}

/// The tentpole determinism claim: identical `(seed, FaultPlan)` gives
/// identical loads, rounds, fault totals, and fault-event streams on the
/// sequential executor, the default parallel executor, and a pinned
/// 2-lane and 8-lane parallel executor.
#[test]
fn chaos_is_bit_identical_across_executors_and_lanes() {
    for name in ["collision", "parallel-two-choice"] {
        let (seq, seq_events) = faulted_run(name, ExecutorKind::Sequential, rich_plan());
        assert!(
            !seq_events.is_empty(),
            "{name}: a 15% drop plan must inject something"
        );
        for lanes in [
            ExecutorKind::Parallel,
            ExecutorKind::ParallelWith(2),
            ExecutorKind::ParallelWith(8),
        ] {
            let (par, par_events) = faulted_run(name, lanes, rich_plan());
            assert_eq!(seq.loads, par.loads, "{name} {lanes:?}: loads diverge");
            assert_eq!(seq.rounds, par.rounds, "{name} {lanes:?}: rounds diverge");
            assert_eq!(
                seq.faults, par.faults,
                "{name} {lanes:?}: fault totals diverge"
            );
            assert_eq!(
                seq_events, par_events,
                "{name} {lanes:?}: fault-event streams diverge"
            );
        }
    }
}

/// The new protocol families ride the same chaos contract. `kd-choice`
/// takes the full rich plan — its one-window capacity slack absorbs the
/// 5% crashed-bin loss at m = n, k = 2. `estimated-average` caps every
/// bin at exactly ⌈m/n⌉ with zero slack, so crashing bins makes the
/// instance structurally infeasible; its plan keeps the drop and
/// straggler axes only. Both must place everyone, stay bit-identical
/// across executors and lane counts, and pass the armed validator
/// (which now audits k-slot conservation for the replicated family).
///
/// The estimated-average leg runs at n = 2^14 with lowered chunk
/// geometry (so the pool still genuinely fans out): its zero-slack
/// endgame is a coupon-collector on the last below-cap bin, and at
/// n = 2^17 the probe-degree ceiling would make that tail crawl under
/// a 15% drop plan.
#[test]
fn new_families_chaos_is_bit_identical_and_validated() {
    let drop_straggler_plan = FaultPlan::new(0xEA05)
        .with_drop_prob(0.15)
        .with_stragglers(8, 0.2);
    let big = ProblemSpec::new(1 << 17, 1 << 17).unwrap();
    let mid = ProblemSpec::new(1 << 14, 1 << 14).unwrap();
    for (name, plan, spec, chunk_plan) in [
        ("kd-choice", rich_plan(), big, None),
        (
            "estimated-average",
            drop_straggler_plan,
            mid,
            Some(ChunkPlan::new(1024, 2048)),
        ),
    ] {
        let (seq, seq_events) =
            faulted_run_at(name, ExecutorKind::Sequential, plan, spec, chunk_plan);
        assert!(
            !seq_events.is_empty(),
            "{name}: a 15% drop plan must inject something"
        );
        assert_eq!(seq.unallocated, 0, "{name}: chaos must not strand balls");
        for lanes in [
            ExecutorKind::Parallel,
            ExecutorKind::ParallelWith(2),
            ExecutorKind::ParallelWith(8),
        ] {
            let (par, par_events) = faulted_run_at(name, lanes, plan, spec, chunk_plan);
            assert_eq!(seq.loads, par.loads, "{name} {lanes:?}: loads diverge");
            assert_eq!(seq.rounds, par.rounds, "{name} {lanes:?}: rounds diverge");
            assert_eq!(
                seq.faults, par.faults,
                "{name} {lanes:?}: fault totals diverge"
            );
            assert_eq!(
                seq_events, par_events,
                "{name} {lanes:?}: fault-event streams diverge"
            );
        }
    }
}

/// Re-running the identical configuration replays the identical chaos.
#[test]
fn chaos_replays_exactly() {
    let (a, ea) = faulted_run("collision", ExecutorKind::Sequential, rich_plan());
    let (b, eb) = faulted_run("collision", ExecutorKind::Sequential, rich_plan());
    assert_eq!(a.loads, b.loads);
    assert_eq!(a.faults, b.faults);
    assert_eq!(ea, eb);
}

/// Different fault seeds under the same run seed give different chaos —
/// the plan seed is a real axis, not decoration.
#[test]
fn fault_seed_is_an_independent_axis() {
    let plan_b = FaultPlan::new(0xB0B)
        .with_drop_prob(0.15)
        .with_crashed_bins(0.05);
    let plan_a = FaultPlan::new(0xA0A)
        .with_drop_prob(0.15)
        .with_crashed_bins(0.05);
    let (a, _) = faulted_run("collision", ExecutorKind::Sequential, plan_a);
    let (b, _) = faulted_run("collision", ExecutorKind::Sequential, plan_b);
    assert_ne!(a.loads, b.loads, "fault seed ignored");
}

/// Crashed bins accept nothing: with m/n ≈ 8, every live bin ends loaded
/// w.h.p., so the zero-load bins are exactly the crashed ones.
#[test]
fn crashed_bins_stay_empty_and_everything_still_places() {
    let spec = ProblemSpec::new(1 << 11, 1 << 8).unwrap();
    let plan = FaultPlan::new(99).with_crashed_bins(0.05);
    let out = Simulator::new(
        spec,
        RunConfig::seeded(5).with_faults(plan).with_validation(true),
    )
    .run(ParallelTwoChoice::new(spec, 2))
    .unwrap();
    assert_eq!(out.unallocated, 0, "crashes must not strand balls");
    let stats = out.faults.expect("fault-injected run reports stats");
    assert!(stats.crashed_bins > 0, "5% of 256 bins must crash");
    let empty = out.loads.iter().filter(|&&l| l == 0).count();
    assert_eq!(
        empty as u32, stats.crashed_bins,
        "zero-load bins must be exactly the crashed set"
    );
}

/// Streaming chaos: per-batch domain failures give identical placements
/// for sequential vs parallel ingestion, the same loads over 2 and 8
/// cluster shard workers, and every redirected arrival really avoids the
/// failed domains.
#[test]
fn stream_chaos_is_identical_across_shards_and_ingestion_modes() {
    let plan = FaultPlan::new(0x51AB).with_shard_failures(8, 0.3);
    let n = 256u32;
    let seed = 77u64;
    // 16384 arrivals per batch exceeds the allocator's parallel cutoff,
    // so the parallel run genuinely fans out. The workload draws off the
    // unsalted run seed, as the cluster's mirror does.
    let batch = 16_384u64;
    let run = |parallel: bool| {
        let mut alloc =
            StreamAllocator::new(n, seed, PolicyKind::BatchedTwoChoice).with_faults(plan);
        if parallel {
            alloc = alloc.parallel();
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(batch), seed);
        let mut placements = Vec::new();
        let mut redirects = 0u64;
        for _ in 0..3 {
            let out = alloc.ingest(&traffic.next_batch());
            redirects += out.record.fault_redirects;
            placements.extend(out.placements);
        }
        (placements, redirects, alloc.bin_state().load_vector())
    };
    let (base, base_redirects, base_loads) = run(false);
    assert!(
        base_redirects > 0,
        "a 30% plan over 3 batches must redirect"
    );
    let (got, redirects, _) = run(true);
    assert_eq!(base, got, "parallel ingestion: placements diverge");
    assert_eq!(base_redirects, redirects, "redirect counts diverge");
    for shards in [2u32, 8] {
        let out =
            pba::cluster::ClusterConfig::stream(PolicyKind::BatchedTwoChoice, n, seed, 3, batch)
                .with_faults(plan)
                .with_shards(shards)
                .run_local()
                .unwrap();
        assert_eq!(out.loads, base_loads, "shards={shards}: loads diverge");
    }
    // Every placement of a degraded batch avoids the failed domains.
    for t in 0..3u64 {
        let mask = plan.failed_domains(t);
        if mask == 0 {
            continue;
        }
        let slice = &base[(t * batch) as usize..((t + 1) * batch) as usize];
        for &bin in slice {
            assert_eq!(
                (mask >> plan.domain_of(bin, n)) & 1,
                0,
                "batch {t} bin {bin}"
            );
        }
    }
}

/// The no-fault path is pristine: zero fault events reach the sink, the
/// outcome carries no fault stats, and the fault module performs no clock
/// reads at all (the round loop gains no timing syscalls — fault
/// decisions are pure counter streams, which is what makes the
/// determinism tests above possible).
#[test]
fn no_fault_path_emits_nothing_and_reads_no_clocks() {
    struct Counter(AtomicU64);
    impl MetricsSink for Counter {
        fn on_round(&self, _meta: &RunMeta, _record: &RoundRecord, _timing: &RoundTiming) {}

        fn on_fault(&self, _meta: &RunMeta, _record: &FaultRecord) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
    let spec = ProblemSpec::new(1 << 14, 1 << 7).unwrap();
    let sink = Arc::new(Counter(AtomicU64::new(0)));
    let out = Simulator::new(spec, RunConfig::seeded(3).with_metrics(sink.clone()))
        .run(ParallelTwoChoice::new(spec, 2))
        .unwrap();
    assert_eq!(
        sink.0.load(Ordering::Relaxed),
        0,
        "no plan, no fault events"
    );
    assert!(out.faults.is_none(), "no plan, no fault stats");

    // Structural half of the claim: the entire fault module is free of
    // clock reads, so arming (or not arming) a plan cannot change the
    // number of per-round timing syscalls.
    let src = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src/faults.rs"),
    )
    .expect("faults.rs readable");
    for forbidden in ["Instant", "SystemTime", "elapsed("] {
        assert!(
            !src.contains(forbidden),
            "faults.rs must not read clocks (found `{forbidden}`)"
        );
    }
}

/// A drop-heavy plan exercises the retry/backoff machinery: totals show
/// drops, deferrals, and at least one backoff escalation, and the stream
/// of per-round records sums to the run totals.
#[test]
fn backoff_machinery_engages_under_heavy_loss() {
    let plan = FaultPlan::new(4).with_drop_prob(0.6).with_max_backoff(4);
    let (out, events) = faulted_run("parallel-two-choice", ExecutorKind::Sequential, plan);
    let stats = out.faults.unwrap();
    assert!(stats.dropped_requests > 0);
    assert!(
        stats.backoff_escalations > 0,
        "60% loss must escalate someone"
    );
    assert!(
        stats.deferred_balls > 0,
        "escalated balls must sit out rounds"
    );
    assert_eq!(out.unallocated, 0, "retries must eventually place everyone");
    let summed: u64 = events.iter().map(|e| e.dropped_requests).sum();
    assert_eq!(
        summed, stats.dropped_requests,
        "per-round records must sum to totals"
    );
    // Event streams are ordered by round and only emitted for faulty rounds.
    for w in events.windows(2) {
        assert!(w[0].round < w[1].round);
    }
    assert!(events.iter().all(|e| !e.is_empty_like()));
}

/// Helper mirror of `FaultRecord::is_empty` (not public API): a record
/// delivered to the sink must contain at least one nonzero counter.
trait EmptyLike {
    fn is_empty_like(&self) -> bool;
}

impl EmptyLike for FaultRecord {
    fn is_empty_like(&self) -> bool {
        self.dropped_requests == 0
            && self.crash_redraws == 0
            && self.crash_lost == 0
            && self.straggler_balls == 0
            && self.deferred_balls == 0
            && self.backoff_escalations == 0
    }
}
