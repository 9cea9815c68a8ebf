//! Integration: [`StreamAllocator`] placements are a pure function of
//! `(seed, policy, workload)` — lane count and sequential-vs-parallel
//! ingestion change only throughput, never a single placement, and the
//! cluster's shard worker processes reproduce the in-process loads at
//! every worker count.

use pba::cluster::ClusterConfig;
use pba::prelude::*;
use pba::stream::Batch;

/// Batches big enough to cross the allocator's parallel dispatch cutoff,
/// so the parallel variant genuinely exercises the pool path.
const BINS: u32 = 256;
const BATCH: u64 = 16 * 1024;
const BATCHES: u64 = 3;
const SEED: u64 = 42;

fn workload_cfg() -> WorkloadCfg {
    WorkloadCfg::uniform(BATCH).with_churn(0.25)
}

/// Placements and final loads of an in-process run. The workload draws
/// off the unsalted run seed, as the cluster's mirror does, so
/// [`cluster_loads`] compares against these loads.
fn ingest_all(policy: PolicyKind, parallel: bool) -> (Vec<u32>, Vec<u64>) {
    let mut alloc = StreamAllocator::new(BINS, SEED, policy);
    if parallel {
        alloc = alloc.parallel();
    }
    let mut traffic = Workload::new(workload_cfg(), SEED);
    let mut placements = Vec::new();
    for _ in 0..BATCHES {
        placements.extend(alloc.ingest(&traffic.next_batch()).placements);
    }
    (placements, alloc.bin_state().load_vector())
}

/// Final loads of the same run with its bins split over `shards` worker
/// processes (threads over local socket pairs; the wire protocol is the
/// one child processes speak).
fn cluster_loads(policy: PolicyKind, shards: u32) -> Vec<u64> {
    ClusterConfig::stream(policy, BINS, SEED, BATCHES, BATCH)
        .with_workload(workload_cfg())
        .with_shards(shards)
        .run_local()
        .unwrap()
        .loads
}

#[test]
fn snapshot_policies_place_identically_across_shards_and_lanes() {
    for policy in [
        PolicyKind::OneChoice,
        PolicyKind::BatchedTwoChoice,
        PolicyKind::Threshold,
    ] {
        let (baseline, base_loads) = ingest_all(policy, false);
        assert_eq!(baseline.len(), (BATCH * BATCHES) as usize);
        let (got, loads) = ingest_all(policy, true);
        assert_eq!(
            got,
            baseline,
            "{}: parallel placements diverged",
            policy.name()
        );
        assert_eq!(loads, base_loads, "{}: loads diverged", policy.name());
        for shards in [2u32, 8] {
            assert_eq!(
                cluster_loads(policy, shards),
                base_loads,
                "{}: loads diverged at {shards} shards",
                policy.name()
            );
        }
    }
}

#[test]
fn live_load_two_choice_is_shard_invariant() {
    // TwoChoice reads live loads and always ingests sequentially, even
    // with parallel ingestion on; its loads must still be independent of
    // how many workers hold the bins.
    let (baseline, base_loads) = ingest_all(PolicyKind::TwoChoice, false);
    let (got, _) = ingest_all(PolicyKind::TwoChoice, true);
    assert_eq!(got, baseline, "two-choice diverged with parallel ingestion");
    for shards in [1u32, 2, 8] {
        assert_eq!(
            cluster_loads(PolicyKind::TwoChoice, shards),
            base_loads,
            "two-choice diverged at shards={shards}"
        );
    }
}

#[test]
fn replayed_session_is_deterministic_end_to_end() {
    // Same seed, same workload, fresh allocator: byte-identical outcome
    // records (the contract the experiments' replications rely on).
    let run = || {
        let mut alloc = StreamAllocator::new(64, 5, PolicyKind::BatchedTwoChoice);
        let mut traffic = Workload::new(WorkloadCfg::uniform(512).with_churn(1.0), 5);
        (0..4)
            .map(|_| alloc.ingest(&traffic.next_batch()).record)
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn process_count_axis_preserves_final_loads() {
    // The cluster orchestrator distributes the same allocator over shard
    // workers behind real message passing; the process count is one more
    // axis that must not move a single load. The mirror drives its
    // workload off the run seed (unsalted), so the reference is built the
    // same way.
    let cfg = WorkloadCfg::uniform(2048).with_churn(0.25);
    let mut reference = StreamAllocator::new(BINS, 42, PolicyKind::BatchedTwoChoice);
    let mut traffic = Workload::new(cfg, 42);
    for _ in 0..BATCHES {
        reference.ingest(&traffic.next_batch());
    }
    let want = reference.bin_state().load_vector();
    for shards in [1u32, 2, 4] {
        let out = ClusterConfig::stream(PolicyKind::BatchedTwoChoice, BINS, 42, BATCHES, 1)
            .with_workload(cfg)
            .with_shards(shards)
            .run_local()
            .unwrap();
        assert_eq!(
            out.loads, want,
            "loads diverged at {shards} worker processes"
        );
    }
}

#[test]
fn explicit_batches_match_workload_generated_ones() {
    // Hand-built batches go through the same ingestion path as workload
    // output; ids are opaque to placement.
    let mut a = StreamAllocator::new(32, 1, PolicyKind::BatchedTwoChoice);
    let mut b = StreamAllocator::new(32, 1, PolicyKind::BatchedTwoChoice);
    let out_a = a.ingest(&Batch::unit_arrivals(0, 100));
    let out_b = b.ingest(&Batch::unit_arrivals(5_000, 100));
    assert_eq!(out_a.placements, out_b.placements);
}
