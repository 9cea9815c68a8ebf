//! Service-level harness: the replay facade must be a *transparent* wrapper
//! around [`StreamAllocator`] — same placements as direct ingestion, no ball
//! dropped or reordered under backpressure, every in-flight batch flushed at
//! drain — and a snapshot taken mid-replay must restore into a session that
//! finishes bit-identically to the uninterrupted run.

use pba::prelude::*;

const BINS: u32 = 64;
const BATCH: u64 = 256;
const SEED: u64 = 0x5EE7;

fn workload() -> Workload {
    Workload::new(WorkloadCfg::uniform(BATCH).with_churn(0.4), SEED)
}

/// Final state we compare across interrupted and uninterrupted runs.
#[derive(Debug, PartialEq)]
struct FinalState {
    loads: Vec<u64>,
    resident: u64,
    snapshot: Vec<u8>,
    placements: Vec<Vec<u32>>,
}

/// Replay `total` batches; when `interrupt_at` is set, snapshot after that
/// batch, throw the live session away, restore from the bytes, and replay
/// the remainder in a *fresh* service session.
fn replay_with_interruption(
    policy: PolicyKind,
    parallel: bool,
    total: u64,
    interrupt_at: Option<u64>,
) -> FinalState {
    let fresh = |restored: Option<StreamAllocator>| {
        let mut alloc = match restored {
            Some(a) => a,
            None => StreamAllocator::new(BINS, SEED, policy),
        };
        if parallel {
            alloc = alloc.parallel();
        }
        alloc
    };
    let mut traffic = workload();
    let mut placements = Vec::new();

    let (alloc, tail_batches) = match interrupt_at {
        None => (fresh(None), total),
        Some(k) => {
            let cfg = ServiceConfig::default()
                .with_checkpoint_every(2)
                .with_snapshot_at(k)
                .with_placements();
            let (_, report) = replay(fresh(None), &mut traffic, k, cfg);
            placements.extend(report.placements);
            let (at, bytes) = report.snapshot.expect("snapshot taken");
            assert_eq!(at, k);
            // The live session is gone; only the bytes cross over. The
            // workload generator is fast-forwarded implicitly: `traffic`
            // already consumed the first `k` batches.
            let restored = StreamAllocator::restore(&bytes).expect("snapshot restores");
            assert_eq!(restored.batches(), k);
            (fresh(Some(restored)), total - k)
        }
    };

    let cfg = ServiceConfig::default()
        .with_checkpoint_every(2)
        .with_placements();
    let (alloc, report) = replay(alloc, &mut traffic, tail_batches, cfg);
    placements.extend(report.placements);
    FinalState {
        loads: alloc.bin_state().load_vector(),
        resident: alloc.resident(),
        snapshot: alloc.snapshot(),
        placements,
    }
}

#[test]
fn interrupted_replay_finishes_bit_identically_across_shards_and_lanes() {
    for policy in [PolicyKind::BatchedTwoChoice, PolicyKind::Threshold] {
        for parallel in [false, true] {
            let uninterrupted = replay_with_interruption(policy, parallel, 8, None);
            for checkpoint in [1, 4, 7] {
                let resumed = replay_with_interruption(policy, parallel, 8, Some(checkpoint));
                // `snapshot` equality covers loads, the full resident-ball
                // set (canonical bytes), and policy state in one shot; the
                // explicit fields make failures readable.
                assert_eq!(
                    uninterrupted, resumed,
                    "{policy:?} parallel={parallel} resume@{checkpoint}"
                );
            }
        }
    }
}

#[test]
fn faulted_interrupted_replay_matches_uninterrupted_run() {
    // The plan carries engine-only components (stragglers) alongside the
    // domain failures streaming honours; re-arming it after restore must
    // reproduce the exact redirect sequence.
    let plan = FaultPlan::new(0xFA57)
        .with_stragglers(4, 0.5)
        .with_shard_failures(4, 0.5);
    let run = |interrupt_at: Option<u64>| {
        let mut traffic = workload();
        let mut alloc =
            StreamAllocator::new(BINS, SEED, PolicyKind::BatchedTwoChoice).with_faults(plan);
        let mut placements = Vec::new();
        let mut redirects = 0u64;
        let mut degraded = 0u64;
        let (head, tail) = match interrupt_at {
            Some(k) => (k, 8 - k),
            None => (8, 0),
        };
        let cfg = ServiceConfig::default().with_placements();
        let (mid, report) = replay(alloc, &mut traffic, head, cfg);
        placements.extend(report.placements);
        redirects += report.fault_redirects;
        degraded += report.degraded_batches;
        alloc = mid;
        if interrupt_at.is_some() {
            alloc = StreamAllocator::restore(&alloc.snapshot())
                .expect("restores")
                .with_faults(plan);
            let (done, report) = replay(alloc, &mut traffic, tail, cfg);
            placements.extend(report.placements);
            redirects += report.fault_redirects;
            degraded += report.degraded_batches;
            alloc = done;
        }
        (placements, redirects, degraded, alloc.snapshot())
    };
    let baseline = run(None);
    assert!(baseline.1 > 0, "plan must actually redirect placements");
    for checkpoint in [2, 5] {
        assert_eq!(baseline, run(Some(checkpoint)), "resume at {checkpoint}");
    }
}

#[test]
fn backpressure_never_drops_or_reorders() {
    // A single-slot queue saturates immediately: every submit after the
    // first blocks until the worker finishes the previous batch. The
    // service must still deliver every ball, in order, with placements
    // bit-identical to direct ingestion.
    let direct = {
        let mut alloc = StreamAllocator::new(BINS, SEED, PolicyKind::BatchedTwoChoice);
        let mut traffic = workload();
        (0..16)
            .map(|_| alloc.ingest(&traffic.next_batch()).placements)
            .collect::<Vec<_>>()
    };
    for queue in [1usize, 2, 16] {
        let alloc = StreamAllocator::new(BINS, SEED, PolicyKind::BatchedTwoChoice);
        let mut traffic = workload();
        let cfg = ServiceConfig::default()
            .with_queue_capacity(queue)
            .with_placements();
        let (_, report) = replay(alloc, &mut traffic, 16, cfg);
        assert_eq!(report.batches, 16, "queue {queue}");
        assert_eq!(report.placements, direct, "queue {queue}");
    }
}

#[test]
fn drain_flushes_every_in_flight_batch_under_faults() {
    // Fill the queue beyond its capacity, then drain immediately: the
    // worker must flush everything that was submitted — including batches
    // still waiting in the queue — with the fault plan live.
    let plan = FaultPlan::new(0xD1A1).with_shard_failures(4, 0.6);
    let alloc = StreamAllocator::new(BINS, SEED, PolicyKind::OneChoice).with_faults(plan);
    let service = ReplayService::start(
        alloc,
        ServiceConfig::default()
            .with_queue_capacity(2)
            .with_checkpoint_every(64),
    );
    let mut traffic = workload();
    let mut submitted_balls = 0u64;
    for _ in 0..12 {
        let batch = traffic.next_batch();
        submitted_balls += batch.arrivals.len() as u64;
        service.submit(batch);
    }
    let (alloc, report) = service.drain();
    assert_eq!(report.batches, 12);
    assert_eq!(report.balls, submitted_balls);
    assert!(report.degraded_batches > 0, "0.6 × 12 batches must fire");
    // One partial checkpoint window covers the whole session.
    assert_eq!(report.checkpoints.len(), 1);
    assert_eq!(report.checkpoints[0].batches, 12);
    assert_eq!(report.total.count(), submitted_balls);
    assert_eq!(alloc.batches(), 12);
}

#[test]
fn service_checkpoints_flow_to_the_metrics_sink() {
    use std::sync::Arc;
    let sink = Arc::new(EngineMetrics::new());
    let alloc =
        StreamAllocator::new(BINS, SEED, PolicyKind::BatchedTwoChoice).with_metrics(sink.clone());
    let mut traffic = workload();
    let cfg = ServiceConfig::default().with_checkpoint_every(3);
    let (_, report) = replay(alloc, &mut traffic, 9, cfg);
    assert_eq!(report.checkpoints.len(), 3);
    let r = sink.report();
    assert_eq!(r.service_checkpoints, 3);
    assert_eq!(r.service_balls, report.balls);
}
