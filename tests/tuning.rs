//! The [`Tuning`] API contract: auto plans are never degenerate, and
//! the tuning mode is a pure performance knob (bit-identical
//! allocations across auto / fixed / legacy on every executor).

use pba::core::exec::{
    ChunkPlan, AUTO_INGEST_MIN_CHUNK, AUTO_INGEST_PAR_CUTOFF, AUTO_MIN_CHUNK_FLOOR,
    AUTO_PAR_CUTOFF, DEFAULT_MIN_CHUNK, DEFAULT_PAR_CUTOFF,
};
use pba::prelude::*;

/// Every auto plan must be usable as-is: a positive chunk floor and a
/// positive cutoff, for any (work, lanes) combination including the
/// degenerate corners (zero work, zero lanes, lanes ≫ work, huge work).
#[test]
fn auto_plans_are_never_degenerate() {
    let works = [0u64, 1, 7, 1 << 10, 1 << 16, 1 << 24, u64::MAX >> 8];
    let lanes = [0usize, 1, 2, 3, 4, 8, 64, 1024];
    for &work in &works {
        for &l in &lanes {
            for (label, plan) in [
                ("round", Tuning::Auto.plan(work, l)),
                ("ingest", Tuning::Auto.plan_ingest(work, l)),
            ] {
                assert!(
                    plan.min_chunk >= 1,
                    "{label} plan(work={work}, lanes={l}) has zero min_chunk"
                );
                assert!(
                    plan.par_cutoff >= 1,
                    "{label} plan(work={work}, lanes={l}) has zero par_cutoff"
                );
            }
        }
    }
}

/// The auto tables respect their documented floors and cutoffs: chunks
/// never shrink below the floor (so fan-out overhead stays amortized),
/// and the cutoff is the shipped constant regardless of lane count.
#[test]
fn auto_plans_respect_floors_and_cutoffs() {
    for &l in &[1usize, 2, 4, 8] {
        for &work in &[1u64 << 10, 1 << 16, 1 << 20, 1 << 24] {
            let round = Tuning::Auto.plan(work, l);
            assert!(round.min_chunk >= AUTO_MIN_CHUNK_FLOOR);
            assert_eq!(round.par_cutoff, AUTO_PAR_CUTOFF);
            let ingest = Tuning::Auto.plan_ingest(work, l);
            assert!(ingest.min_chunk >= AUTO_INGEST_MIN_CHUNK);
            assert_eq!(ingest.par_cutoff, AUTO_INGEST_PAR_CUTOFF);
        }
        // Large work splits into roughly 2·lanes chunks, never fewer
        // chunks than one lane could fill at the floor.
        let plan = Tuning::Auto.plan(1 << 24, l);
        let chunks = (1u64 << 24).div_ceil(plan.min_chunk as u64);
        assert!(
            chunks as usize >= l.min(2 * l),
            "work 2^24 across {l} lanes split into only {chunks} chunk(s)"
        );
    }
    // Fixed plans are passed through verbatim.
    let plan = Tuning::fixed(123, 456).plan(1 << 20, 4);
    assert_eq!((plan.min_chunk, plan.par_cutoff), (123, 456));
    // Legacy is the historical default geometry.
    let plan = Tuning::Fixed(ChunkPlan::default()).plan(1 << 20, 4);
    assert_eq!(
        (plan.min_chunk, plan.par_cutoff),
        (DEFAULT_MIN_CHUNK, DEFAULT_PAR_CUTOFF)
    );
}

fn run_with(protocol_seed: u64, executor: ExecutorKind, tuning: Tuning) -> (Vec<u32>, u32, u32) {
    let spec = ProblemSpec::new(1 << 13, 1 << 13).unwrap();
    let cfg = RunConfig::seeded(protocol_seed)
        .with_executor(executor)
        .with_tuning(tuning)
        .with_trace(false);
    let out = Simulator::new(spec, cfg).run(Collision::new(spec)).unwrap();
    let max = out.load_stats().max();
    (out.loads.clone(), out.rounds, max)
}

/// Golden matrix: one collision run, every (executor × tuning) cell.
/// Tuning only moves work between lanes — loads, round count and max
/// load must be bit-identical across the whole matrix.
#[test]
fn tuning_matrix_is_bit_identical() {
    let executors = [ExecutorKind::Sequential, ExecutorKind::ParallelWith(4)];
    let tunings = [
        Tuning::Auto,
        Tuning::Fixed(ChunkPlan::default()),
        Tuning::fixed(64, 1),
        Tuning::fixed(1 << 20, 1 << 30),
        Tuning::Fixed(ChunkPlan {
            min_chunk: 257,
            par_cutoff: 513,
        }),
    ];
    let golden = run_with(404, ExecutorKind::Sequential, Tuning::Auto);
    for &executor in &executors {
        for &tuning in &tunings {
            let got = run_with(404, executor, tuning);
            assert_eq!(
                got, golden,
                "(executor {executor:?}, tuning {tuning:?}) diverged from golden"
            );
        }
    }
}

/// A fixed tuning is honoured verbatim by a real run: the same
/// allocation as any other tuning (pure performance knob), with the
/// pinned geometry surfaced by the plan it resolves.
#[test]
fn fixed_tuning_runs_match_auto() {
    let spec = ProblemSpec::new(1 << 12, 1 << 10).unwrap();
    let run = |cfg: RunConfig| {
        Simulator::new(spec, cfg)
            .run(SingleChoice::new(spec))
            .unwrap()
            .loads
    };
    let fixed = run(RunConfig::seeded(9)
        .with_executor(ExecutorKind::ParallelWith(3))
        .with_tuning(Tuning::fixed(128, 256))
        .with_trace(false));
    let auto = run(RunConfig::seeded(9)
        .with_executor(ExecutorKind::ParallelWith(3))
        .with_tuning(Tuning::Auto)
        .with_trace(false));
    assert_eq!(fixed, auto);
    let plan = Tuning::fixed(128, 256).plan(1 << 12, 3);
    assert_eq!((plan.min_chunk, plan.par_cutoff), (128, 256));
}

/// Streaming ingest: the allocator's tuning mode must not change a
/// single placement, only the fan-out geometry used to compute them.
#[test]
fn stream_placements_are_tuning_invariant() {
    let run = |tuning: Tuning| {
        let mut alloc = StreamAllocator::new(512, 77, PolicyKind::BatchedTwoChoice)
            .with_shards(4)
            .with_tuning(tuning)
            .parallel();
        let mut traffic = Workload::new(WorkloadCfg::uniform(16 * 1024), 78);
        let mut placements = Vec::new();
        for _ in 0..3 {
            placements.extend(alloc.ingest(&traffic.next_batch()).placements);
        }
        placements
    };
    let auto = run(Tuning::Auto);
    let fixed = run(Tuning::fixed(64, 1));
    let legacy = run(Tuning::Fixed(ChunkPlan::default()));
    assert_eq!(auto, fixed);
    assert_eq!(auto, legacy);
}
