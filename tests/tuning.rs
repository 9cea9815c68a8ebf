//! The [`ChunkPlan`] contract: the shipped plans are never degenerate,
//! they cut every pass exactly as the per-pass auto plans they replaced
//! did, and the plan is a pure performance knob (bit-identical
//! allocations across plans on every executor).

use pba::par::Chunking;
use pba::prelude::*;

/// The two plans the engine and the stream allocator ship with.
fn shipped() -> [(&'static str, ChunkPlan); 2] {
    [
        ("round", ChunkPlan::default()),
        ("ingest", ChunkPlan::INGEST),
    ]
}

/// The chunks a pool of `lanes` lanes cuts a pass of `work` items into
/// under `plan` (`Backend::chunking`: at most two chunks per lane).
/// Arithmetic only: no pool is started.
fn pool_chunks(work: u64, lanes: usize, plan: ChunkPlan) -> Chunking {
    Chunking::new(work as usize, plan.min_chunk, 2 * lanes.max(1))
}

/// Every shipped plan, and a clamped `(0, 0)` plan, cuts any pass into
/// 1..=2·lanes chunks that tile `0..work` — including the degenerate
/// corners (zero work, zero lanes, lanes ≫ work, huge work).
#[test]
fn auto_plans_are_never_degenerate() {
    let works = [0u64, 1, 7, 1 << 10, 1 << 16, 1 << 24, u64::MAX >> 8];
    let lanes = [0usize, 1, 2, 3, 4, 8, 64, 1024];
    let clamped = ChunkPlan::new(0, 0);
    assert_eq!(clamped.min_chunk, 1, "min_chunk 0 must clamp to 1");
    for &work in &works {
        for &l in &lanes {
            for (label, plan) in shipped().into_iter().chain([("clamped", clamped)]) {
                let c = pool_chunks(work, l, plan);
                if work == 0 {
                    assert_eq!(c.chunks(), 0, "{label} plan, lanes {l}: empty pass");
                    continue;
                }
                assert!(
                    (1..=2 * l.max(1)).contains(&c.chunks()),
                    "{label} plan(work={work}, lanes={l}) cut {} chunks",
                    c.chunks()
                );
                let mut next = 0;
                for r in c.ranges() {
                    assert_eq!(r.start, next, "{label} plan(work={work}, lanes={l}): gap");
                    assert!(
                        r.end > r.start,
                        "{label} plan(work={work}, lanes={l}): empty chunk"
                    );
                    next = r.end;
                }
                assert_eq!(next as u64, work, "{label} plan(work={work}, lanes={l})");
            }
        }
    }
}

/// A copy of the per-pass auto plan the shipped plans replaced, with its
/// tables: two chunks per lane, never below the floor (16 Ki for a round,
/// 1 Ki for an ingest batch), fanning out from 64 Ki and 8 Ki.
fn old_auto(work: u64, lanes: usize, ingest: bool) -> ChunkPlan {
    let (floor, par_cutoff) = if ingest {
        (1024, 8 * 1024)
    } else {
        (16 * 1024, 64 * 1024)
    };
    let lanes = lanes.max(1) as u64;
    let per_chunk = usize::try_from((work / (2 * lanes)).max(1)).unwrap_or(usize::MAX);
    ChunkPlan {
        min_chunk: per_chunk.max(floor),
        par_cutoff,
    }
}

/// The collapse's proof: a pool already caps a pass at two chunks per
/// lane, so raising `min_chunk` to `work / (2·lanes)` never changed the
/// chunk count. Every pass is cut exactly as the old auto plan cut it,
/// with the same fan-out cutoff, for the round and the ingest plan.
#[test]
fn auto_plans_respect_floors_and_cutoffs() {
    let mut works: Vec<u64> = (0..5000).collect();
    for p in 10..=30 {
        works.extend([(1u64 << p) - 1, 1 << p, (1 << p) + 1]);
    }
    for (label, plan) in shipped() {
        for &l in &[1usize, 2, 3, 4, 8, 16, 64] {
            for &work in &works {
                let auto = old_auto(work, l, label == "ingest");
                assert_eq!(auto.par_cutoff, plan.par_cutoff, "{label} cutoff");
                assert_eq!(
                    pool_chunks(work, l, auto),
                    pool_chunks(work, l, plan),
                    "{label} plan(work={work}, lanes={l}) cuts differently"
                );
            }
        }
    }
}

fn run_with(protocol_seed: u64, executor: ExecutorKind, plan: ChunkPlan) -> (Vec<u32>, u32, u32) {
    let spec = ProblemSpec::new(1 << 13, 1 << 13).unwrap();
    let cfg = RunConfig::seeded(protocol_seed)
        .with_executor(executor)
        .with_chunk_plan(plan)
        .with_trace(false);
    let out = Simulator::new(spec, cfg).run(Collision::new(spec)).unwrap();
    let max = out.load_stats().max();
    (out.loads.clone(), out.rounds, max)
}

/// Golden matrix: one collision run, every (executor × plan) cell. A
/// plan only moves work between lanes — loads, round count and max load
/// must be bit-identical across the whole matrix.
#[test]
fn tuning_matrix_is_bit_identical() {
    let executors = [ExecutorKind::Sequential, ExecutorKind::ParallelWith(4)];
    let plans = [
        ChunkPlan::default(),
        ChunkPlan::INGEST,
        ChunkPlan::new(64, 1),
        ChunkPlan::new(1 << 20, 1 << 30),
        ChunkPlan::new(257, 513),
    ];
    let golden = run_with(404, ExecutorKind::Sequential, ChunkPlan::default());
    for &executor in &executors {
        for &plan in &plans {
            let got = run_with(404, executor, plan);
            assert_eq!(
                got, golden,
                "(executor {executor:?}, plan {plan:?}) diverged from golden"
            );
        }
    }
}

/// A small plan forces the pooled path at a size the default plan runs
/// serially, and lands on the same allocation.
#[test]
fn fixed_tuning_runs_match_auto() {
    let spec = ProblemSpec::new(1 << 12, 1 << 10).unwrap();
    let run = |plan: ChunkPlan| {
        let cfg = RunConfig::seeded(9)
            .with_executor(ExecutorKind::ParallelWith(3))
            .with_chunk_plan(plan)
            .with_trace(false);
        Simulator::new(spec, cfg)
            .run(SingleChoice::new(spec))
            .unwrap()
            .loads
    };
    assert_eq!(run(ChunkPlan::new(128, 256)), run(ChunkPlan::default()));
}

/// Streaming ingest: parallel ingestion places every arrival where
/// sequential ingestion does, at a batch below the ingest plan's cutoff
/// (one chunk) and at one above it (fanned out).
#[test]
fn stream_placements_are_tuning_invariant() {
    let run = |batch: u64, parallel: bool| {
        let mut alloc = StreamAllocator::new(512, 77, PolicyKind::BatchedTwoChoice).with_shards(4);
        if parallel {
            alloc = alloc.parallel();
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(batch), 78);
        let mut placements = Vec::new();
        for _ in 0..3 {
            placements.extend(alloc.ingest(&traffic.next_batch()).placements);
        }
        placements
    };
    let cutoff = ChunkPlan::INGEST.par_cutoff as u64;
    for batch in [cutoff / 2, cutoff * 2] {
        assert_eq!(run(batch, false), run(batch, true), "batch {batch}");
    }
}
