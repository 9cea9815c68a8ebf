//! Seeded differential fuzzer: random `(protocol, m, n, executor,
//! chunking, fault-spec, shard-count)` configurations, sequential vs
//! pooled execution, bit-identity of the full outcome plus the in-engine
//! invariant checker armed on both sides.
//!
//! No external fuzzing deps: the generator extends the hand-rolled
//! seeded harness of `tests/properties.rs`. Every case is derived from a
//! single `u64`, so a failure prints that seed plus a deterministically
//! *shrunk* repro (smaller m/n, faults dropped, fewer lanes) that still
//! fails; paste the seed into `shrunk_repro_seed_replays` to replay it.
//!
//! A fixed-seed corpus replays in CI (`scripts/check.sh`); the
//! exploration test walks fresh derived cases beyond the corpus.

use pba::cluster::ClusterConfig;
use pba::core::rng::{Rand64, SplitMix64};
use pba::prelude::*;

/// Protocol parameters beyond the registry defaults: the new-family
/// axes. `Registry` replays the named default; the others construct the
/// protocol directly so the fuzzer sweeps the whole parameter grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Params {
    /// Registry-default construction via `run_by_name`.
    Registry,
    /// `KdChoice::with_params(spec, k, d)` — the (k,d) grid axis.
    Kd(u32, u32),
    /// `EstimatedAverage::with_params(spec, probes, retry_cap)`.
    Ea(u32, u32),
}

/// One sampled differential configuration. Everything needed to replay
/// is in this struct, and all of it derives from one seed.
#[derive(Debug, Clone)]
struct FuzzCase {
    protocol: &'static str,
    m: u64,
    n: u32,
    seed: u64,
    lanes: usize,
    min_chunk: usize,
    par_cutoff: usize,
    faults: Option<FaultPlan>,
    params: Params,
}

impl FuzzCase {
    /// Derive a full configuration from a single case seed.
    fn sample(case_seed: u64) -> Self {
        let mut rng = SplitMix64::new(case_seed ^ 0x00F0_22E5_D1FF);
        let names = pba::protocols::protocol_names();
        let protocol = names[rng.below(names.len() as u32) as usize];
        let n = 1 + rng.below(255);
        let m = 1 + rng.next_u64() % 8192;
        let lanes = 2 + rng.below(3) as usize;
        let min_chunk = [32usize, 128, 1024][rng.below(3) as usize];
        // Small cutoffs force genuine fan-out at fuzz sizes (the engine
        // default of 64 Ki would silently serialize every round).
        let par_cutoff = [1usize, 64, 256][rng.below(3) as usize];
        let faults = if rng.below(2) == 1 {
            let mut plan = FaultPlan::new(rng.next_u64());
            if rng.below(2) == 1 {
                plan = plan.with_drop_prob(rng.below(20) as f64 / 100.0);
            }
            if rng.below(2) == 1 {
                plan = plan.with_crashed_bins(rng.below(10) as f64 / 100.0);
            }
            if rng.below(2) == 1 {
                plan = plan.with_stragglers(2 + rng.below(7), rng.below(30) as f64 / 100.0);
            }
            if rng.below(2) == 1 {
                plan = plan.with_shard_failures(2 + rng.below(7), rng.below(30) as f64 / 100.0);
            }
            Some(plan)
        } else {
            None
        };
        let seed = rng.next_u64();
        // Parameter axes for the k-slot / retry families, drawn *after*
        // every legacy field so pre-existing corpus seeds still derive
        // the exact same cases. Half the draws keep registry defaults so
        // the name-based path stays covered too.
        let params = match protocol {
            "kd-choice" | "kd-choice-36" if rng.below(2) == 1 => {
                let (k, d) =
                    [(1, 2), (2, 3), (2, 4), (2, 6), (3, 6), (4, 8)][rng.below(6) as usize];
                Params::Kd(k, d)
            }
            "estimated-average" if rng.below(2) == 1 => {
                let probes = 1 + rng.below(4);
                let retry_cap = [2u32, 4, 8, 16, 32][rng.below(5) as usize];
                Params::Ea(probes, retry_cap)
            }
            _ => Params::Registry,
        };
        FuzzCase {
            protocol,
            m,
            n,
            seed,
            lanes,
            min_chunk,
            par_cutoff,
            faults,
            params,
        }
    }

    fn config(&self, executor: ExecutorKind) -> RunConfig {
        let mut cfg = RunConfig::seeded(self.seed)
            .with_executor(executor)
            .with_assignment(true)
            .with_validation(true)
            .with_chunk_plan(ChunkPlan::new(self.min_chunk, self.par_cutoff));
        if let Some(plan) = self.faults {
            cfg = cfg.with_faults(plan);
        }
        cfg
    }

    fn run(&self, executor: ExecutorKind) -> Result<RunOutcome, String> {
        let spec = ProblemSpec::new(self.m, self.n).expect("sampled sizes are positive");
        let cfg = self.config(executor);
        match self.params {
            Params::Registry => pba::protocols::run_by_name(self.protocol, spec, cfg)
                .expect("registry name")
                .map_err(|e| e.to_string()),
            Params::Kd(k, d) => Simulator::new(spec, cfg)
                .run(pba::protocols::KdChoice::with_params(spec, k, d))
                .map_err(|e| e.to_string()),
            Params::Ea(probes, retry_cap) => Simulator::new(spec, cfg)
                .run(pba::protocols::EstimatedAverage::with_params(
                    spec, probes, retry_cap,
                ))
                .map_err(|e| e.to_string()),
        }
    }

    /// The same case with registry-default parameters — for axes (like
    /// the cluster wire protocol) that only dispatch by name.
    fn with_registry_params(mut self) -> Self {
        self.params = Params::Registry;
        self
    }
}

/// Run `case` both ways and describe the first divergence, if any.
/// Sequential and pooled execution must agree on *everything* — the
/// whole outcome on success, the exact error on failure. A run-budget
/// error is a legal protocol outcome (small collision instances
/// livelock), and so is an infeasible run (crash faults leave a
/// load-capped protocol too few live bins), but any *other* error — in
/// particular an invariant violation from the in-engine validator —
/// fails the case even when both executors agree on it.
fn divergence(case: &FuzzCase) -> Option<String> {
    let seq = case.run(ExecutorKind::Sequential);
    let par = case.run(ExecutorKind::ParallelWith(case.lanes));
    match (&seq, &par) {
        (Ok(s), Ok(p)) => {
            if s.loads != p.loads {
                return Some("load vectors diverge".into());
            }
            if s.assignment != p.assignment {
                return Some("assignments diverge".into());
            }
            if s.rounds != p.rounds {
                return Some(format!("rounds diverge: {} vs {}", s.rounds, p.rounds));
            }
            if s.messages != p.messages {
                return Some("message totals diverge".into());
            }
            if s.placed != p.placed || s.unallocated != p.unallocated {
                return Some("placement totals diverge".into());
            }
            None
        }
        (Err(se), Err(pe)) => {
            if se != pe {
                return Some(format!("errors diverge: '{se}' vs '{pe}'"));
            }
            if se.contains("invariant") {
                return Some(format!("invariant violation: {se}"));
            }
            if !se.contains("round budget exhausted") && !se.starts_with("infeasible run: ") {
                return Some(format!("unexpected engine error: {se}"));
            }
            None
        }
        (Ok(_), Err(e)) => Some(format!("parallel failed, sequential ok: {e}")),
        (Err(e), Ok(_)) => Some(format!("sequential failed, parallel ok: {e}")),
    }
}

/// Deterministic shrinker: repeatedly try the reduction candidates in a
/// fixed order, keeping a candidate only when it *still* fails, until no
/// candidate makes progress. Purely mechanical, so the minimized repro
/// is reproducible from the original seed alone.
fn shrink(mut case: FuzzCase) -> FuzzCase {
    loop {
        let mut progressed = false;
        let mut candidates: Vec<FuzzCase> = Vec::new();
        if case.m > 1 {
            let mut c = case.clone();
            c.m /= 2;
            candidates.push(c);
        }
        if case.n > 1 {
            let mut c = case.clone();
            c.n /= 2;
            candidates.push(c);
        }
        if case.faults.is_some() {
            let mut c = case.clone();
            c.faults = None;
            candidates.push(c);
        }
        if case.lanes > 2 {
            let mut c = case.clone();
            c.lanes = 2;
            candidates.push(c);
        }
        if case.min_chunk > 32 {
            let mut c = case.clone();
            c.min_chunk = 32;
            candidates.push(c);
        }
        for candidate in candidates {
            if divergence(&candidate).is_some() {
                case = candidate;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return case;
        }
    }
}

/// Check one case seed end to end; on failure, shrink and panic with the
/// minimized repro.
fn check_seed(case_seed: u64) {
    let case = FuzzCase::sample(case_seed);
    if let Some(why) = divergence(&case) {
        let small = shrink(case);
        let small_why = divergence(&small).unwrap_or_else(|| why.clone());
        panic!(
            "differential failure for case seed {case_seed:#x}: {why}\n\
             minimized repro: {small:?}\n\
             minimized failure: {small_why}"
        );
    }
}

/// The fixed-seed corpus replayed by `scripts/check.sh`. Grown over
/// time: when the explorer finds a failure, its case seed is fixed here
/// after the fix so the regression stays covered forever.
const CORPUS: [u64; 36] = [
    0x0001,
    0x0002,
    0x0003,
    0x0004,
    0x0005,
    0x0006,
    0x0007,
    0x0008, //
    0x0009,
    0x000a,
    0x000b,
    0x000c,
    0x000d,
    0x000e,
    0x000f,
    0x0010, //
    0x1111,
    0x2222,
    0x3333,
    0x4444,
    0x5555,
    0x6666,
    0x7777,
    0x8888, //
    0x9999,
    0xaaaa,
    0xbbbb,
    0xcccc,
    0xdddd,
    0xeeee,
    0xffff,
    0xabcd, //
    0xdead_beef,
    0xcafe_f00d,
    0x1234_5678,
    0x0f1e_2d3c,
];

/// Replay the fixed corpus (fast; part of the tier-1 gate).
#[test]
fn corpus_replays_clean() {
    for &seed in &CORPUS {
        check_seed(seed);
    }
}

/// Explore fresh cases beyond the corpus, derived from a fixed master
/// seed so CI is still deterministic.
#[test]
fn explorer_finds_no_divergence() {
    let mut master = SplitMix64::new(0x00D1_FFF0_77ED);
    for _ in 0..48 {
        check_seed(master.next_u64());
    }
}

/// Deterministic sweep of the new-family parameter axes: every (k,d)
/// grid point and every retry cap runs the full differential check
/// (Serial vs Pool, validation armed), with and without a fault plan —
/// coverage that does not depend on the name sampler's luck.
#[test]
fn new_family_axes_are_bit_identical() {
    let mut master = SplitMix64::new(0x00AD_0CE2_4C25);
    let kd_grid = [(1u32, 2u32), (2, 3), (2, 4), (2, 6), (3, 6), (4, 8)];
    let retry_caps = [2u32, 4, 8, 16, 32];
    let mut cases: Vec<(&'static str, Params)> = Vec::new();
    for &(k, d) in &kd_grid {
        cases.push(("kd-choice", Params::Kd(k, d)));
    }
    for &cap in &retry_caps {
        cases.push(("estimated-average", Params::Ea(1 + cap % 4, cap)));
    }
    for (idx, &(protocol, params)) in cases.iter().enumerate() {
        for faulted in [false, true] {
            let case = FuzzCase {
                protocol,
                m: 64 + master.next_u64() % 4096,
                n: 1 + master.below(255),
                seed: master.next_u64(),
                lanes: 2 + master.below(3) as usize,
                min_chunk: 32,
                par_cutoff: 1,
                // Drop/straggler plans only: both families run bins at
                // (or near) exact capacity, so crashed bins make small
                // instances infeasible rather than interesting.
                faults: faulted.then(|| {
                    FaultPlan::new(master.next_u64())
                        .with_drop_prob(master.below(20) as f64 / 100.0)
                        .with_stragglers(2 + master.below(7), master.below(30) as f64 / 100.0)
                }),
                params,
            };
            if let Some(why) = divergence(&case) {
                panic!("axis case {idx} (faulted={faulted}) {case:?}: {why}");
            }
        }
    }
}

/// The shrinker's reductions preserve replayability: a shrunk case's
/// fields still produce a deterministic run (both executors agree run
/// over run), so a printed repro can be pasted into a unit test.
#[test]
fn shrunk_repro_seed_replays() {
    let case = FuzzCase::sample(0xabcd);
    let a = case.run(ExecutorKind::Sequential);
    let b = case.run(ExecutorKind::Sequential);
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.loads, y.loads);
            assert_eq!(x.assignment, y.assignment);
        }
        (Err(x), Err(y)) => assert_eq!(x, y),
        _ => panic!("same case, different outcome kinds"),
    }
}

/// Cluster axis: the multi-process orchestration (worker threads over
/// local socket pairs here — the wire protocol is identical for child
/// processes) must reproduce the sequential engine bit for bit on
/// sampled cases, fault plans included. Errors must agree too: a
/// round-budget exhaustion looks the same from either side.
#[test]
fn cluster_axis_is_bit_identical() {
    let mut master = SplitMix64::new(0x00C1_0573_ED01);
    let mut compared = 0u32;
    for case_idx in 0..8u64 {
        // The wire protocol dispatches by registry name only, so the
        // custom-parameter axes collapse to their named defaults here.
        let case = FuzzCase::sample(master.next_u64()).with_registry_params();
        let spec = ProblemSpec::new(case.m, case.n).expect("sampled sizes are positive");
        let single = case.run(ExecutorKind::Sequential);
        for shards in [2u32, 5] {
            let shards = shards.min(case.n);
            let mut cc = ClusterConfig::engine(case.protocol, spec, case.seed)
                .with_shards(shards)
                .with_validation(true);
            if let Some(plan) = case.faults {
                cc = cc.with_faults(plan);
            }
            match (&single, cc.run_local()) {
                (Ok(s), Ok(out)) => {
                    let c = out.run.expect("engine outcome");
                    assert_eq!(
                        s.loads, c.loads,
                        "case {case_idx} ({case:?}): cluster loads diverge at {shards} shards"
                    );
                    assert_eq!(s.rounds, c.rounds, "case {case_idx}: rounds diverge");
                    assert_eq!(s.messages, c.messages, "case {case_idx}: messages diverge");
                    compared += 1;
                }
                (Err(se), Err(ce)) => {
                    assert_eq!(
                        se,
                        &ce.to_string(),
                        "case {case_idx} ({case:?}): errors diverge at {shards} shards"
                    );
                }
                (s, c) => panic!(
                    "case {case_idx} ({case:?}): outcome kinds diverge at {shards} shards: \
                     single {}, cluster {}",
                    if s.is_ok() { "ok" } else { "err" },
                    if c.is_ok() { "ok" } else { "err" },
                ),
            }
        }
    }
    assert!(compared > 0, "no successful case was compared");
}

/// Shard-count axis for the streaming allocator: placements must be
/// identical for sequential vs parallel ingestion, and the loads the same
/// over 2 and 4 cluster shard workers, including under shard-domain fault
/// redirects.
#[test]
fn stream_shard_axis_is_bit_identical() {
    let mut master = SplitMix64::new(0x0057_AEA3_F022);
    for case in 0..12u64 {
        let n = 64 + master.below(192);
        let seed = master.next_u64();
        let policy = [
            PolicyKind::OneChoice,
            PolicyKind::BatchedTwoChoice,
            PolicyKind::Threshold,
        ][master.below(3) as usize];
        let faults = (master.below(2) == 1)
            .then(|| FaultPlan::new(master.next_u64()).with_shard_failures(4, 0.3));
        let batch = (n as u64) * (1 + master.below(8) as u64);
        let reference = stream_placements(n, seed, policy, faults, batch, false);
        let got = stream_placements(n, seed, policy, faults, batch, true);
        assert_eq!(
            reference, got,
            "case {case}: {policy:?} n={n} parallel placements diverge"
        );

        // The cluster's mirror draws its workload off the unsalted run
        // seed, so the loads it is held to come from that workload too.
        let mut alloc = StreamAllocator::new(n, seed, policy);
        if let Some(plan) = faults {
            alloc = alloc.with_faults(plan);
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(batch), seed);
        for _ in 0..4 {
            alloc.ingest(&traffic.next_batch());
        }
        let want = alloc.bin_state().load_vector();
        for shards in [2u32, 4] {
            let mut cc = ClusterConfig::stream(policy, n, seed, 4, batch).with_shards(shards);
            if let Some(plan) = faults {
                cc = cc.with_faults(plan);
            }
            assert_eq!(
                cc.run_local().unwrap().loads,
                want,
                "case {case}: {policy:?} n={n} loads diverge at {shards} shards"
            );
        }
    }
}

fn stream_placements(
    n: u32,
    seed: u64,
    policy: PolicyKind,
    faults: Option<FaultPlan>,
    batch: u64,
    parallel: bool,
) -> Vec<Vec<u32>> {
    let mut alloc = StreamAllocator::new(n, seed, policy);
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }
    let mut traffic = Workload::new(WorkloadCfg::uniform(batch), seed ^ 0x57AEA3);
    (0..4)
        .map(|_| alloc.ingest(&traffic.next_batch()).placements)
        .collect()
}

/// Service axis: the replay facade (bounded queue + worker thread) must
/// be transparent — sampled `(policy, n, batch, faults, queue depth,
/// pipeline shape, snapshot interruption)` configurations place exactly
/// like direct ingestion, Serial and Pool backends alike.
#[test]
fn service_axis_is_bit_identical() {
    let mut master = SplitMix64::new(0x005E_1273_ACE5);
    for case in 0..10u64 {
        let n = 64 + master.below(192);
        let seed = master.next_u64();
        let policy = [
            PolicyKind::OneChoice,
            PolicyKind::BatchedTwoChoice,
            PolicyKind::Threshold,
        ][master.below(3) as usize];
        let faults = (master.below(2) == 1)
            .then(|| FaultPlan::new(master.next_u64()).with_shard_failures(4, 0.3));
        let batch = (n as u64) * (1 + master.below(8) as u64);
        // The draw of the retired in-process shard count stays, so the
        // sampled cases do not move.
        let _ = master.below(2);
        let parallel = master.below(2) == 1;
        // Queue capacity is the pipeline depth; 1 forces full backpressure
        // on every submit, larger values let batches pile up in flight.
        let queue = 1 + master.below(8) as usize;
        let checkpoint_every = 1 + master.below(4) as u64;
        let snapshot_at = (master.below(2) == 1).then(|| 1 + master.below(3) as u64);

        let direct = stream_placements(n, seed, policy, faults, batch, parallel);

        let build = |resume: Option<StreamAllocator>| {
            let mut alloc = match resume {
                Some(a) => a,
                None => StreamAllocator::new(n, seed, policy),
            };
            if parallel {
                alloc = alloc.parallel();
            }
            if let Some(plan) = faults {
                alloc = alloc.with_faults(plan);
            }
            alloc
        };
        let mut cfg = ServiceConfig::default()
            .with_queue_capacity(queue)
            .with_checkpoint_every(checkpoint_every)
            .with_placements();
        if let Some(k) = snapshot_at {
            cfg = cfg.with_snapshot_at(k);
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(batch), seed ^ 0x57AEA3);
        let (_, report) = replay(build(None), &mut traffic, 4, cfg);
        assert_eq!(
            direct, report.placements,
            "case {case}: {policy:?} n={n} queue={queue} service path diverges"
        );

        // When a snapshot was taken mid-replay, restoring it and replaying
        // the tail must produce the same remaining placements.
        if let Some((at, bytes)) = report.snapshot {
            let restored = StreamAllocator::restore(&bytes).expect("snapshot restores");
            let mut traffic = Workload::new(WorkloadCfg::uniform(batch), seed ^ 0x57AEA3);
            for _ in 0..at {
                traffic.next_batch();
            }
            let cfg = ServiceConfig::default()
                .with_queue_capacity(queue)
                .with_placements();
            let (_, tail) = replay(build(Some(restored)), &mut traffic, 4 - at, cfg);
            assert_eq!(
                &direct[at as usize..],
                &tail.placements[..],
                "case {case}: resumed tail diverges after snapshot at {at}"
            );
        }
    }
}
