//! Golden seed-matrix regression: pinned final max loads for the three
//! workload families the repo's headline experiments exercise (E1
//! single-choice, E7 collision, E15 streaming batched two-choice), each
//! across three fixed seeds.
//!
//! These constants pin the *exact* output of the deterministic RNG and
//! engine pipeline. A diff here means the counter-stream layout, the
//! acceptance order, or the allocator's placement sequence changed —
//! which silently invalidates every recorded experiment table. Update
//! the constants only for an intentional, documented RNG/engine break.

use std::sync::atomic::{AtomicU64, Ordering};

use pba::core::metrics::{RoundTiming, RunMeta};
use pba::core::RoundRecord;
use pba::prelude::*;
use pba::protocols::run_by_name;
use pba::stream::Batch;

const SEEDS: [u64; 3] = [41, 42, 43];

/// E1-style workload: single-choice, m = 4096 balls into n = 256 bins.
#[test]
fn golden_single_choice_max_loads() {
    const GOLDEN_MAX: [u32; 3] = [26, 29, 26];
    let spec = ProblemSpec::new(1 << 12, 1 << 8).unwrap();
    for (seed, want) in SEEDS.into_iter().zip(GOLDEN_MAX) {
        let out = Simulator::new(spec, RunConfig::seeded(seed).with_validation(true))
            .run(SingleChoice::new(spec))
            .unwrap();
        assert_eq!(out.rounds, 1, "seed {seed}: single-choice is one round");
        assert_eq!(
            out.load_stats().max(),
            want,
            "seed {seed}: single-choice max load drifted"
        );
    }
}

/// E7-style workload: Stemann collision (d = 2, c = 2) at m = n = 4096.
#[test]
fn golden_collision_max_loads_and_rounds() {
    const GOLDEN: [(u32, u32); 3] = [(2, 5), (2, 5), (2, 5)];
    let spec = ProblemSpec::new(1 << 12, 1 << 12).unwrap();
    for (seed, (want_max, want_rounds)) in SEEDS.into_iter().zip(GOLDEN) {
        let out = Simulator::new(spec, RunConfig::seeded(seed).with_validation(true))
            .run(Collision::new(spec))
            .unwrap();
        assert_eq!(
            out.load_stats().max(),
            want_max,
            "seed {seed}: collision max load drifted"
        );
        assert_eq!(
            out.rounds, want_rounds,
            "seed {seed}: collision round count drifted"
        );
    }
}

/// E15-style workload: streaming batched two-choice, 16 batches of 4n
/// unit arrivals into n = 256 bins.
#[test]
fn golden_stream_max_loads() {
    const GOLDEN_MAX: [u64; 3] = [75, 73, 74];
    for (seed, want) in SEEDS.into_iter().zip(GOLDEN_MAX) {
        let mut alloc = StreamAllocator::new(256, seed, PolicyKind::BatchedTwoChoice);
        let mut last = 0;
        for t in 0..16u64 {
            last = alloc
                .ingest(&Batch::unit_arrivals(t * 2000, 1024))
                .record
                .max_load;
        }
        assert_eq!(last, want, "seed {seed}: stream max load drifted");
    }
}

/// E24-style workload: (k,d)-choice (k = 2, d = 4), m = 4096 balls as
/// two replicas each into n = 256 bins. The max sits exactly at the
/// structural capacity ⌈k·m/n⌉ + window + 2 = 37 at this size; the
/// pinned rounds are the interesting half (commit order and the k-slot
/// grant path both feed them).
#[test]
fn golden_kd_choice_max_loads_and_rounds() {
    const GOLDEN: [(u32, u32); 3] = [(37, 4), (37, 4), (37, 4)];
    let spec = ProblemSpec::new(1 << 12, 1 << 8).unwrap();
    for (seed, (want_max, want_rounds)) in SEEDS.into_iter().zip(GOLDEN) {
        let out = Simulator::new(spec, RunConfig::seeded(seed).with_validation(true))
            .run(KdChoice::with_params(spec, 2, 4))
            .unwrap();
        let total: u64 = out.loads.iter().map(|&l| l as u64).sum();
        assert_eq!(total, 2 << 12, "seed {seed}: k-slot conservation drifted");
        assert_eq!(
            out.load_stats().max(),
            want_max,
            "seed {seed}: kd-choice max load drifted"
        );
        assert_eq!(
            out.rounds, want_rounds,
            "seed {seed}: kd-choice round count drifted"
        );
    }
}

/// E25-style workload: estimated-average, m = 4096 into n = 256. Max
/// load is structurally ⌈m/n⌉ = 16 on completion, so the retry loop's
/// fingerprint is the round count.
#[test]
fn golden_estimated_average_rounds() {
    const GOLDEN_ROUNDS: [u32; 3] = [19, 17, 19];
    let spec = ProblemSpec::new(1 << 12, 1 << 8).unwrap();
    for (seed, want_rounds) in SEEDS.into_iter().zip(GOLDEN_ROUNDS) {
        let out = Simulator::new(spec, RunConfig::seeded(seed).with_validation(true))
            .run(EstimatedAverage::new(spec))
            .unwrap();
        assert_eq!(
            out.load_stats().max(),
            16,
            "seed {seed}: perfect-balance cap drifted"
        );
        assert_eq!(
            out.rounds, want_rounds,
            "seed {seed}: estimated-average round count drifted"
        );
    }
}

/// Executor-matrix regression: every registry protocol, run on the
/// sequential executor and on 2- and 8-lane pools, with faults off and
/// with a 10% message-drop plan, must produce the **bit-identical**
/// per-ball assignment. The chunk geometry is lowered so the 4096-ball
/// instance genuinely fans out across lanes instead of falling back to
/// the serial path. This is the executional half of the golden pins
/// above: the unified round kernel promises serial ≡ parallel for every
/// protocol, not just the three headline workloads.
#[test]
fn assignment_matrix_identical_across_executors_and_faults() {
    use pba::protocols::{protocol_names, run_by_name};

    let spec = ProblemSpec::new(1 << 12, 1 << 6).unwrap();
    let plans = [None, Some(FaultPlan::new(0xD0D0).with_drop_prob(0.1))];
    for &name in protocol_names() {
        for plan in plans {
            // Under a drop plan some bounded-round protocols legitimately
            // exhaust their budget; that outcome must then be identical
            // across executors too, so compare the whole `Result`.
            let run = |executor: ExecutorKind| {
                let mut cfg = RunConfig::seeded(99)
                    .with_executor(executor)
                    .with_assignment(true)
                    .with_validation(true)
                    .with_chunk_plan(ChunkPlan::new(256, 512))
                    .with_trace(false);
                if let Some(p) = plan {
                    cfg = cfg.with_faults(p);
                }
                run_by_name(name, spec, cfg)
                    .expect("registry name")
                    .map(|out| {
                        (
                            out.assignment.clone().expect("assignment tracked"),
                            out.rounds,
                            out.load_stats().max(),
                        )
                    })
                    .map_err(|e| e.to_string())
            };
            let base = run(ExecutorKind::Sequential);
            for lanes in [2usize, 8] {
                assert_eq!(
                    base,
                    run(ExecutorKind::ParallelWith(lanes)),
                    "{name} (faults: {}) diverged from sequential on {lanes} lanes",
                    plan.is_some(),
                );
            }
        }
    }
}

/// FNV-1a over little-endian `u64` words: a stable one-line fingerprint
/// of a long vector.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every counter of a round record, in field order.
fn record_words(r: &RoundRecord) -> [u64; 12] {
    [
        r.round.into(),
        r.active_before,
        r.requests,
        r.granted,
        r.committed,
        r.wasted_grants,
        r.underloaded_bins.into(),
        r.unfilled_want,
        r.max_load.into(),
        r.messages.requests,
        r.messages.responses,
        r.messages.commits,
    ]
}

/// Sums the balls that straggled in round 0: each one makes its first
/// draw in a later round.
#[derive(Default)]
struct FirstRoundStragglers(AtomicU64);

impl MetricsSink for FirstRoundStragglers {
    fn on_round(&self, _meta: &RunMeta, _record: &RoundRecord, _timing: &RoundTiming) {}

    fn on_fault(&self, _meta: &RunMeta, record: &FaultRecord) {
        if record.round == 0 {
            self.0.fetch_add(record.straggler_balls, Ordering::Relaxed);
        }
    }
}

/// The message ledger and the round trace, sequential and on a 4-lane
/// pool (where round 0 fans out and the bin side splits into owner
/// ranges): the per-bin received counts, every counter of every round
/// record (`granted` and `max_load` among them), the loads and the round
/// count. Most cases run at m = n = 2^16. They cover fixed choices drawn
/// in round 0 (collision, adler-greedy), fixed choices first drawn in
/// round k (batched two-choice with four batches, so batch k draws in
/// round k; collision under stragglers and backoff, which defer first
/// draws), superbin redirects (asymmetric) and k-slot replicas
/// (kd-choice). Threshold-heavy runs heavily loaded, at m = 2^20 and
/// n = 2^12: its threshold moves every round, and its round 0 commits
/// most of a million balls into few bins. Estimated-average reads each
/// accepting bin's round-start load to choose its commit, and declines
/// rounds with an empty pick set.
#[test]
fn golden_ledger_and_round_traces() {
    // (case, log2 m, log2 n, rounds, loads, per-bin received, round records)
    #[rustfmt::skip]
    const GOLDEN: [(&str, u32, u32, u32, u64, u64, u64); 8] = [
        ("collision", 16, 16, 2, 0xf0fe27f18be3a3a5, 0xb6383f5d3ccfdd80, 0x1a35f46444e3bda4),
        ("adler-greedy", 16, 16, 2, 0x8c8c1f6540e05d87, 0x52e2fecfd986996c, 0xef7983ada052511e),
        ("batched-two-choice/4", 16, 16, 4, 0xc0c33e9e9aa9d0e7, 0x6cee9cae93fc2475, 0x6ef977aeaa607fac),
        ("asymmetric", 16, 16, 1, 0x97ce00b6ffa7f6e7, 0x1edfd131538e8f15, 0x4156b6aed166ab08),
        ("kd-choice", 16, 16, 2, 0xc20b92fe0074e2e7, 0x22f48fbb132cfd2b, 0xe761011e76a5720e),
        ("collision+straggle", 16, 16, 7, 0x13eb700ae4b00685, 0x2a224507496a94ab, 0x17e30f9623026e29),
        ("threshold-heavy", 20, 12, 9, 0x8e9d0228e232f0f4, 0x4f24e3a932f74c04, 0xd1e0f85564190050),
        ("estimated-average", 16, 16, 174, 0xd6627b914bb22325, 0x218a8004d77e375a, 0xbd4086e8993bc760),
    ];
    let straggle = FaultPlan::new(0x57A6)
        .with_stragglers(8, 0.25)
        .with_drop_prob(0.2)
        .with_max_backoff(4);
    for (case, log_m, log_n, rounds, loads, received, records) in GOLDEN {
        let spec = ProblemSpec::new(1 << log_m, 1 << log_n).unwrap();
        for executor in [ExecutorKind::Sequential, ExecutorKind::ParallelWith(4)] {
            let stragglers = std::sync::Arc::new(FirstRoundStragglers::default());
            let cfg = RunConfig::seeded(29)
                .with_executor(executor)
                .with_validation(true)
                .with_metrics(stragglers.clone());
            let out = match case {
                "batched-two-choice/4" => Simulator::new(spec, cfg)
                    .run(BatchedTwoChoice::new(spec, u64::from(spec.bins() / 4))),
                "collision+straggle" => {
                    run_by_name("collision", spec, cfg.with_faults(straggle)).unwrap()
                }
                name => run_by_name(name, spec, cfg).unwrap(),
            }
            .unwrap();
            let got = (
                out.rounds,
                fingerprint(out.loads.iter().map(|&l| u64::from(l))),
                fingerprint(out.per_bin_received.clone().expect("per-bin tracking")),
                fingerprint(
                    out.trace
                        .as_ref()
                        .unwrap()
                        .records()
                        .iter()
                        .flat_map(record_words),
                ),
            );
            assert_eq!(
                got,
                (rounds, loads, received, records),
                "{case} on {executor:?}: (rounds, loads, per-bin received, round records) drifted"
            );
            if case == "collision+straggle" {
                assert!(
                    stragglers.0.load(Ordering::Relaxed) > 0,
                    "{executor:?}: no ball straggled in round 0"
                );
            }
        }
    }
}
