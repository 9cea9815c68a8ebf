//! The reproduced experiments E1–E19 and E24–E25 (see `DESIGN.md` §5 for
//! the index; E20–E23 are the cluster/wire/replay studies reported
//! directly in `EXPERIMENTS.md`).

pub(crate) mod e01_naive;
pub(crate) mod e02_two_choice;
pub(crate) mod e03_threshold_heavy;
pub(crate) mod e04_underload;
pub(crate) mod e05_lower_bound;
pub(crate) mod e06_asymmetric;
pub(crate) mod e07_collision;
pub(crate) mod e08_stemann_heavy;
pub(crate) mod e09_adler;
pub(crate) mod e10_messages;
pub(crate) mod e11_fixed_threshold;
pub(crate) mod e12_batched;
pub(crate) mod e13_ablation;
pub(crate) mod e14_preliminaries;
pub(crate) mod e15_stream_batches;
pub(crate) mod e16_churn;
pub(crate) mod e17_weighted;
pub(crate) mod e18_message_loss;
pub(crate) mod e19_shard_failures;
pub(crate) mod e24_kd_choice;
pub(crate) mod e25_estimated_average;

use pba_analysis::Summary;
use pba_core::{BatchRecord, FaultPlan, ProblemSpec};
use pba_stream::{PolicyKind, StreamAllocator, Workload, WorkloadCfg};

use crate::experiment::RunOptions;

/// `ProblemSpec` constructor that panics with context (experiment sizes
/// are static and always valid).
pub(crate) fn spec(m: u64, n: u32) -> ProblemSpec {
    ProblemSpec::new(m, n).unwrap_or_else(|e| panic!("bad experiment spec m={m} n={n}: {e}"))
}

/// Summarize the gaps of a batch of outcomes.
pub(crate) fn gap_summary(outcomes: &[pba_core::RunOutcome]) -> Summary {
    Summary::from_u64(outcomes.iter().map(|o| o.gap() as u64))
}

/// Summarize the round counts of a batch of outcomes.
pub(crate) fn round_summary(outcomes: &[pba_core::RunOutcome]) -> Summary {
    Summary::from_u64(outcomes.iter().map(|o| o.rounds as u64))
}

/// One streaming session for the streaming experiments (E15–E17).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StreamRun {
    /// Number of bins.
    pub bins: u32,
    /// Placement policy.
    pub policy: PolicyKind,
    /// Traffic description (churn applies only after `warmup`).
    pub cfg: WorkloadCfg,
    /// Batches ingested with churn forced to zero (population build-up).
    pub warmup: u64,
    /// Total batches, warmup included.
    pub batches: u64,
    /// Fault plan armed on the allocator (E19), if any.
    pub faults: Option<FaultPlan>,
}

/// Drive one streaming session and return every per-batch record.
///
/// Stream runs are replicated across the global pool (see
/// [`crate::replicate::replicate`]), so each session ingests
/// sequentially — nesting pool fan-outs would deadlock-prone-serialize —
/// and determinism comes from the allocator's counter-based streams.
/// An `opts.metrics` sink observes every batch of every replication.
pub(crate) fn run_stream(run: &StreamRun, seed: u64, opts: &RunOptions) -> Vec<BatchRecord> {
    let mut alloc = StreamAllocator::new(run.bins, seed, run.policy);
    if let Some(sink) = &opts.metrics {
        alloc = alloc.with_metrics(sink.clone());
    }
    if let Some(plan) = run.faults {
        alloc = alloc.with_faults(plan);
    }
    let mut cfg = run.cfg;
    let churn = cfg.churn;
    if run.warmup > 0 {
        cfg.churn = 0.0;
    }
    // Distinct workload stream: traffic randomness must not correlate
    // with placement randomness under the shared session seed.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3_u64);
    (0..run.batches)
        .map(|t| {
            if t == run.warmup {
                traffic.set_churn(churn);
            }
            alloc.ingest(&traffic.next_batch()).record
        })
        .collect()
}

/// Summarize the gaps of the final batch record of each replication.
pub(crate) fn final_gap_summary(records: &[Vec<BatchRecord>]) -> Summary {
    Summary::from_u64(records.iter().filter_map(|r| r.last().map(|b| b.gap)))
}

#[cfg(test)]
pub(crate) mod smoke {
    //! Shared smoke-test: every experiment must run at `Scale::Smoke` and
    //! produce at least one nonempty table.
    use crate::experiment::{Experiment, Scale};

    pub(crate) fn check(e: &dyn Experiment) {
        let report = e.run(Scale::Smoke);
        assert_eq!(report.id, e.id());
        assert!(!report.tables.is_empty(), "{} produced no tables", e.id());
        for t in &report.tables {
            assert!(!t.is_empty(), "{}: table '{}' empty", e.id(), t.title());
        }
        // Markdown rendering must not panic and must mention the id.
        let md = report.to_markdown();
        assert!(md.contains(&e.id().to_uppercase()));
    }
}
