//! E19 — stream gap under shard failures: batched two-choice where, each
//! batch, every one of 8 virtual bin-range domains is unavailable with
//! probability `q` and arrivals aimed at a failed domain redirect to the
//! next live bin. Failures rotate across batches (fresh per-batch draw),
//! so the steady-state gap grows with `q` — redirected mass piles onto
//! the live bins bordering failed ranges — but stays bounded instead of
//! diverging, because no domain stays dark forever.

use pba_core::FaultPlan;
use pba_stream::{PolicyKind, WorkloadCfg};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{final_gap_summary, run_stream, StreamRun};
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// Fault domains the bin range is carved into (virtual: placements stay
/// identical across physical shard counts).
const DOMAINS: u32 = 8;

/// E19 runner.
pub(crate) struct E19;

impl Experiment for E19 {
    fn id(&self) -> &'static str {
        "e19"
    }

    fn title(&self) -> &'static str {
        "Fault injection: stream gap under shard failures"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, batches) = match scale {
            Scale::Smoke => (1u32 << 7, 16u64),
            Scale::Default => (1 << 9, 32),
            Scale::Full => (1 << 10, 64),
        };
        let b = 4 * n as u64;
        let reps = scale.reps();
        let fail_probs = [0.0f64, 0.1, 0.3];
        let mut table = Table::new(
            format!(
                "Streaming batched two-choice under per-batch domain failures \
                 ({DOMAINS} domains), {batches} batches of b = 4n, n = {n}"
            ),
            &[
                "fail q",
                "paper",
                "gap (mean)",
                "gap (max)",
                "redirects/batch",
                "degraded batches",
            ],
        );
        for q in fail_probs {
            let faults = (q > 0.0).then(|| FaultPlan::new(0xE19).with_shard_failures(DOMAINS, q));
            let run = StreamRun {
                bins: n,
                policy: PolicyKind::BatchedTwoChoice,
                cfg: WorkloadCfg::uniform(b),
                warmup: 0,
                batches,
                faults,
            };
            let records = replicate(19_000, reps, |seed| run_stream(&run, seed, opts));
            let gaps = final_gap_summary(&records);
            let redirects: u64 = records.iter().flatten().map(|r| r.fault_redirects).sum();
            let degraded = records
                .iter()
                .flatten()
                .filter(|r| r.failed_domains > 0)
                .count();
            table.push_row(vec![
                format!("{q}"),
                format!("∝ 1/(1−{q})"),
                fnum(gaps.mean()),
                fnum(gaps.max()),
                fnum(redirects as f64 / (reps as u64 * batches) as f64),
                degraded.to_string(),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "With the bin range carved into 8 virtual fault domains and each domain \
                    dark for a batch independently with probability q, arrivals aimed at a \
                    dark domain redirect cyclically to the next live bin. During a degraded \
                    batch the effective bin count shrinks to ≈ n(1−q) and redirected mass \
                    hot-spots the bins bordering dark ranges, so the steady gap grows with \
                    the 1/(1−q) load factor — but because the per-batch failure draw is \
                    fresh, no bin range starves and the gap plateaus instead of diverging.",
            tables: vec![table],
            notes: vec![
                "Shape: gap (mean) is monotone nondecreasing in q; the q = 0 row performs \
                 zero redirects and degrades zero batches."
                    .to_string(),
            ],
            perf: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        crate::experiments::smoke::check(&E19);
    }

    #[test]
    fn failures_degrade_but_do_not_break_the_stream() {
        let report = E19.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        // q = 0: pristine path, nothing redirected, nothing degraded.
        assert_eq!(rows[0][4].parse::<f64>().unwrap(), 0.0);
        assert_eq!(rows[0][5], "0");
        // q = 0.3 over 8 domains × 16 batches × reps: faults must fire.
        let worst = rows.last().unwrap();
        assert!(
            worst[4].parse::<f64>().unwrap() > 0.0,
            "no redirects at q=0.3"
        );
        assert!(
            worst[5].parse::<u64>().unwrap() > 0,
            "no degraded batches at q=0.3"
        );
    }
}
