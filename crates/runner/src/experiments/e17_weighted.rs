//! E17 — weighted balls: at fixed mean weight, the streaming two-choice
//! gap grows with the weight variance (cf. Talwar–Wieder's weighted
//! balanced allocations).

use pba_stream::{PolicyKind, WeightDist, WorkloadCfg};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{final_gap_summary, run_stream, StreamRun};
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E17 runner.
pub(crate) struct E17;

impl Experiment for E17 {
    fn id(&self) -> &'static str {
        "e17"
    }

    fn title(&self) -> &'static str {
        "Weighted balls: gap vs weight variance"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, batches) = match scale {
            Scale::Smoke => (1u32 << 7, 16u64),
            Scale::Default => (1 << 9, 32),
            Scale::Full => (1 << 10, 64),
        };
        let reps = scale.reps();
        let b = n as u64;
        // All rows share mean weight 2; only the variance moves, so the
        // gap column isolates the weight-variance dependence.
        let dists: [(&str, WeightDist); 4] = [
            ("constant 2", WeightDist::Constant(2)),
            ("uniform 1..=3", WeightDist::UniformRange { lo: 1, hi: 3 }),
            (
                "two-point {1,11}@0.1",
                WeightDist::TwoPoint {
                    lo: 1,
                    hi: 11,
                    p: 0.1,
                },
            ),
            (
                "two-point {1,21}@0.05",
                WeightDist::TwoPoint {
                    lo: 1,
                    hi: 21,
                    p: 0.05,
                },
            ),
        ];
        let mut table = Table::new(
            format!(
                "Streaming two-choice with weighted balls: {batches} batches of b = n, n = {n}"
            ),
            &["weights", "mean", "variance", "gap (mean)", "gap (max)"],
        );
        for (label, dist) in dists {
            let run = StreamRun {
                bins: n,
                policy: PolicyKind::BatchedTwoChoice,
                cfg: WorkloadCfg::uniform(b).with_weights(dist),
                warmup: 0,
                batches,
                faults: None,
            };
            let records = replicate(17_000, reps, |seed| run_stream(&run, seed, opts));
            let gaps = final_gap_summary(&records);
            table.push_row(vec![
                label.to_string(),
                fnum(dist.mean()),
                fnum(dist.variance()),
                fnum(gaps.mean()),
                fnum(gaps.max()),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "For weighted balls the two-choice gap is governed by the weight \
                    distribution, not just the total load: at fixed mean weight, higher \
                    weight variance yields a larger gap (Talwar & Wieder, weighted balanced \
                    allocations; Los & Sauerwald generalize to the batched model). Zero \
                    variance recovers the unit-ball gap scaled by the weight.",
            tables: vec![table],
            notes: vec![
                "Shape: gap (mean) is nondecreasing down the table as variance rises from \
                 0 through 19 at constant mean 2."
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
        crate::experiments::smoke::check(&E17);
    }

    #[test]
    fn variance_hurts() {
        let report = E17.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let constant: f64 = rows[0][3].parse().unwrap();
        let heavy: f64 = rows.last().unwrap()[3].parse().unwrap();
        assert!(
            heavy >= constant,
            "high-variance gap {heavy} below zero-variance gap {constant}"
        );
    }
}
