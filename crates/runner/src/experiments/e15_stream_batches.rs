//! E15 — streaming batched two-choice: the gap grows with the batch size
//! `b` once batches exceed Θ(n) (Los & Sauerwald, "Balanced Allocations
//! in Batches: Simplified and Generalized").

use pba_stream::{PolicyKind, WorkloadCfg};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{final_gap_summary, run_stream, StreamRun};
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E15 runner.
pub(crate) struct E15;

impl Experiment for E15 {
    fn id(&self) -> &'static str {
        "e15"
    }

    fn title(&self) -> &'static str {
        "Streaming batches: gap vs batch size"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, total_ratio) = match scale {
            Scale::Smoke => (1u32 << 7, 64u64),
            Scale::Default => (1 << 9, 64),
            Scale::Full => (1 << 10, 128),
        };
        let reps = scale.reps();
        // Same total arrival mass (total_ratio · n balls) split into
        // batches of b ∈ {n, 2n, 8n, 32n}: only the staleness horizon
        // changes across rows.
        let sizes: [(&str, u64); 4] = [("n", 1), ("2n", 2), ("8n", 8), ("32n", 32)];
        let mut table = Table::new(
            format!(
                "Streaming batched two-choice: final gap after {total_ratio}n arrivals, n = {n}"
            ),
            &["b", "batches", "paper", "gap (mean)", "gap (max)"],
        );
        for (label, mult) in sizes {
            let b = mult * n as u64;
            let run = StreamRun {
                bins: n,
                policy: PolicyKind::BatchedTwoChoice,
                cfg: WorkloadCfg::uniform(b),
                warmup: 0,
                batches: total_ratio / mult,
                faults: None,
            };
            let records = replicate(15_000, reps, |seed| run_stream(&run, seed, opts));
            let gaps = final_gap_summary(&records);
            // Los–Sauerwald: gap = Θ(b/n · log n) for b ≥ n log n; the
            // b/n column is the predicted growth axis.
            table.push_row(vec![
                label.to_string(),
                (total_ratio / mult).to_string(),
                format!("∝ {mult}·log n"),
                fnum(gaps.mean()),
                fnum(gaps.max()),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "In the online batched model every ball of a batch decides from loads \
                    frozen at batch start. For batches of size b ≥ n the two-choice gap \
                    grows with the staleness horizon — Θ((b/n)·log n) for b ≥ n·log n \
                    (Los & Sauerwald 2022) — so a stream ingesting 32n-ball batches pays a \
                    measurably larger steady gap than one ingesting n-ball batches.",
            tables: vec![table],
            notes: vec![
                "Shape: gap (mean) is monotone nondecreasing in b; the b = 32n row is \
                 several times the b = n row."
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
        crate::experiments::smoke::check(&E15);
    }

    #[test]
    fn gap_grows_with_batch_size() {
        let report = E15.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let small: f64 = rows[0][3].parse().unwrap();
        let large: f64 = rows.last().unwrap()[3].parse().unwrap();
        assert!(large >= small, "b=32n gap {large} < b=n gap {small}");
    }
}
