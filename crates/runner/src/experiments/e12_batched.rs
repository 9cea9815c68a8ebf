//! E12 — batched multiple-choice (\[BCE+12\]): the two-choice gap survives
//! batch-level staleness up to batches of size Θ(n).

use pba_protocols::BatchedTwoChoice;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{gap_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E12 runner.
pub(crate) struct E12;

impl Experiment for E12 {
    fn id(&self) -> &'static str {
        "e12"
    }

    fn title(&self) -> &'static str {
        "Batched two-choice: gap vs batch size"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, ratio) = match scale {
            Scale::Smoke => (1u32 << 8, 8u64),
            Scale::Default => (1 << 9, 32),
            Scale::Full => (1 << 10, 64),
        };
        let m = ratio * n as u64;
        let s = spec(m, n);
        let reps = scale.reps();
        let batches: Vec<(String, u64)> = vec![
            ("n/4".into(), (n / 4).max(1) as u64),
            ("n".into(), n as u64),
            ("4n".into(), 4 * n as u64),
            ("m (one shot)".into(), m),
        ];
        let mut table = Table::new(
            format!("Gap vs batch size B at m/n = {ratio}, n = {n}"),
            &["B", "batches", "gap (mean)", "gap (max)"],
        );
        for (label, b) in &batches {
            let outcomes =
                replicate_outcomes_with(s, 12_000, reps, opts, || BatchedTwoChoice::new(s, *b));
            let gaps = gap_summary(&outcomes);
            table.push_row(vec![
                label.clone(),
                m.div_ceil(*b).to_string(),
                fnum(gaps.mean()),
                fnum(gaps.max()),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Processing balls in parallel batches of B = O(n), each batch deciding on \
                    loads frozen at batch start, preserves the two-choice gap up to constants \
                    (Berenbrink, Czumaj, Englert, Friedetzky, Nagel 2012); one giant batch \
                    degrades toward d-left-less random placement.",
            tables: vec![table],
            notes: vec![
                "Shape: the gap is near-flat for B ≤ Θ(n) and jumps for B = m, where all \
                 decisions are blind."
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
        crate::experiments::smoke::check(&E12);
    }

    #[test]
    fn one_shot_batch_is_worst() {
        let report = E12.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let small: f64 = rows[0][2].parse().unwrap();
        let giant: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(giant >= small, "giant batch {giant} < small batch {small}");
    }
}
