//! E11 — the introduction's motivating observation: a *fixed* threshold
//! `T = m/n + O(1)` (no undershoot) needs `Ω(log n)` rounds, because a
//! constant fraction of bins fills after one round and unallocated balls
//! keep hitting full bins.

use pba_analysis::LinearFit;
use pba_protocols::{FixedThreshold, ThresholdHeavy};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{round_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E11 runner.
pub(crate) struct E11;

impl Experiment for E11 {
    fn id(&self) -> &'static str {
        "e11"
    }

    fn title(&self) -> &'static str {
        "Fixed threshold needs Ω(log n) rounds; undershooting fixes it"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (ns, ratio): (Vec<u32>, u64) = match scale {
            Scale::Smoke => (vec![1 << 8, 1 << 10], 16),
            Scale::Default => (vec![1 << 8, 1 << 10, 1 << 12, 1 << 14], 64),
            Scale::Full => (vec![1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16], 64),
        };
        let reps = scale.reps();
        let mut table = Table::new(
            format!("Rounds to completion at m/n = {ratio}: fixed T vs A_heavy's undershoot"),
            &["n", "log2 n", "fixed-threshold rounds", "a_heavy rounds"],
        );
        let mut xs = Vec::new();
        let mut fixed_ys = Vec::new();
        let mut heavy_ys = Vec::new();
        for &n in &ns {
            let s = spec(ratio * n as u64, n);
            let fixed = round_summary(&replicate_outcomes_with(s, 11_000, reps, opts, || {
                FixedThreshold::new(s, 1)
            }));
            let heavy = round_summary(&replicate_outcomes_with(s, 11_000, reps, opts, || {
                ThresholdHeavy::new(s)
            }));
            xs.push((n as f64).log2());
            fixed_ys.push(fixed.mean());
            heavy_ys.push(heavy.mean());
            table.push_row(vec![
                n.to_string(),
                fnum((n as f64).log2()),
                fnum(fixed.mean()),
                fnum(heavy.mean()),
            ]);
        }
        let fit_fixed = LinearFit::fit(&xs, &fixed_ys);
        let fit_heavy = LinearFit::fit(&xs, &heavy_ys);
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Setting every bin's threshold to the final capacity m/n + O(1) from round \
                    one fills a constant fraction of bins immediately, so stragglers face \
                    constant rejection probability per round: Ω(log n) rounds. A_heavy's \
                    deliberately lower thresholds avoid this (§1.1).",
            tables: vec![table],
            notes: vec![format!(
                "Rounds vs log₂ n: fixed threshold slope {} (R² {}), A_heavy slope {} — the \
                 fixed variant grows linearly in log n while A_heavy stays flat.",
                fnum(fit_fixed.slope),
                fnum(fit_fixed.r_squared),
                fnum(fit_heavy.slope)
            )],
            perf: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        crate::experiments::smoke::check(&E11);
    }

    #[test]
    fn fixed_threshold_much_slower() {
        let report = E11.run(Scale::Smoke);
        for row in report.tables[0].rows() {
            let fixed: f64 = row[2].parse().unwrap();
            let heavy: f64 = row[3].parse().unwrap();
            assert!(
                fixed > heavy,
                "n = {}: fixed {fixed} vs heavy {heavy}",
                row[0]
            );
        }
    }
}
