//! E13 — ablation of the undershoot exponent: `T_i = m/n − (m̃_i/n)^γ`
//! with the matching estimate update `m̃_{i+1}/n = (m̃_i/n)^γ`.
//!
//! The paper chooses `γ = 2/3`. The undershoot `(m̃/n)^γ` is the
//! saturation margin: measured in standard deviations of a bin's
//! arrivals it is `(m̃/n)^{γ−1/2}`. Small γ (→ 1/2) leaves a Θ(1)·σ
//! margin, so bins routinely miss their thresholds and the exact
//! recurrence of Claim 2 breaks; large γ keeps every bin saturated but
//! leaves `n·(m̃/n)^γ` balls per round, slowing the double-log collapse.
//! γ = 2/3 is the paper's compromise.

use pba_protocols::ThresholdHeavy;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{gap_summary, round_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E13 runner.
pub(crate) struct E13;

impl Experiment for E13 {
    fn id(&self) -> &'static str {
        "e13"
    }

    fn title(&self) -> &'static str {
        "Ablation: threshold undershoot exponent γ"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, shift) = match scale {
            Scale::Smoke => (1u32 << 8, 10u32),
            Scale::Default => (1 << 10, 14),
            Scale::Full => (1 << 12, 14),
        };
        let m = (n as u64) << shift;
        let s = spec(m, n);
        let reps = scale.reps();
        let gammas = [0.5, 2.0 / 3.0, 0.75, 0.9];
        let mut table = Table::new(
            format!("γ sweep at m/n = 2^{shift}, n = {n} (paper: γ = 2/3)"),
            &[
                "γ",
                "rounds (mean)",
                "gap (max)",
                "underloaded bin-rounds",
                "ball msgs / m",
            ],
        );
        for &gamma in &gammas {
            let outcomes = replicate_outcomes_with(s, 13_000, reps, opts, || {
                ThresholdHeavy::with_gamma(s, gamma)
            });
            let rounds = round_summary(&outcomes);
            let gaps = gap_summary(&outcomes);
            // Total (bin, round) pairs where a bin missed its threshold —
            // the quantity Claims 1-2 say should be ~0 for γ = 2/3.
            let underloaded: u64 = {
                let out = pba_core::Simulator::new(s, opts.config(13_000))
                    .run(ThresholdHeavy::with_gamma(s, gamma))
                    .unwrap();
                out.trace
                    .unwrap()
                    .records()
                    .iter()
                    .map(|r| r.underloaded_bins as u64)
                    .sum()
            };
            let msgs = outcomes
                .iter()
                .map(|o| o.messages.sent_by_balls() as f64 / m as f64)
                .sum::<f64>()
                / outcomes.len() as f64;
            table.push_row(vec![
                fnum(gamma),
                fnum(rounds.mean()),
                fnum(gaps.max()),
                underloaded.to_string(),
                fnum(msgs),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Design-choice ablation: the 2/3 exponent balances per-round progress \
                    (small γ = smaller leftovers = fewer rounds) against the Chernoff \
                    saturation margin (small γ = margin of only (m̃/n)^{γ-1/2} standard \
                    deviations = underloaded bins, breaking the recurrence's exactness).",
            tables: vec![table],
            notes: vec![
                "Expected shape: 'underloaded bin-rounds' grows sharply as γ → 1/2 while \
                 'rounds' grows as γ → 1; γ = 2/3 keeps both small simultaneously."
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
        crate::experiments::smoke::check(&E13);
    }

    #[test]
    fn small_gamma_underloads_more() {
        let report = E13.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let at = |i: usize| -> u64 { rows[i][3].parse().unwrap() };
        // γ = 0.5 (first row) has a Θ(1)·σ saturation margin and must
        // underload at least as much as the conservative γ = 0.9.
        assert!(
            at(0) >= at(3),
            "underload: γ=0.5 {} vs γ=0.9 {}",
            at(0),
            at(3)
        );
    }
}
