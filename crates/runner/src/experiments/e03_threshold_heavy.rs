//! E3 — the main theorem: `A_heavy` places m balls with gap O(1) in
//! `O(log log(m/n) + log* n)` rounds using O(m) messages (Theorems 1/6).

use pba_analysis::predict::{log_star, predicted_rounds_threshold_heavy};
use pba_analysis::LinearFit;
use pba_core::mathutil::log_log2;
use pba_protocols::ThresholdHeavy;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{gap_summary, round_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E3 runner.
pub(crate) struct E03;

impl Experiment for E03 {
    fn id(&self) -> &'static str {
        "e03"
    }

    fn title(&self) -> &'static str {
        "A_heavy: gap O(1) in O(log log(m/n) + log* n) rounds"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, ratio_shifts): (u32, Vec<u32>) = match scale {
            Scale::Smoke => (1 << 8, vec![4, 8]),
            Scale::Default => (1 << 10, vec![4, 8, 12, 16]),
            Scale::Full => (1 << 11, vec![4, 8, 12, 15]),
        };
        let reps = scale.reps();
        let mut table = Table::new(
            format!("A_heavy at n = {n}: rounds, gap, messages vs theory"),
            &[
                "m/n",
                "rounds (mean)",
                "paper rounds (recurrence + log* n)",
                "gap (mean)",
                "gap (max)",
                "ball msgs / m",
            ],
        );
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &shift in &ratio_shifts {
            let m = (n as u64) << shift;
            let s = spec(m, n);
            let outcomes = replicate_outcomes_with(s, 3000, reps, opts, || ThresholdHeavy::new(s));
            let rounds = round_summary(&outcomes);
            let gaps = gap_summary(&outcomes);
            let msgs_per_ball = outcomes
                .iter()
                .map(|o| o.messages.sent_by_balls() as f64 / m as f64)
                .sum::<f64>()
                / outcomes.len() as f64;
            let paper = predicted_rounds_threshold_heavy(m, n) + log_star(n as f64);
            xs.push(log_log2((m / n as u64) as f64));
            ys.push(rounds.mean());
            table.push_row(vec![
                format!("2^{shift}"),
                fnum(rounds.mean()),
                paper.to_string(),
                fnum(gaps.mean()),
                fnum(gaps.max()),
                fnum(msgs_per_ball),
            ]);
        }
        let fit = LinearFit::fit(&xs, &ys);
        let notes = vec![
            format!(
                "Rounds regressed on log₂log₂(m/n): slope {}, R² {} — the paper predicts a \
                 strong positive linear relationship (each threshold round cuts log(m̃/n) to \
                 2/3).",
                fnum(fit.slope),
                fnum(fit.r_squared)
            ),
            "Ball messages per ball must stay O(1): the request counts form a geometric series \
             (Theorem 6 bounds the total by 2m; the light phase adds a bounded tail)."
                .to_string(),
        ];
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "A_heavy achieves maximal load m/n + O(1) within O(log log(m/n) + log* n) \
                    rounds w.h.p., with O(m) total messages (Theorem 1/6).",
            tables: vec![table],
            notes,
            perf: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        crate::experiments::smoke::check(&E03);
    }

    #[test]
    fn gap_stays_constant_while_ratio_explodes() {
        let report = E03.run(Scale::Smoke);
        let t = &report.tables[0];
        for row in t.rows() {
            let gap_max: f64 = row[4].parse().unwrap();
            assert!(gap_max <= 3.0, "m/n = {}: gap {gap_max}", row[0]);
        }
    }
}
