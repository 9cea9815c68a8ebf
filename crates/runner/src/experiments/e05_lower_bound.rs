//! E5 — the Theorem 2/7 lower bound for fixed-capacity threshold
//! algorithms: every round rejects `Ω(√(M·n)/t)` balls, so the
//! remaining-ball sequence can shrink at most quadratically-in-the-log
//! (`M_{i+1} ≳ √(M_i·n)/t`) and the protocol needs
//! `Ω(min{log log(m/n), …})` rounds.

use pba_analysis::predict::lower_bound_remaining_sequence;
use pba_protocols::FixedThreshold;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::spec;
use crate::table::{fnum, Table};

/// E5 runner.
pub(crate) struct E05;

impl Experiment for E05 {
    fn id(&self) -> &'static str {
        "e05"
    }

    fn title(&self) -> &'static str {
        "Theorem 2/7: rejected balls per round under fixed capacities"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, shift) = match scale {
            Scale::Smoke => (1u32 << 8, 8u32),
            Scale::Default => (1 << 10, 12),
            Scale::Full => (1 << 12, 14),
        };
        let m = (n as u64) << shift;
        let s = spec(m, n);
        let out = pba_core::Simulator::new(s, opts.config(5000))
            .run(FixedThreshold::new(s, 1))
            .unwrap();
        let measured = out.trace.as_ref().unwrap().remaining_sequence();
        let predicted = lower_bound_remaining_sequence(m, n, 1.0);

        let mut table = Table::new(
            format!("Remaining balls per round: measured vs Ω(√(M·n)/t), m/n = 2^{shift}"),
            &[
                "round",
                "measured M_i",
                "theory floor √(M·n)/t",
                "measured/floor",
            ],
        );
        let rows = measured.len().min(predicted.len());
        for i in 0..rows {
            let ratio = if predicted[i] > 0.0 {
                measured[i] as f64 / predicted[i]
            } else {
                f64::NAN
            };
            table.push_row(vec![
                i.to_string(),
                measured[i].to_string(),
                fnum(predicted[i]),
                if ratio.is_nan() {
                    "-".into()
                } else {
                    fnum(ratio)
                },
            ]);
        }
        let floor_rounds = predicted.len() - 1;
        let notes = vec![
            format!(
                "The theory floor needs {} rounds to reach O(n) remaining; the measured run \
                 used {} rounds total (the tail below O(n) balls is outside the theorem's \
                 regime). Theorem 2 is a *lower* bound: measured/floor must stay ≥ ~1 while \
                 M_i ≫ n.",
                floor_rounds, out.rounds
            ),
            "Compare with E3: A_heavy's rising thresholds hit the same √-barrier per round, \
             which is why its round count is Θ(log log(m/n)) and not O(1)."
                .to_string(),
        ];
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Any uniform threshold algorithm with total capacity m + O(n) leaves \
                    Ω(√(M·n)/t) balls unallocated per round (t = Θ(min{log n, log(M/n)})), \
                    forcing Ω(log log(m/n)) rounds (Theorems 2 and 7).",
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
        crate::experiments::smoke::check(&E05);
    }

    #[test]
    fn measured_rejections_respect_theory_floor() {
        let report = E05.run(Scale::Smoke);
        let t = &report.tables[0];
        // While M_i ≫ n (first two transitions), the measured remainder
        // must be at least a constant fraction of the theory floor.
        for row in t.rows().iter().skip(1).take(2) {
            let ratio: f64 = match row[3].parse() {
                Ok(v) => v,
                Err(_) => continue,
            };
            assert!(ratio >= 0.5, "round {}: measured/floor = {ratio}", row[0]);
        }
    }
}
