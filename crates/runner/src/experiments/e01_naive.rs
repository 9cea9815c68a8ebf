//! E1 — naive single-choice gap in both regimes.
//!
//! Claim (both papers' baseline): one round of uniform placement yields a
//! gap of `Θ(√((m/n)·ln n))` for `m ≥ n ln n` and `Θ(ln n/ln ln n)` at
//! `m = n`. The table compares the measured gap against the exact
//! first-moment prediction from the binomial marginal.

use pba_analysis::binomial::expected_max_load_single_choice;
use pba_analysis::predict::single_choice_gap;
use pba_protocols::SingleChoice;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{gap_summary, spec};
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E1 runner.
pub(crate) struct E01;

impl Experiment for E01 {
    fn id(&self) -> &'static str {
        "e01"
    }

    fn title(&self) -> &'static str {
        "Single-choice baseline gap"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (ns, ratios): (Vec<u32>, Vec<u64>) = match scale {
            Scale::Smoke => (vec![1 << 8], vec![1, 64]),
            Scale::Default => (vec![1 << 10, 1 << 13], vec![1, 64, 512]),
            Scale::Full => (vec![1 << 10, 1 << 13, 1 << 16], vec![1, 8, 64, 512]),
        };
        let reps = scale.reps();
        let mut table = Table::new(
            "Single-choice gap: measured vs √(2(m/n)ln n) scale and exact binomial estimate",
            &[
                "n",
                "m/n",
                "gap (mean)",
                "gap (max)",
                "asymptotic scale",
                "exact estimate",
            ],
        );
        let mut notes = Vec::new();
        for &n in &ns {
            for &ratio in &ratios {
                let s = spec(ratio * n as u64, n);
                let outcomes = replicate(1000, reps, |seed| {
                    pba_core::Simulator::new(s, opts.config(seed))
                        .run(SingleChoice::new(s))
                        .unwrap()
                });
                let gaps = gap_summary(&outcomes);
                let predicted = single_choice_gap(s.balls(), n);
                let exact = expected_max_load_single_choice(s.balls(), n) - s.average_load();
                table.push_row(vec![
                    n.to_string(),
                    ratio.to_string(),
                    fnum(gaps.mean()),
                    fnum(gaps.max()),
                    fnum(predicted),
                    fnum(exact),
                ]);
            }
        }
        notes.push(
            "The exact estimate (first-moment crossing of n·P[Bin(m,1/n) ≥ k] = 1) should track \
             the measured mean within a few units; the asymptotic scale is the paper's Θ(·) \
             without its constant."
                .to_string(),
        );
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Uniform random placement has maximal load m/n + Θ(√((m/n)·log n)) for m ≥ n \
                    log n, and Θ(log n/log log n) at m = n.",
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
        crate::experiments::smoke::check(&E01);
    }

    #[test]
    fn measured_tracks_exact_estimate() {
        let report = E01.run(Scale::Smoke);
        let t = &report.tables[0];
        // Row with m/n = 64 at n = 256: measured mean vs exact estimate
        // within a factor 2.
        let row = t.rows().iter().find(|r| r[1] == "64").unwrap();
        let measured: f64 = row[2].parse().unwrap();
        let exact: f64 = row[5].parse().unwrap();
        assert!(
            measured > exact * 0.5 && measured < exact * 2.0,
            "{measured} vs {exact}"
        );
    }
}
