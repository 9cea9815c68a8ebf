//! E7 — Stemann's c-collision protocol at `m = n` (the 1996 paper's
//! primary result): rounds grow like `log log n`, load is capped at `c`,
//! and larger `c` buys fewer rounds.

use pba_analysis::LinearFit;
use pba_core::mathutil::log_log2;
use pba_protocols::Collision;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{round_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E7 runner.
pub(crate) struct E07;

impl Experiment for E07 {
    fn id(&self) -> &'static str {
        "e07"
    }

    fn title(&self) -> &'static str {
        "Stemann collision protocol: log log n rounds, load ≤ c"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (ns, cs): (Vec<u32>, Vec<u32>) = match scale {
            Scale::Smoke => (vec![1 << 8, 1 << 10], vec![2, 3]),
            Scale::Default => (vec![1 << 10, 1 << 13, 1 << 16], vec![2, 3, 4]),
            Scale::Full => (vec![1 << 10, 1 << 13, 1 << 16, 1 << 19], vec![2, 3, 4]),
        };
        let reps = scale.reps();
        let mut table = Table::new(
            "c-collision protocol, d = 2, m = n: rounds vs log₂log₂ n",
            &[
                "n",
                "c",
                "rounds (mean)",
                "rounds (max)",
                "log2log2 n",
                "max load",
            ],
        );
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &n in &ns {
            for &c in &cs {
                let s = spec(n as u64, n);
                let outcomes = replicate_outcomes_with(s, 7000, reps, opts, || {
                    Collision::with_params(s, 2, c)
                });
                let rounds = round_summary(&outcomes);
                let max_load = outcomes.iter().map(|o| o.max_load()).max().unwrap();
                assert!(max_load <= c, "collision bound violated: {max_load} > {c}");
                if c == 2 {
                    xs.push(log_log2(n as f64));
                    ys.push(rounds.mean());
                }
                table.push_row(vec![
                    n.to_string(),
                    c.to_string(),
                    fnum(rounds.mean()),
                    fnum(rounds.max()),
                    fnum(log_log2(n as f64)),
                    max_load.to_string(),
                ]);
            }
        }
        let mut notes = vec![
            "The max-load column is a structural invariant (≤ c by acceptance rule); the \
             reproduced claim is the round count."
                .to_string(),
        ];
        if xs.len() >= 2 {
            let fit = LinearFit::fit(&xs, &ys);
            notes.push(format!(
                "Rounds (c = 2) vs log₂log₂ n: slope {}, R² {} — positive and strongly linear \
                 per [Ste96]; compare against log₂ n growth, which would be ~{}× steeper.",
                fnum(fit.slope),
                fnum(fit.r_squared),
                fnum((*ns.last().unwrap() as f64).log2() / log_log2(*ns.last().unwrap() as f64)),
            ));
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "The c-collision protocol with d = 2 random choices places n balls into n \
                    bins within ≈ log log n rounds w.h.p. with maximal load ≤ c; increasing c \
                    trades load for rounds (Stemann, SPAA 1996).",
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
        crate::experiments::smoke::check(&E07);
    }

    #[test]
    fn rounds_far_below_log_n() {
        let report = E07.run(Scale::Smoke);
        for row in report.tables[0].rows() {
            let n: f64 = row[0].parse().unwrap();
            let rounds: f64 = row[3].parse().unwrap();
            assert!(rounds < n.log2(), "n = {n}: {rounds} rounds ≥ log₂ n");
        }
    }
}
