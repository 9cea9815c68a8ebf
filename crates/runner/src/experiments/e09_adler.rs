//! E9 — \[ACMR98\] r-round non-adaptive parallel GREEDY: the load falls
//! with the number of rounds like `(log n/log log n)^{1/r}`-flavoured
//! trade-offs, the prior art both papers improve on.

use pba_analysis::predict::adler_load_scale;
use pba_protocols::AdlerGreedy;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::spec;
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E9 runner.
pub(crate) struct E09;

impl Experiment for E09 {
    fn id(&self) -> &'static str {
        "e09"
    }

    fn title(&self) -> &'static str {
        "ACMR98 r-round GREEDY: load decreasing in r"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, rounds): (u32, Vec<u32>) = match scale {
            Scale::Smoke => (1 << 10, vec![1, 2, 3]),
            Scale::Default => (1 << 14, vec![1, 2, 3, 4, 6]),
            Scale::Full => (1 << 17, vec![1, 2, 3, 4, 6, 8]),
        };
        let reps = scale.reps();
        let s = spec(n as u64, n);
        let mut table = Table::new(
            format!("r-round non-adaptive GREEDY[2] at m = n = {n}"),
            &[
                "r",
                "max load (mean)",
                "max load (max)",
                "paper scale (log n/loglog n)^{1/r}",
            ],
        );
        for &r in &rounds {
            let outcomes =
                replicate_outcomes_with(s, 9000, reps, opts, || AdlerGreedy::new(s, 2, r));
            let mean =
                outcomes.iter().map(|o| o.max_load() as f64).sum::<f64>() / outcomes.len() as f64;
            let max = outcomes.iter().map(|o| o.max_load()).max().unwrap();
            table.push_row(vec![
                r.to_string(),
                fnum(mean),
                max.to_string(),
                fnum(adler_load_scale(n, r)),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Symmetric non-adaptive algorithms achieve maximal load \
                    Θ((log n/log log n)^{1/r})-style trade-offs in r rounds and no better \
                    (Adler, Chakrabarti, Mitzenmacher, Rasmussen 1998); more rounds of \
                    communication buy strictly better balance.",
            tables: vec![table],
            notes: vec![
                "The reproduced shape: the measured max load decreases monotonically in r and \
                 flattens (diminishing returns), mirroring the r-th-root scale."
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
        crate::experiments::smoke::check(&E09);
    }

    #[test]
    fn load_decreases_in_rounds() {
        let report = E09.run(Scale::Smoke);
        let means: Vec<f64> = report.tables[0]
            .rows()
            .iter()
            .map(|r| r[1].parse().unwrap())
            .collect();
        assert!(means[0] >= means[1], "{means:?}");
        assert!(means[1] + 0.5 >= means[2], "{means:?}");
    }
}
