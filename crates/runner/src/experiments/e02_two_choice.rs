//! E2 — sequential two-choice in the heavily loaded regime (\[BCSV06\]).
//!
//! Claim: GREEDY\[2\]'s gap is `log₂ log₂ n + O(1)`, *independent of m* —
//! the sequential benchmark the parallel heavily loaded algorithm
//! matches up to constants. The sweep holds `n` fixed while `m/n` grows
//! by orders of magnitude (gap must stay flat), then grows `n` (gap must
//! creep doubly-logarithmically).

use pba_analysis::predict::two_choice_gap;
use pba_analysis::Summary;
use pba_protocols::seq::GreedyD;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::spec;
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E2 runner.
pub(crate) struct E02;

impl Experiment for E02 {
    fn id(&self) -> &'static str {
        "e02"
    }

    fn title(&self) -> &'static str {
        "Sequential two-choice: gap independent of m"
    }

    fn execute(&self, scale: Scale, _opts: &RunOptions) -> ExperimentReport {
        let (n_fixed, ratios, ns) = match scale {
            Scale::Smoke => (1u32 << 8, vec![4u64, 64], vec![1u32 << 8, 1 << 10]),
            Scale::Default => (1 << 10, vec![4, 64, 1024], vec![1 << 8, 1 << 10, 1 << 12]),
            Scale::Full => (
                1 << 12,
                vec![4, 64, 1024, 16384],
                vec![1 << 8, 1 << 10, 1 << 12, 1 << 14],
            ),
        };
        let reps = scale.reps();
        let run_gap = |m: u64, n: u32| -> Summary {
            let s = spec(m, n);
            Summary::from_u64(replicate(2000, reps, |seed| {
                let loads = GreedyD::two_choice(s).run(seed);
                pba_core::LoadStats::from_loads(&loads).gap() as u64
            }))
        };

        let mut by_m = Table::new(
            format!("Gap vs m at fixed n = {n_fixed} (claim: flat in m)"),
            &["m/n", "gap (mean)", "gap (max)", "paper scale log2log2 n"],
        );
        for &ratio in &ratios {
            let g = run_gap(ratio * n_fixed as u64, n_fixed);
            by_m.push_row(vec![
                ratio.to_string(),
                fnum(g.mean()),
                fnum(g.max()),
                fnum(two_choice_gap(n_fixed)),
            ]);
        }

        let ratio_fixed = *ratios.last().unwrap();
        let mut by_n = Table::new(
            format!("Gap vs n at fixed m/n = {ratio_fixed} (claim: log log growth)"),
            &["n", "gap (mean)", "paper scale log2log2 n"],
        );
        for &n in &ns {
            let g = run_gap(ratio_fixed * n as u64, n);
            by_n.push_row(vec![n.to_string(), fnum(g.mean()), fnum(two_choice_gap(n))]);
        }

        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Sequential GREEDY[2] achieves maximal load m/n + log₂log₂ n + O(1) w.h.p., \
                    independent of m (Berenbrink, Czumaj, Steger, Vöcking 2006).",
            tables: vec![by_m, by_n],
            notes: vec![
                "Flatness in m is the headline: the spread of gap means across four orders of \
                 magnitude of m should be ≤ ~1."
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
        crate::experiments::smoke::check(&E02);
    }

    #[test]
    fn gap_is_flat_in_m() {
        let report = E02.run(Scale::Smoke);
        let t = &report.tables[0];
        let means: Vec<f64> = t.rows().iter().map(|r| r[1].parse().unwrap()).collect();
        let spread = means.iter().cloned().fold(f64::MIN, f64::max)
            - means.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread <= 2.0, "gap means {means:?} not flat");
    }
}
