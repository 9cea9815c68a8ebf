//! E14 — the Preliminaries, verified on simulator output.
//!
//! The papers' proofs stand on two probabilistic pillars:
//!
//! 1. **Berry–Esseen (Theorem 4, used in Claim 5):** a bin's load after a
//!    uniform round is `Bin(M, 1/n)`, whose normalized CDF is within
//!    `c·ρ/(σ³√M)` of the standard normal — this is what guarantees the
//!    `Ω(1)` probability of a `μ + 2√μ` overload that drives the lower
//!    bound.
//! 2. **Negative association (Dubhashi–Ranjan, used in Claim 3):**
//!    per-bin occupancy indicators are negatively associated, licensing
//!    Chernoff bounds on sums of per-bin indicator variables.
//!
//! We measure both directly on engine output: the KS distance of
//! standardized per-bin loads against Φ (compared to the Berry–Esseen
//! bound plus the lattice discreteness floor), and the pairwise
//! indicator covariance check across replications.

use pba_analysis::kolmogorov::{ks_distance_to_normal, lattice_ks_floor};
use pba_analysis::negassoc::check_indicator_negassoc;
use pba_analysis::normal::berry_esseen_bernoulli;
use pba_protocols::SingleChoice;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::spec;
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E14 runner.
pub(crate) struct E14;

impl Experiment for E14 {
    fn id(&self) -> &'static str {
        "e14"
    }

    fn title(&self) -> &'static str {
        "Preliminaries: Berry-Esseen and negative association on engine output"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, shifts, reps): (u32, Vec<u32>, usize) = match scale {
            Scale::Smoke => (1 << 8, vec![4], 40),
            Scale::Default => (1 << 9, vec![2, 6, 10], 60),
            Scale::Full => (1 << 10, vec![2, 6, 10, 13], 100),
        };

        let mut be_table = Table::new(
            format!("Berry-Esseen: KS(standardized per-bin loads, Φ) at n = {n}"),
            &[
                "m/n",
                "KS measured",
                "BE bound",
                "lattice floor",
                "within bound+floor",
            ],
        );
        let mut na_table = Table::new(
            format!("Negative association of occupancy indicators, n = {n}"),
            &["m/n", "pairs×thresholds", "violations", "worst covariance"],
        );

        for &shift in &shifts {
            let m = (n as u64) << shift;
            let s = spec(m, n);
            // Replicated single-choice rounds: each yields an exchangeable
            // sample of n (negatively associated) Bin(m, 1/n) loads.
            let runs: Vec<Vec<u32>> = replicate(14_000, reps, |seed| {
                pba_core::Simulator::new(s, opts.config(seed))
                    .run(SingleChoice::new(s))
                    .unwrap()
                    .loads
            });

            // --- Berry–Esseen: pool all per-bin loads.
            let p = 1.0 / n as f64;
            let mean = m as f64 * p;
            let stddev = (m as f64 * p * (1.0 - p)).sqrt();
            let pooled: Vec<f64> = runs
                .iter()
                .flat_map(|l| l.iter().map(|&x| x as f64))
                .collect();
            let ks = ks_distance_to_normal(&pooled, mean, stddev);
            let bound = berry_esseen_bernoulli(p, m);
            let floor = lattice_ks_floor(stddev);
            be_table.push_row(vec![
                format!("2^{shift}"),
                fnum(ks),
                fnum(bound),
                fnum(floor),
                (ks <= bound + floor + 0.02).to_string(),
            ]);

            // --- Negative association: indicator covariances across seeds.
            let pairs = [(0usize, 1usize), (2, 7), (3, n as usize - 1)];
            let thresholds = [
                mean as u32,
                (mean + stddev) as u32,
                (mean + 2.0 * stddev) as u32,
            ];
            // Tolerance: a few standard errors of a covariance estimate
            // from `reps` replications of Bernoulli-ish indicators.
            let tolerance = 3.0 / (reps as f64).sqrt() * 0.25;
            let report = check_indicator_negassoc(&runs, &pairs, &thresholds, tolerance);
            na_table.push_row(vec![
                format!("2^{shift}"),
                report.checks.to_string(),
                report.violations.to_string(),
                fnum(report.worst_covariance),
            ]);
        }

        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Theorem 4 (Berry-Esseen): the standardized per-bin load CDF is within \
                    c·ρ/(σ³√M) of the standard normal. Dubhashi-Ranjan: occupancy counts are \
                    negatively associated, so threshold indicators are pairwise non-positively \
                    correlated — the two pillars under Claims 3 and 5.",
            tables: vec![be_table, na_table],
            notes: vec![
                "The lattice floor (≈ pmf(mode)/2) is added to the BE bound because KS \
                 distance to a continuous CDF cannot drop below the discreteness of the \
                 integer-valued load."
                    .to_string(),
                "Negative-association violations should be 0 up to the covariance estimator's \
                 sampling noise."
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
        crate::experiments::smoke::check(&E14);
    }

    #[test]
    fn berry_esseen_holds_within_floor() {
        let report = E14.run(Scale::Smoke);
        for row in report.tables[0].rows() {
            assert_eq!(
                row[4], "true",
                "KS {} exceeded bound {} + floor {}",
                row[1], row[2], row[3]
            );
        }
    }

    #[test]
    fn negative_association_holds() {
        let report = E14.run(Scale::Smoke);
        for row in report.tables[1].rows() {
            let violations: u32 = row[2].parse().unwrap();
            assert_eq!(violations, 0, "m/n = {}: {} violations", row[0], violations);
        }
    }
}
