//! E16 — churn steady state: with equal arrival and departure rates the
//! batched two-choice gap settles to a bounded steady state instead of
//! drifting with time.

use pba_analysis::Summary;
use pba_stream::{PolicyKind, WorkloadCfg};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{run_stream, StreamRun};
use crate::replicate::replicate;
use crate::table::{fnum, Table};

/// E16 runner.
pub(crate) struct E16;

impl Experiment for E16 {
    fn id(&self) -> &'static str {
        "e16"
    }

    fn title(&self) -> &'static str {
        "Churn steady state: gap under equal arrival/departure rates"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, churn_batches) = match scale {
            Scale::Smoke => (1u32 << 7, 24u64),
            Scale::Default => (1 << 9, 48),
            Scale::Full => (1 << 10, 96),
        };
        let reps = scale.reps();
        let b = 4 * n as u64;
        let warmup = 8u64;
        let run = StreamRun {
            bins: n,
            policy: PolicyKind::BatchedTwoChoice,
            cfg: WorkloadCfg::uniform(b).with_churn(1.0),
            warmup,
            batches: warmup + churn_batches,
            faults: None,
        };
        let records = replicate(16_000, reps, |seed| run_stream(&run, seed, opts));

        // Gap sampled at the end of warmup and at thirds of the churn
        // phase: a steady state shows no drift across the checkpoints.
        let checkpoints: [(String, u64); 4] = [
            ("warmup end".to_string(), warmup - 1),
            ("churn +1/3".to_string(), warmup + churn_batches / 3 - 1),
            ("churn +2/3".to_string(), warmup + 2 * churn_batches / 3 - 1),
            ("churn end".to_string(), warmup + churn_batches - 1),
        ];
        let mut table = Table::new(
            format!(
                "Batched two-choice under churn 1.0: resident {}n balls, b = 4n, n = {n}",
                4 * warmup
            ),
            &["checkpoint", "batch", "gap (mean)", "gap (max)"],
        );
        for (label, at) in &checkpoints {
            let gaps = Summary::from_u64(records.iter().map(|r| r[*at as usize].gap));
            table.push_row(vec![
                label.clone(),
                at.to_string(),
                fnum(gaps.mean()),
                fnum(gaps.max()),
            ]);
        }
        let first: f64 =
            Summary::from_u64(records.iter().map(|r| r[warmup as usize - 1].gap)).mean();
        let last: f64 = Summary::from_u64(records.iter().map(|r| r.last().unwrap().gap)).mean();
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "With departures matching arrivals (churn 1.0) the resident population is \
                    constant and the batched two-choice gap reaches a steady state: it does \
                    not grow with the number of elapsed batches, unlike one-choice whose \
                    deviation accumulates. (Batched-model steady state; cf. Los & Sauerwald's \
                    drift analysis.)",
            tables: vec![table],
            notes: vec![format!(
                "Drift check: gap (mean) moves {first} → {last} across the churn phase; \
                 bounded steady state means no monotone growth with time.",
                first = fnum(first),
                last = fnum(last),
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
        crate::experiments::smoke::check(&E16);
    }

    #[test]
    fn steady_state_does_not_blow_up() {
        let report = E16.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let early: f64 = rows[1][2].parse().unwrap();
        let late: f64 = rows.last().unwrap()[2].parse().unwrap();
        // Steady state: the late gap is within a small factor of the
        // early churn-phase gap (no unbounded drift).
        assert!(
            late <= 3.0 * early.max(2.0),
            "late gap {late} drifted away from early gap {early}"
        );
    }
}
