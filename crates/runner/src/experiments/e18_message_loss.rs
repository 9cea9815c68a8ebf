//! E18 — load under message loss: parallel two-choice with per-request
//! drop probability `p`. A ball whose requests are all lost retries over
//! fresh choices with capped exponential backoff, so completion stretches
//! by roughly the `1/(1−p)` delivery factor while the final allocation
//! quality is preserved — the retries resample the same two-choice
//! distribution the lossless protocol draws from.

use pba_core::FaultPlan;
use pba_protocols::ParallelTwoChoice;

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{gap_summary, round_summary, spec};
use crate::table::{fnum, Table};

/// E18 runner.
pub(crate) struct E18;

impl Experiment for E18 {
    fn id(&self) -> &'static str {
        "e18"
    }

    fn title(&self) -> &'static str {
        "Fault injection: load under message loss"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let n: u32 = match scale {
            Scale::Smoke => 1 << 8,
            Scale::Default => 1 << 10,
            Scale::Full => 1 << 12,
        };
        let s = spec(n as u64, n);
        let reps = scale.reps();
        let drops = [0.0f64, 0.1, 0.3, 0.5];
        let mut table = Table::new(
            format!("Parallel two-choice (slack 2) under request drops, m = n = {n}"),
            &[
                "drop p",
                "paper",
                "rounds (mean)",
                "gap (mean)",
                "gap (max)",
                "dropped/ball",
                "unallocated",
            ],
        );
        for p in drops {
            let outcomes = replicate_outcomes_with_faults(s, p, reps, opts);
            let gaps = gap_summary(&outcomes);
            let rounds = round_summary(&outcomes);
            let dropped: u64 = outcomes
                .iter()
                .filter_map(|o| o.faults.as_ref().map(|f| f.dropped_requests))
                .sum();
            let unallocated: u64 = outcomes.iter().map(|o| o.unallocated).sum();
            table.push_row(vec![
                format!("{p}"),
                format!("∝ {:.2}·T", 1.0 / (1.0 - p)),
                fnum(rounds.mean()),
                fnum(gaps.mean()),
                fnum(gaps.max()),
                fnum(dropped as f64 / (reps as u64 * s.balls()) as f64),
                unallocated.to_string(),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Dropping each ball→bin request independently with probability p only \
                    rescales the synchronous protocol's time axis: every surviving round \
                    delivers a (1−p) thinned sample of the same choice distribution, and \
                    balls losing all requests retry fresh choices under capped exponential \
                    backoff. Rounds-to-completion grow like 1/(1−p) (plus backoff slack) \
                    while the final gap matches the lossless run's up to noise — the \
                    allocation guarantee degrades gracefully, never catastrophically.",
            tables: vec![table],
            notes: vec![
                "Shape: rounds (mean) is monotone nondecreasing in p; every row places all \
                 balls (unallocated = 0); the p = 0 row injects nothing (dropped/ball = 0)."
                    .to_string(),
            ],
            perf: None,
        }
    }
}

/// Replicated parallel-two-choice runs with a drop-only fault plan armed
/// (p = 0 runs the pristine no-fault path).
fn replicate_outcomes_with_faults(
    s: pba_core::ProblemSpec,
    p: f64,
    reps: usize,
    opts: &RunOptions,
) -> Vec<pba_core::RunOutcome> {
    use pba_core::Simulator;
    crate::replicate::replicate(18_000, reps, |seed| {
        let mut cfg = opts.config(seed);
        if p > 0.0 {
            // The fault seed tracks the run seed so replications see
            // independent chaos, deterministically.
            cfg = cfg.with_faults(FaultPlan::new(seed ^ 0xE18).with_drop_prob(p));
        }
        Simulator::new(s, cfg)
            .run(ParallelTwoChoice::new(s, 2))
            .unwrap_or_else(|e| panic!("seed {seed} drop {p}: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        crate::experiments::smoke::check(&E18);
    }

    #[test]
    fn loss_slows_completion_but_places_everything() {
        let report = E18.run(Scale::Smoke);
        let rows = report.tables[0].rows();
        let base: f64 = rows[0][2].parse().unwrap();
        let worst: f64 = rows.last().unwrap()[2].parse().unwrap();
        assert!(worst >= base, "p=0.5 rounds {worst} < lossless {base}");
        for row in rows {
            assert_eq!(row[6], "0", "unallocated balls at drop {}", row[0]);
        }
        // The lossless row must ride the pristine path: nothing dropped.
        assert_eq!(rows[0][5].parse::<f64>().unwrap(), 0.0);
    }
}
