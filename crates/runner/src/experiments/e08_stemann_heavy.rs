//! E8 — the heavily loaded collision protocol with load `O(m/n)`
//! (\[Ste96\] per the successor paper's footnote 2), and the comparison
//! showing why the successor's `m/n + O(1)` is the interesting
//! improvement.

use pba_protocols::{StemannHeavy, ThresholdHeavy};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::{round_summary, spec};
use crate::replicate::replicate_outcomes_with;
use crate::table::{fnum, Table};

/// E8 runner.
pub(crate) struct E08;

impl Experiment for E08 {
    fn id(&self) -> &'static str {
        "e08"
    }

    fn title(&self) -> &'static str {
        "Stemann heavy: load O(m/n) vs threshold-heavy's m/n + O(1)"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, shifts): (u32, Vec<u32>) = match scale {
            Scale::Smoke => (1 << 8, vec![3, 6]),
            Scale::Default => (1 << 10, vec![3, 6, 9, 12]),
            Scale::Full => (1 << 12, vec![3, 6, 9, 12, 14]),
        };
        let reps = scale.reps();
        let mut table = Table::new(
            format!("Load and rounds at n = {n}: collision-style O(m/n) vs A_heavy"),
            &[
                "m/n",
                "stemann max/avg",
                "stemann rounds",
                "a_heavy gap (max)",
                "a_heavy rounds",
            ],
        );
        for &shift in &shifts {
            let m = (n as u64) << shift;
            let s = spec(m, n);
            let stemann = replicate_outcomes_with(s, 8000, reps, opts, || StemannHeavy::new(s));
            let heavy = replicate_outcomes_with(s, 8000, reps, opts, || ThresholdHeavy::new(s));
            let ratio = stemann
                .iter()
                .map(|o| o.max_load() as f64 / s.average_load())
                .fold(f64::MIN, f64::max);
            let heavy_gap = heavy.iter().map(|o| o.gap()).max().unwrap();
            table.push_row(vec![
                format!("2^{shift}"),
                fnum(ratio),
                fnum(round_summary(&stemann).mean()),
                heavy_gap.to_string(),
                fnum(round_summary(&heavy).mean()),
            ]);
        }
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "Stemann's heavily loaded protocols guarantee load O(m/n) only; the \
                    max/avg column stays bounded by a constant > 1 while A_heavy's absolute \
                    gap stays O(1) — an excess of Θ(m/n) vs Θ(1).",
            tables: vec![table],
            notes: vec![
                "Shape check: 'stemann max/avg' is flat-ish in m/n (that is what O(m/n) means) \
                 while its absolute excess grows linearly; A_heavy's gap column is absolutely \
                 constant."
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
        crate::experiments::smoke::check(&E08);
    }

    #[test]
    fn heavy_gap_beats_stemann_excess() {
        let report = E08.run(Scale::Smoke);
        let last = report.tables[0].rows().last().unwrap().clone();
        // m/n = 64: Stemann's excess is (max/avg − 1)·64; A_heavy's is ≤ 3.
        let stemann_ratio: f64 = last[1].parse().unwrap();
        let heavy_gap: f64 = last[3].parse().unwrap();
        let stemann_excess = (stemann_ratio - 1.0) * 64.0;
        assert!(
            heavy_gap < stemann_excess,
            "A_heavy gap {heavy_gap} should beat Stemann excess {stemann_excess}"
        );
    }
}
