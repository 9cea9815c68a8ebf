//! E10 — message complexity across all protocols on a common instance
//! (Theorem 6's message accounting, plus each comparator's profile).

use pba_core::MessageTracking;
use pba_protocols::{protocol_names, run_by_name};

use crate::experiment::{Experiment, ExperimentReport, RunOptions, Scale};
use crate::experiments::spec;
use crate::table::{fnum, Table};

/// E10 runner.
pub(crate) struct E10;

impl Experiment for E10 {
    fn id(&self) -> &'static str {
        "e10"
    }

    fn title(&self) -> &'static str {
        "Message complexity across protocols"
    }

    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let (n, shift) = match scale {
            Scale::Smoke => (1u32 << 8, 4u32),
            Scale::Default => (1 << 10, 8),
            Scale::Full => (1 << 12, 10),
        };
        let m = (n as u64) << shift;
        let s = spec(m, n);
        let mut table = Table::new(
            format!("Messages on m/n = 2^{shift}, n = {n} (single seeded run each)"),
            &[
                "protocol",
                "rounds",
                "ball msgs / m",
                "max ball sent",
                "max bin recv / (m/n)",
                "gap",
            ],
        );
        let mut notes = Vec::new();
        for &name in protocol_names() {
            if name == "trivial-round-robin" && n > 1 << 9 {
                // Θ(n·m̄) messages; skip at larger sizes to keep runtimes sane.
                notes.push(
                    "trivial-round-robin skipped above n = 512 (Θ(n)-round sweep).".to_string(),
                );
                continue;
            }
            let cfg = opts.config(10_000).with_tracking(MessageTracking::Full);
            let out = run_by_name(name, s, cfg)
                .expect("registered name")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            table.push_row(vec![
                name.to_string(),
                out.rounds.to_string(),
                fnum(out.messages.sent_by_balls() as f64 / m as f64),
                out.max_ball_sent.unwrap_or(0).to_string(),
                fnum(out.max_bin_received().unwrap_or(0) as f64 / s.average_load()),
                out.gap().to_string(),
            ]);
        }
        notes.push(
            "Theorem 6 for threshold-heavy: ball msgs/m is O(1) (a geometric series ≤ ~2-4), \
             the max ball sent is O(log n), and per-bin traffic is a small multiple of m/n."
                .to_string(),
        );
        ExperimentReport {
            id: self.id(),
            title: self.title(),
            claim: "A_heavy uses O(m) messages in total: each ball sends O(1) in expectation \
                    and O(log n) w.h.p.; each bin receives (1+o(1))·m/n + O(log n) (Theorem 6). \
                    Comparators span the spectrum from one-shot (m messages, huge gap) to \
                    n-round sweeps.",
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
        crate::experiments::smoke::check(&E10);
    }

    #[test]
    fn threshold_heavy_messages_are_linear() {
        let report = E10.run(Scale::Smoke);
        let row = report.tables[0]
            .rows()
            .iter()
            .find(|r| r[0] == "threshold-heavy")
            .expect("threshold-heavy row");
        let per_ball: f64 = row[2].parse().unwrap();
        assert!(per_ball <= 6.0, "per-ball messages {per_ball}");
        let max_sent: f64 = row[3].parse().unwrap();
        assert!(max_sent <= 64.0, "max ball sent {max_sent}");
    }
}
