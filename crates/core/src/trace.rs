//! Per-round run records.
//!
//! Several experiments reproduce *per-round* claims (e.g. Claim 2 of the
//! heavily loaded paper: while `m̃_i ≥ n·polylog(n)`, **no** bin is
//! underloaded; the lower-bound experiment tracks the remaining-ball
//! sequence `M_i`). The engine therefore records a [`RoundRecord`] per
//! round when tracing is enabled.

use crate::messages::MessageStats;

/// What happened in one synchronous round.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: u32,
    /// Unallocated balls at the beginning of the round.
    pub active_before: u64,
    /// Ball → bin requests sent this round.
    pub requests: u64,
    /// Request slots granted by bins (`Σ_b min(capacity_b, arrivals_b)`).
    pub granted: u64,
    /// Balls that committed to a bin this round.
    pub committed: u64,
    /// Grants that went unused because the ball committed elsewhere
    /// (only possible for degree ≥ 2 protocols).
    pub wasted_grants: u64,
    /// Bins that received fewer requests than they *wanted* to accept
    /// (`arrivals < want`). The "underloaded bins" of Claims 1–3.
    pub underloaded_bins: u32,
    /// Total unmet demand `Σ_b max(0, want_b − arrivals_b)`.
    pub unfilled_want: u64,
    /// Maximum bin load at the end of the round.
    pub max_load: u32,
    /// Message totals for this round.
    pub messages: MessageStats,
}

/// The full per-round history of a run.
#[derive(Debug, Clone, Default)]
pub struct RunTrace {
    records: Vec<RoundRecord>,
}

impl RunTrace {
    /// Empty trace.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Append a round record.
    pub(crate) fn push(&mut self, record: RoundRecord) {
        self.records.push(record);
    }

    /// All round records, in order.
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// Number of rounds recorded.
    pub fn rounds(&self) -> u32 {
        self.records.len() as u32
    }

    /// The sequence of unallocated-ball counts `M_0, M_1, …` (before each
    /// round), plus the final remainder after the last round.
    pub fn remaining_sequence(&self) -> Vec<u64> {
        let mut seq: Vec<u64> = self.records.iter().map(|r| r.active_before).collect();
        if let Some(last) = self.records.last() {
            seq.push(last.active_before - last.committed);
        }
        seq
    }

    /// First round (if any) in which some bin was underloaded — the point
    /// where the heavily loaded paper's Claim 2 regime ends.
    pub fn first_underloaded_round(&self) -> Option<u32> {
        self.records
            .iter()
            .find(|r| r.underloaded_bins > 0)
            .map(|r| r.round)
    }

    /// Total messages across all rounds.
    pub fn total_messages(&self) -> MessageStats {
        let mut total = MessageStats::default();
        for r in &self.records {
            total.add(r.messages);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: u32, active: u64, committed: u64, underloaded: u32) -> RoundRecord {
        RoundRecord {
            round,
            active_before: active,
            committed,
            underloaded_bins: underloaded,
            messages: MessageStats {
                requests: active,
                responses: active,
                commits: committed,
            },
            ..Default::default()
        }
    }

    #[test]
    fn remaining_sequence_includes_final_remainder() {
        let mut t = RunTrace::new();
        t.push(rec(0, 100, 60, 0));
        t.push(rec(1, 40, 40, 1));
        assert_eq!(t.remaining_sequence(), vec![100, 40, 0]);
        assert_eq!(t.rounds(), 2);
    }

    #[test]
    fn first_underloaded_round_found() {
        let mut t = RunTrace::new();
        t.push(rec(0, 10, 5, 0));
        t.push(rec(1, 5, 3, 2));
        t.push(rec(2, 2, 2, 3));
        assert_eq!(t.first_underloaded_round(), Some(1));
    }

    #[test]
    fn no_underloaded_rounds() {
        let mut t = RunTrace::new();
        t.push(rec(0, 10, 10, 0));
        assert_eq!(t.first_underloaded_round(), None);
    }

    #[test]
    fn message_totals_accumulate() {
        let mut t = RunTrace::new();
        t.push(rec(0, 100, 60, 0));
        t.push(rec(1, 40, 40, 0));
        let m = t.total_messages();
        assert_eq!(m.requests, 140);
        assert_eq!(m.commits, 100);
    }

    #[test]
    fn empty_trace() {
        let t = RunTrace::new();
        assert!(t.remaining_sequence().is_empty());
        assert_eq!(t.rounds(), 0);
        assert_eq!(t.total_messages().total(), 0);
    }
}
