//! Message accounting.
//!
//! The papers charge three kinds of messages, and so do we:
//!
//! * **requests** — ball → bin allocation requests (one per contacted bin
//!   per round);
//! * **responses** — bin → ball accept/reject replies (bins respond to
//!   every ball that contacted them);
//! * **commits** — ball → bin decision notifications (a ball that received
//!   accept messages informs each accepting bin of its choice).
//!
//! Totals are always tracked. Per-bin received counts are cheap (`O(n)`
//! memory) and tracked by default; per-ball sent counts cost `O(m)` memory
//! and are opt-in via [`MessageTracking::Full`].
//!
//! The engine updates the per-bin counts in its bin owner tasks, right
//! after each range's grants, and only for the round's hot bins (those
//! with arrivals): a bin that received no request accepted none and
//! received no commit notice. The per-ball counts are updated in the
//! resolve pass, by the chunk that owns the ball.

/// Granularity of message accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MessageTracking {
    /// Only workspace-wide totals.
    Totals,
    /// Totals plus per-bin received counts (default).
    #[default]
    PerBin,
    /// Totals, per-bin received, and per-ball sent counts (`O(m)` memory).
    Full,
}

/// Aggregate message totals for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Ball → bin allocation requests.
    pub requests: u64,
    /// Bin → ball responses.
    pub responses: u64,
    /// Ball → bin commit notifications.
    pub commits: u64,
}

impl MessageStats {
    /// All messages, in either direction.
    #[inline]
    pub fn total(&self) -> u64 {
        self.requests + self.responses + self.commits
    }

    /// Messages *sent by balls* (requests + commits) — the quantity the
    /// heavily-loaded paper bounds by `2m`-style geometric series.
    #[inline]
    pub fn sent_by_balls(&self) -> u64 {
        self.requests + self.commits
    }

    /// Accumulate another round's worth of counts.
    #[inline]
    pub(crate) fn add(&mut self, other: MessageStats) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.commits += other.commits;
    }
}

/// Per-entity message counters, allocated according to a
/// [`MessageTracking`] level.
///
/// `per_bin_received` holds the per-bin receive counts that
/// Lenzen–Wattenhofer bound: each round adds a bin's arrivals plus the
/// commit notices of the balls it accepted. It starts all zero and the
/// run's first round stores into it rather than adding, so its pages are
/// first touched by a write; bins that never receive a request are never
/// written.
#[derive(Debug, Clone)]
pub(crate) struct MessageLedger {
    /// Messages received by each bin (requests + commit notifications).
    pub(crate) per_bin_received: Option<Vec<u64>>,
    /// Messages sent by each ball (requests + commit notifications).
    pub(crate) per_ball_sent: Option<Vec<u32>>,
}

impl MessageLedger {
    /// Allocate counters for `n` bins and `m` balls at the given level.
    pub(crate) fn new(tracking: MessageTracking, n: u32, m: u64) -> Self {
        let per_bin_received = match tracking {
            MessageTracking::Totals => None,
            _ => Some(vec![0u64; n as usize]),
        };
        let per_ball_sent = match tracking {
            MessageTracking::Full => Some(vec![0u32; m as usize]),
            _ => None,
        };
        Self {
            per_bin_received,
            per_ball_sent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let mut s = MessageStats::default();
        s.add(MessageStats {
            requests: 10,
            responses: 10,
            commits: 4,
        });
        s.add(MessageStats {
            requests: 5,
            responses: 5,
            commits: 2,
        });
        assert_eq!(s.requests, 15);
        assert_eq!(s.total(), 36);
        assert_eq!(s.sent_by_balls(), 21);
    }

    #[test]
    fn ledger_allocation_matches_tracking() {
        let t = MessageLedger::new(MessageTracking::Totals, 8, 100);
        assert!(t.per_bin_received.is_none());
        assert!(t.per_ball_sent.is_none());

        let p = MessageLedger::new(MessageTracking::PerBin, 8, 100);
        assert_eq!(p.per_bin_received.as_ref().unwrap().len(), 8);
        assert!(p.per_ball_sent.is_none());

        let f = MessageLedger::new(MessageTracking::Full, 8, 100);
        assert_eq!(f.per_ball_sent.as_ref().unwrap().len(), 100);
    }
}
