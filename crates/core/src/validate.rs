//! In-engine invariant checker behind [`crate::RunConfig::with_validation`].
//!
//! When armed, the engine snapshots loads, assignment, and conservation
//! counters at the start of every round and cross-checks the round's
//! outputs at the end:
//!
//! * **Ball conservation** — `committed` balls move from the active set
//!   to `placed`, and `placed + |active| == m` at every round boundary.
//! * **Load accounting** — loads never decrease, and the total load
//!   delta of the round equals `committed × replicas`: a unit ball
//!   contributes exactly one load unit once committed, a k-slot request
//!   ([`crate::protocol::RoundProtocol::replicas`] returning `k`)
//!   contributes exactly `k`.
//! * **Bin-capacity respect** — no bin gains more balls than the grant
//!   phase accepted for it (`accept`, already clamped to the bin's
//!   arrivals by the grant kernel or the delegate contract). Relaxed
//!   for protocols with [`crate::protocol::RoundProtocol::MAY_REDIRECT`],
//!   whose commits legally land on member bins of the granting leader.
//! * **Granted sum** — the record's `granted` equals the sum of the
//!   bins' `accept`. The engine sums it sparsely in the owner tasks,
//!   over the round's hot bins only; this is the dense cross-check.
//! * **Round max** — the record's `max_load` equals the largest load.
//!   The engine takes it from the last round's max and the loads its
//!   commit pass wrote; this is the dense cross-check.
//! * **Monotone commitment** — a ball's assignment, once written, never
//!   changes; every still-active ball is unassigned; and the per-bin
//!   count of newly assigned balls matches the bin's load delta exactly
//!   (for `replicas > 1` the assignment records only the primary bin, so
//!   the check relaxes to "no bin gained fewer units than primaries").
//! * **Fault-redirect legality** — crashed bins gain no balls: the
//!   admission layer must have redrawn or dropped every request
//!   addressed to them. Also relaxed under `MAY_REDIRECT`: the crash
//!   model governs *probe* targets, and a superbin's post-grant
//!   round-robin redirect may legally land on a crashed member bin
//!   (found by the differential fuzzer on asymmetric + crash faults).
//!
//! The checker follows the `NoFaults` zero-cost pattern: `SimState`
//! holds an `Option<ValidatorState>`, and with validation off no
//! snapshot is taken, no scratch is allocated, and no check runs.
//! Violations surface as [`CoreError::InvariantViolation`], carrying the
//! round and a human-readable description.

use crate::error::{CoreError, Result};
use crate::exec::Balls;
use crate::trace::RoundRecord;

/// Per-run snapshot-and-check state (engine-internal; armed via
/// [`crate::RunConfig::with_validation`]).
pub(crate) struct ValidatorState {
    /// Total balls in the spec.
    m: u64,
    /// Loads at the start of the current round.
    loads_before: Vec<u32>,
    /// Assignment at the start of the current round (empty when the run
    /// does not track assignment — the monotone-commitment checks are
    /// then skipped).
    assignment_before: Vec<u32>,
    /// `placed` at the start of the current round.
    placed_before: u64,
    /// Active-set size at the start of the current round.
    active_before: u64,
    /// Scratch: per-bin count of balls newly assigned this round.
    commit_counts: Vec<u32>,
}

/// Shorthand for a violation in round `round`.
fn violation(round: u32, invariant: &'static str, detail: String) -> CoreError {
    CoreError::InvariantViolation {
        round,
        invariant,
        detail,
    }
}

impl ValidatorState {
    pub(crate) fn new(m: u64) -> Self {
        Self {
            m,
            loads_before: Vec::new(),
            assignment_before: Vec::new(),
            placed_before: 0,
            active_before: 0,
            commit_counts: Vec::new(),
        }
    }

    /// Snapshot the pre-round state. Buffers are reused across rounds.
    pub(crate) fn begin_round(
        &mut self,
        loads: &[u32],
        assignment: Option<&[u32]>,
        placed: u64,
        active: u64,
    ) {
        self.loads_before.clear();
        self.loads_before.extend_from_slice(loads);
        self.assignment_before.clear();
        if let Some(a) = assignment {
            self.assignment_before.extend_from_slice(a);
        }
        self.placed_before = placed;
        self.active_before = active;
    }

    /// Cross-check the round's outputs against the pre-round snapshot.
    ///
    /// `accept[i]` is the number of requests bin `i` accepted this round
    /// (never above its arrivals); `crashed` is the run-level crashed-bin
    /// list (empty without faults); `may_redirect` relaxes the per-bin
    /// capacity check for superbin protocols; `replicas` is the number of
    /// load units one committed ball contributes
    /// ([`crate::protocol::RoundProtocol::replicas`]).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_round(
        &mut self,
        record: &RoundRecord,
        may_redirect: bool,
        replicas: u32,
        loads: &[u32],
        assignment: Option<&[u32]>,
        active: Balls<'_>,
        accept: &[u32],
        crashed: &[u32],
        placed: u64,
    ) -> Result<()> {
        let round = record.round;
        let committed = record.committed;

        // --- Ball conservation.
        if placed != self.placed_before + committed {
            return Err(violation(
                round,
                "ball-conservation",
                format!(
                    "placed went {} -> {} but the round committed {committed}",
                    self.placed_before, placed
                ),
            ));
        }
        let active_after = active.len() as u64;
        if self.active_before < committed || active_after != self.active_before - committed {
            return Err(violation(
                round,
                "ball-conservation",
                format!(
                    "active set went {} -> {active_after} but the round committed {committed}",
                    self.active_before
                ),
            ));
        }
        if placed + active_after != self.m {
            return Err(violation(
                round,
                "ball-conservation",
                format!("placed {placed} + active {active_after} != m = {}", self.m),
            ));
        }

        // --- Load accounting + bin capacity + the granted sum + the
        // round max + fault legality (one sweep).
        let mut delta_total = 0u64;
        let mut granted = 0u64;
        let mut max_load = 0u32;
        for (bin, (&after, &before)) in loads.iter().zip(&self.loads_before).enumerate() {
            granted += u64::from(accept[bin]);
            max_load = max_load.max(after);
            if after < before {
                return Err(violation(
                    round,
                    "load-accounting",
                    format!("bin {bin} load decreased {before} -> {after}"),
                ));
            }
            let delta = after - before;
            delta_total += delta as u64;
            if !may_redirect && delta > accept[bin] {
                return Err(violation(
                    round,
                    "bin-capacity",
                    format!(
                        "bin {bin} gained {delta} balls but accepted only {} requests",
                        accept[bin]
                    ),
                ));
            }
        }
        if granted != record.granted {
            return Err(violation(
                round,
                "granted-sum",
                format!(
                    "the record says {} requests were granted, but the bins accepted {granted}",
                    record.granted
                ),
            ));
        }
        if max_load != record.max_load {
            return Err(violation(
                round,
                "max-load",
                format!(
                    "the record says the max load is {}, but the largest load is {max_load}",
                    record.max_load
                ),
            ));
        }
        if delta_total != committed * replicas as u64 {
            return Err(violation(
                round,
                "load-accounting",
                format!(
                    "total load delta {delta_total} != committed {committed} × replicas {replicas}"
                ),
            ));
        }
        if !may_redirect {
            for &bin in crashed {
                let b = bin as usize;
                if loads[b] != self.loads_before[b] {
                    return Err(violation(
                        round,
                        "fault-legality",
                        format!(
                            "crashed bin {bin} gained {} balls this round",
                            loads[b] - self.loads_before[b]
                        ),
                    ));
                }
            }
        }

        // --- Monotone commitment (only when the run tracks assignment).
        if let Some(assignment) = assignment {
            self.commit_counts.clear();
            self.commit_counts.resize(loads.len(), 0);
            let mut newly_assigned = 0u64;
            for (ball, (&now, &was)) in assignment.iter().zip(&self.assignment_before).enumerate() {
                if was != u32::MAX {
                    if now != was {
                        return Err(violation(
                            round,
                            "monotone-commitment",
                            format!("ball {ball} reassigned bin {was} -> {now}"),
                        ));
                    }
                } else if now != u32::MAX {
                    newly_assigned += 1;
                    self.commit_counts[now as usize] += 1;
                }
            }
            if newly_assigned != committed {
                return Err(violation(
                    round,
                    "monotone-commitment",
                    format!(
                        "{newly_assigned} balls newly assigned but the round committed {committed}"
                    ),
                ));
            }
            for (bin, (&fresh, (&after, &before))) in self
                .commit_counts
                .iter()
                .zip(loads.iter().zip(&self.loads_before))
                .enumerate()
            {
                let delta = after - before;
                // With unit balls the primary bin is the only bin: every
                // delta unit is a fresh assignment. A k-slot request puts
                // one replica in its primary bin and the rest elsewhere,
                // so a bin's delta may exceed its primary count — but a
                // primary always carries at least its own unit.
                if (replicas == 1 && fresh != delta) || fresh > delta {
                    return Err(violation(
                        round,
                        "monotone-commitment",
                        format!(
                            "bin {bin}: {fresh} balls newly assigned but load delta is {delta}"
                        ),
                    ));
                }
            }
            for ball in active.iter() {
                if assignment[ball as usize] != u32::MAX {
                    return Err(violation(
                        round,
                        "monotone-commitment",
                        format!(
                            "ball {ball} is still active but already assigned to bin {}",
                            assignment[ball as usize]
                        ),
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of `committed` balls out of `granted` accepted requests,
    /// ending the round at max load `max_load`.
    fn record(round: u32, committed: u64, granted: u64, max_load: u32) -> RoundRecord {
        RoundRecord {
            round,
            granted,
            committed,
            max_load,
            ..RoundRecord::default()
        }
    }

    fn armed(
        m: u64,
        loads: &[u32],
        assignment: &[u32],
        placed: u64,
        active: u64,
    ) -> ValidatorState {
        let mut v = ValidatorState::new(m);
        v.begin_round(loads, Some(assignment), placed, active);
        v
    }

    #[test]
    fn clean_round_passes() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        // Balls 0 and 2 land in bins 0 and 1; balls 1 and 3 stay active.
        v.check_round(
            &record(0, 2, 2, 1),
            false,
            1,
            &[1, 1],
            Some(&[0, u32::MAX, 1, u32::MAX]),
            Balls::Listed(&[1, 3]),
            &[1, 1],
            &[],
            2,
        )
        .unwrap();
    }

    #[test]
    fn granted_sum_off_by_one_is_caught() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        // The clean round above, but the record claims one grant more
        // than the bins' accepts add up to.
        let err = v
            .check_round(
                &record(0, 2, 3, 1),
                false,
                1,
                &[1, 1],
                Some(&[0, u32::MAX, 1, u32::MAX]),
                Balls::Listed(&[1, 3]),
                &[1, 1],
                &[],
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "granted-sum",
                round: 0,
                ..
            }
        ));
    }

    #[test]
    fn max_load_off_by_one_is_caught() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        // The clean round above, but the record claims a max load one
        // above the largest load.
        let err = v
            .check_round(
                &record(0, 2, 2, 2),
                false,
                1,
                &[1, 1],
                Some(&[0, u32::MAX, 1, u32::MAX]),
                Balls::Listed(&[1, 3]),
                &[1, 1],
                &[],
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "max-load",
                round: 0,
                ..
            }
        ));
    }

    #[test]
    fn overfull_bin_is_caught() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        let err = v
            .check_round(
                &record(0, 2, 2, 2),
                false,
                1,
                &[2, 0],
                Some(&[0, u32::MAX, 0, u32::MAX]),
                Balls::Listed(&[1, 3]),
                &[1, 1], // bin 0 accepted one request but gained two balls
                &[],
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "bin-capacity",
                ..
            }
        ));
    }

    #[test]
    fn redirecting_protocols_relax_capacity_but_not_totals() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        // Same shape as above, but the protocol may redirect: the per-bin
        // check is waived while the total-delta check still holds.
        v.check_round(
            &record(0, 2, 2, 2),
            true,
            1,
            &[2, 0],
            Some(&[0, u32::MAX, 0, u32::MAX]),
            Balls::Listed(&[1, 3]),
            &[1, 1],
            &[],
            2,
        )
        .unwrap();
    }

    #[test]
    fn reassignment_is_caught() {
        let mut v = armed(2, &[1, 0], &[0, u32::MAX], 1, 1);
        let err = v
            .check_round(
                &record(3, 1, 1, 1),
                false,
                1,
                &[1, 1],
                Some(&[1, 1]), // ball 0 moved from bin 0 to bin 1
                Balls::Listed(&[]),
                &[0, 1],
                &[],
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "monotone-commitment",
                round: 3,
                ..
            }
        ));
    }

    #[test]
    fn crashed_bin_gaining_a_ball_is_caught() {
        let mut v = armed(2, &[0, 0], &[u32::MAX; 2], 0, 2);
        let err = v
            .check_round(
                &record(1, 1, 1, 1),
                false,
                1,
                &[1, 0],
                Some(&[0, u32::MAX]),
                Balls::Listed(&[1]),
                &[1, 0],
                &[0], // bin 0 is crashed yet gained a ball
                1,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "fault-legality",
                ..
            }
        ));
    }

    #[test]
    fn redirecting_protocols_may_land_on_crashed_members() {
        // The crash model governs probe targets; a superbin's post-grant
        // redirect legally lands on a crashed member bin.
        let mut v = armed(2, &[0, 0], &[u32::MAX; 2], 0, 2);
        v.check_round(
            &record(1, 1, 1, 1),
            true,
            1,
            &[1, 0],
            Some(&[0, u32::MAX]),
            Balls::Listed(&[1]),
            &[1, 0],
            &[0],
            1,
        )
        .unwrap();
    }

    #[test]
    fn k_slot_round_conserves_k_units_per_ball() {
        // One ball commits k = 2 replicas into bins 0 and 2 (primary 0);
        // ball 1 stays active. Total delta is 2 = 1 committed × 2 replicas,
        // and bin 2 legally gains a unit without a fresh primary.
        let mut v = armed(2, &[0, 1, 0], &[u32::MAX; 2], 0, 2);
        v.check_round(
            &record(0, 1, 2, 1),
            false,
            2,
            &[1, 1, 1],
            Some(&[0, u32::MAX]),
            Balls::Listed(&[1]),
            &[1, 0, 1],
            &[],
            1,
        )
        .unwrap();
    }

    #[test]
    fn k_slot_missing_replica_is_caught() {
        // The ball claims k = 2 but only one load unit landed.
        let mut v = armed(2, &[0, 0], &[u32::MAX; 2], 0, 2);
        let err = v
            .check_round(
                &record(0, 1, 1, 1),
                false,
                2,
                &[1, 0],
                Some(&[0, u32::MAX]),
                Balls::Listed(&[1]),
                &[1, 0],
                &[],
                1,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "load-accounting",
                ..
            }
        ));
    }

    #[test]
    fn k_slot_primary_without_a_unit_is_caught() {
        // Bin 1 holds the primary assignment but gained no load unit:
        // even the relaxed k-slot per-bin check must reject that.
        let mut v = armed(2, &[0, 0, 0], &[u32::MAX; 2], 0, 2);
        let err = v
            .check_round(
                &record(0, 1, 2, 1),
                false,
                2,
                &[1, 0, 1],
                Some(&[1, u32::MAX]),
                Balls::Listed(&[1]),
                &[1, 0, 1],
                &[],
                1,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "monotone-commitment",
                ..
            }
        ));
    }

    #[test]
    fn lost_ball_is_caught() {
        let mut v = armed(4, &[0, 0], &[u32::MAX; 4], 0, 4);
        let err = v
            .check_round(
                &record(0, 2, 2, 1),
                false,
                1,
                &[1, 1],
                Some(&[0, u32::MAX, 1, u32::MAX]),
                Balls::Listed(&[1]), // ball 3 vanished: neither assigned nor active
                &[1, 1],
                &[],
                2,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CoreError::InvariantViolation {
                invariant: "ball-conservation",
                ..
            }
        ));
    }
}
