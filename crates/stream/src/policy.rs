//! Pluggable placement policies for the streaming allocator.
//!
//! A [`PlacementPolicy`] decides one arriving ball's bin from a load view
//! and the ball's private random stream. Which load view it sees is the
//! policy's defining choice:
//!
//! * [`OneChoice`] — one uniform probe, loads ignored. The baseline with
//!   gap `Θ(√((m/n)·log n))`.
//! * [`TwoChoice`] — two probes compared against **live** loads: the
//!   classic sequential Greedy\[2\] (batch size effectively 1). Inherently
//!   serial, so the allocator ingests it on one lane.
//! * [`BatchedTwoChoice`] — two probes compared against the **batch-start
//!   snapshot** (the stale in-batch view of the batched model
//!   \[BCE+12; Los–Sauerwald\]). Decisions are snapshot-pure, so batches
//!   ingest in parallel and the gap grows with the batch size `b` — the
//!   trade-off E15 measures.
//! * [`Threshold`] — probes accepted under a rising threshold driven by
//!   the heavy-case [`UndershootSchedule`] of `pba-protocols`, refreshed
//!   each batch from the projected post-batch average load.
//!
//! Every policy decides from `(load view, per-ball RNG)` only — no
//! ambient state — which is what makes placements independent of lane
//! scheduling (see the crate docs on determinism).

use pba_core::rng::{Rand64, SplitMix64};
use pba_core::wire::{WireReader, WireWriter};
use pba_protocols::UndershootSchedule;

/// A streaming placement policy.
///
/// The allocator calls [`begin_batch`](Self::begin_batch) once per batch,
/// then [`place`](Self::place) once per arrival with that arrival's
/// deterministic random stream and the policy's load view (snapshot or
/// live, per [`needs_live_loads`](Self::needs_live_loads)): the per-bin
/// loads, one slot per bin.
pub trait PlacementPolicy: Send + Sync {
    /// Stable policy name (metrics, CLI, tables).
    fn name(&self) -> &'static str;

    /// True when decisions must see in-batch placements (live loads).
    /// Such policies are inherently sequential and ingest on one lane.
    fn needs_live_loads(&self) -> bool {
        false
    }

    /// Per-batch setup. `arrival_weight` is the batch's total incoming
    /// weight; `projected_avg` the post-batch average load `total/n`.
    fn begin_batch(&mut self, batch: u64, arrival_weight: u64, projected_avg: f64) {
        let _ = (batch, arrival_weight, projected_avg);
    }

    /// Choose a bin for one arrival; `loads.len()` is the bin count.
    fn place(&self, loads: &[u64], rng: &mut SplitMix64) -> u32;

    /// Serialize the policy's internal mutable state for an allocator
    /// snapshot. Stateless policies return empty bytes (the default);
    /// stateful ones must capture everything
    /// [`begin_batch`](Self::begin_batch) evolves, bit-exactly, so a
    /// restored session continues placing identically.
    fn state_snapshot(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Restore internal state captured by
    /// [`state_snapshot`](Self::state_snapshot) on a freshly built policy
    /// of the same kind.
    fn state_restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "policy '{}' carries no state, but the snapshot has {} state byte(s)",
                self.name(),
                bytes.len()
            ))
        }
    }
}

/// Pick the lesser-loaded of two probes; ties go to the first probe (the
/// deterministic tie-break shared with the one-shot batched protocol).
#[inline]
fn lesser_loaded(loads: &[u64], a: u32, b: u32) -> u32 {
    if loads[b as usize] < loads[a as usize] {
        b
    } else {
        a
    }
}

/// One uniform probe; loads ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneChoice;

impl PlacementPolicy for OneChoice {
    fn name(&self) -> &'static str {
        "one-choice"
    }

    fn place(&self, loads: &[u64], rng: &mut SplitMix64) -> u32 {
        rng.below(loads.len() as u32)
    }
}

/// Two probes against live loads: sequential Greedy\[2\].
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoChoice;

impl PlacementPolicy for TwoChoice {
    fn name(&self) -> &'static str {
        "two-choice"
    }

    fn needs_live_loads(&self) -> bool {
        true
    }

    fn place(&self, loads: &[u64], rng: &mut SplitMix64) -> u32 {
        let n = loads.len() as u32;
        let a = rng.below(n);
        let b = rng.below(n);
        lesser_loaded(loads, a, b)
    }
}

/// Two probes against the batch-start snapshot (stale in-batch view).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchedTwoChoice;

impl PlacementPolicy for BatchedTwoChoice {
    fn name(&self) -> &'static str {
        "batched-two-choice"
    }

    fn place(&self, loads: &[u64], rng: &mut SplitMix64) -> u32 {
        let n = loads.len() as u32;
        let a = rng.below(n);
        let b = rng.below(n);
        lesser_loaded(loads, a, b)
    }
}

/// Threshold acceptance driven by the heavy-case undershoot schedule.
///
/// Each batch refreshes the cumulative threshold
/// `T = ⌊projected_avg − (m̃/n)^γ⌋` from the [`UndershootSchedule`]
/// recurrence (`γ = 2/3`), restarting the contraction from the arriving
/// mass whenever it has run to exhaustion — so a steady stream of batches
/// keeps tightening toward the running average, exactly the mechanism
/// that gives `A_heavy` its `m/n + O(1)` one-shot bound. A probe under
/// the threshold is taken outright (first probe preferred); if both
/// probes are at or over it, the lesser-loaded probe wins.
#[derive(Debug, Clone)]
pub struct Threshold {
    schedule: UndershootSchedule,
    threshold: u64,
}

impl Threshold {
    /// Paper parameters (`γ = 2/3`) for `bins` bins.
    pub(crate) fn new(bins: u32) -> Self {
        Self {
            // Zero starting mass: exhausted, so the first batch restarts
            // the contraction from its own arriving weight.
            schedule: UndershootSchedule::new(bins, 0.0),
            threshold: 0,
        }
    }

    /// The cumulative threshold currently in force (after `begin_batch`).
    #[cfg(test)]
    pub(crate) fn current_threshold(&self) -> u64 {
        self.threshold
    }
}

impl PlacementPolicy for Threshold {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn begin_batch(&mut self, _batch: u64, arrival_weight: u64, projected_avg: f64) {
        if self.schedule.exhausted() {
            self.schedule.reset_mass(arrival_weight as f64);
        }
        self.threshold = self.schedule.threshold(projected_avg);
        self.schedule.advance();
    }

    fn place(&self, loads: &[u64], rng: &mut SplitMix64) -> u32 {
        let n = loads.len() as u32;
        let a = rng.below(n);
        let b = rng.below(n);
        if loads[a as usize] < self.threshold {
            a
        } else if loads[b as usize] < self.threshold {
            b
        } else {
            lesser_loaded(loads, a, b)
        }
    }

    /// The schedule's complete state is `(bins, γ, m̃)` plus the cached
    /// threshold; `bins` comes from the rebuilt policy, the rest is
    /// persisted bit-exactly (`m̃` directly, *not* via `ratio()` — see
    /// [`UndershootSchedule::mass`]).
    fn state_snapshot(&self) -> Vec<u8> {
        let mut w = WireWriter::unframed();
        w.f64(self.schedule.gamma());
        w.f64(self.schedule.mass());
        w.u64(self.threshold);
        w.finish()
    }

    fn state_restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        let err = |e| format!("threshold policy state: {e}");
        let mut r = WireReader::unframed(bytes);
        let gamma = r.f64().map_err(err)?;
        let mass = r.f64().map_err(err)?;
        let threshold = r.u64().map_err(err)?;
        r.finish().map_err(err)?;
        if !(gamma > 0.0 && gamma < 1.0) {
            return Err(format!(
                "threshold policy state: gamma {gamma} out of (0,1)"
            ));
        }
        let mut schedule = UndershootSchedule::with_gamma(self.schedule.bins(), 0.0, gamma);
        schedule.reset_mass(mass);
        self.schedule = schedule;
        self.threshold = threshold;
        Ok(())
    }
}

/// Policy selector for the CLI and experiment registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`OneChoice`].
    OneChoice,
    /// [`TwoChoice`].
    TwoChoice,
    /// [`BatchedTwoChoice`].
    BatchedTwoChoice,
    /// [`Threshold`].
    Threshold,
}

impl PolicyKind {
    /// All selectable policies.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::OneChoice,
        PolicyKind::TwoChoice,
        PolicyKind::BatchedTwoChoice,
        PolicyKind::Threshold,
    ];

    /// The policy's CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::OneChoice => "one-choice",
            PolicyKind::TwoChoice => "two-choice",
            PolicyKind::BatchedTwoChoice => "batched-two-choice",
            PolicyKind::Threshold => "threshold",
        }
    }

    /// Parse a CLI name (`one-choice`, `two-choice`, `batched-two-choice`,
    /// `threshold`).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Instantiate the policy for `bins` bins.
    pub(crate) fn build(self, bins: u32) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::OneChoice => Box::new(OneChoice),
            PolicyKind::TwoChoice => Box::new(TwoChoice),
            PolicyKind::BatchedTwoChoice => Box::new(BatchedTwoChoice),
            PolicyKind::Threshold => Box::new(Threshold::new(bins)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_roundtrip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build(8).name(), kind.name());
        }
        assert_eq!(PolicyKind::parse("three-choice"), None);
    }

    #[test]
    fn two_choice_prefers_lesser_loaded() {
        let loads: Vec<u64> = vec![10, 0, 10, 10];
        let policy = TwoChoice;
        // Any probe pair containing bin 1 must pick bin 1.
        let mut wins = 0;
        for ball in 0..200u64 {
            let mut rng = crate::arrival_stream(1, 0, ball);
            let mut probe = crate::arrival_stream(1, 0, ball);
            let a = probe.below(4);
            let b = probe.below(4);
            let chosen = policy.place(&loads, &mut rng);
            if a == 1 || b == 1 {
                assert_eq!(chosen, 1);
                wins += 1;
            }
        }
        assert!(wins > 0);
    }

    #[test]
    fn threshold_takes_first_probe_under_threshold() {
        let mut policy = Threshold::new(4);
        // 4 bins, 40 arriving weight → projected avg 10; mass 40 → ratio
        // 10, undershoot 10^(2/3) ≈ 4.64 → T = 5.
        policy.begin_batch(0, 40, 10.0);
        assert_eq!(policy.current_threshold(), 5);
        let loads: Vec<u64> = vec![9, 4, 9, 9];
        for ball in 0..100u64 {
            let mut rng = crate::arrival_stream(3, 0, ball);
            let mut probe = crate::arrival_stream(3, 0, ball);
            let a = probe.below(4);
            let b = probe.below(4);
            let chosen = policy.place(&loads, &mut rng);
            if a == 1 {
                assert_eq!(chosen, 1);
            } else if b == 1 {
                assert_eq!(chosen, 1, "second probe under T must win over full first");
            }
        }
    }

    #[test]
    fn stateless_policies_snapshot_empty_and_reject_state() {
        for kind in [
            PolicyKind::OneChoice,
            PolicyKind::TwoChoice,
            PolicyKind::BatchedTwoChoice,
        ] {
            let mut policy = kind.build(16);
            assert!(policy.state_snapshot().is_empty(), "{kind:?}");
            assert!(policy.state_restore(&[]).is_ok());
            assert!(policy.state_restore(&[1, 2, 3]).is_err());
        }
    }

    #[test]
    fn threshold_state_roundtrip_continues_bit_identically() {
        let mut original = Threshold::new(96); // not a power of two
        original.begin_batch(0, 96 * 500, 500.0);
        original.begin_batch(1, 96 * 500, 1000.0);

        let mut restored = Threshold::new(96);
        restored
            .state_restore(&original.state_snapshot())
            .expect("state restores");
        assert_eq!(restored.current_threshold(), original.current_threshold());

        // Continue both for several batches: thresholds (the full
        // f64 recurrence) must stay bit-identical.
        for t in 2..10u64 {
            let avg = 500.0 * (t + 1) as f64;
            original.begin_batch(t, 96 * 500, avg);
            restored.begin_batch(t, 96 * 500, avg);
            assert_eq!(
                original.current_threshold(),
                restored.current_threshold(),
                "batch {t}"
            );
        }
    }

    #[test]
    fn threshold_rejects_corrupt_state() {
        let mut policy = Threshold::new(8);
        assert!(policy.state_restore(&[0u8; 3]).is_err(), "truncated");
        let mut w = pba_core::wire::WireWriter::unframed();
        w.f64(1.5); // gamma out of range
        w.f64(64.0);
        w.u64(0);
        assert!(policy.state_restore(&w.finish()).is_err());
    }

    #[test]
    fn threshold_schedule_tightens_over_batches() {
        let mut policy = Threshold::new(1024);
        policy.begin_batch(0, 1024 * 64, 64.0);
        let t0 = policy.current_threshold();
        policy.begin_batch(1, 1024 * 64, 128.0);
        let t1 = policy.current_threshold();
        // Undershoot shrinks as m̃ contracts: the threshold tracks the
        // rising average more closely each batch.
        assert!((128 - t1 as i64) < (64 - t0 as i64) + 64, "t0={t0} t1={t1}");
        assert!(t1 > t0);
    }
}
