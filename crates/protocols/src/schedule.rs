//! The heavy-case undershoot threshold schedule, factored out of
//! [`ThresholdHeavy`](crate::ThresholdHeavy) so other consumers (the
//! `pba-stream` threshold placement policy) can drive the same recurrence.
//!
//! The heavily loaded paper sets the cumulative round-`i` threshold below
//! the running average on purpose:
//!
//! ```text
//! T_i = avg − (m̃_i/n)^γ,     m̃_{i+1}/n = (m̃_i/n)^γ      (paper: γ = 2/3)
//! ```
//!
//! The undershoot keeps every bin saturated w.h.p. (Claim 1), so the
//! unallocated mass `m̃` contracts doubly exponentially and falls below
//! `switch_ratio · n` in `O(log log(m/n))` steps, at which point the
//! caller switches to a light finishing phase.

use pba_core::mathutil::f64_to_u64_floor;

/// The rising-threshold recurrence of the heavily loaded paper.
///
/// One instance tracks the unallocated-mass estimate `m̃` across steps
/// (rounds in the one-shot protocol, batches in the streaming policy).
/// Per step the caller asks for [`threshold`](Self::threshold) against the
/// current average load and then calls [`advance`](Self::advance).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UndershootSchedule {
    bins: u32,
    gamma: f64,
    switch_ratio: f64,
    m_tilde: f64,
}

impl UndershootSchedule {
    /// Paper parameters: `γ = 2/3`, light switch at `m̃ ≤ 2n`.
    pub fn new(bins: u32, initial_mass: f64) -> Self {
        Self::with_gamma(bins, initial_mass, 2.0 / 3.0)
    }

    /// Ablation constructor with undershoot exponent `γ ∈ (0, 1)`.
    pub fn with_gamma(bins: u32, initial_mass: f64, gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma < 1.0,
            "gamma must be in (0,1), got {gamma}"
        );
        assert!(bins > 0, "schedule needs at least one bin");
        Self {
            bins,
            gamma,
            switch_ratio: 2.0,
            m_tilde: initial_mass,
        }
    }

    /// The undershoot exponent.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of bins the schedule contracts over.
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// The current unallocated-mass estimate `m̃`, exactly as stored.
    ///
    /// State snapshots persist this instead of `ratio`:
    /// `ratio() * n` does not round-trip in f64 for arbitrary `n`, and a
    /// restored schedule must continue the recurrence *bit-identically*.
    pub fn mass(&self) -> f64 {
        self.m_tilde
    }

    /// Current estimate ratio `m̃ / n`.
    pub(crate) fn ratio(&self) -> f64 {
        self.m_tilde / self.bins as f64
    }

    /// True once `m̃ ≤ switch_ratio · n`: the recurrence has contracted to
    /// the light regime and the caller should stop undershooting.
    pub fn exhausted(&self) -> bool {
        self.ratio() <= self.switch_ratio
    }

    /// The cumulative threshold `⌊avg − (m̃/n)^γ⌋` for the current step.
    ///
    /// `avg` is the relevant average load: `m/n` in the one-shot protocol,
    /// the projected post-batch average in the streaming policy.
    pub fn threshold(&self, avg: f64) -> u64 {
        f64_to_u64_floor(avg - self.ratio().powf(self.gamma))
    }

    /// Apply one step of the recurrence: `m̃ ← n · (m̃/n)^γ`.
    pub fn advance(&mut self) {
        let n = self.bins as f64;
        self.m_tilde = n * self.ratio().powf(self.gamma);
    }

    /// Reset the unallocated-mass estimate (streaming sessions restart the
    /// contraction when a burst raises the resident mass again).
    pub fn reset_mass(&mut self, mass: f64) {
        self.m_tilde = mass;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contracts_doubly_exponentially() {
        let n = 1u32 << 10;
        let mut s = UndershootSchedule::new(n, (n as f64) * 1024.0);
        let mut steps = 0;
        while !s.exhausted() {
            s.advance();
            steps += 1;
            assert!(steps < 64, "schedule failed to contract");
        }
        // log log 1024 ≈ 3.3; the recurrence needs O(log log ratio) steps.
        assert!(steps <= 16, "took {steps} steps");
    }

    #[test]
    fn threshold_undershoots_average() {
        let n = 1u32 << 8;
        let s = UndershootSchedule::new(n, (n as f64) * 64.0);
        let avg = 64.0;
        let t = s.threshold(avg);
        assert!(t < avg as u64, "threshold {t} must undershoot avg {avg}");
    }

    #[test]
    fn matches_inline_recurrence() {
        // Bit-identical to the arithmetic previously inlined in
        // ThresholdHeavy: ratio → powf → floor, then m̃ ← n·ratio^γ.
        let n = 1u32 << 6;
        let m = (n as u64) << 8;
        let gamma = 2.0 / 3.0;
        let mut s = UndershootSchedule::with_gamma(n, m as f64, gamma);
        let mut m_tilde = m as f64;
        let avg = m as f64 / n as f64;
        for _ in 0..8 {
            let ratio = m_tilde / n as f64;
            let expect = f64_to_u64_floor(avg - ratio.powf(gamma));
            assert_eq!(s.threshold(avg), expect);
            m_tilde = n as f64 * ratio.powf(gamma);
            s.advance();
            assert_eq!(s.ratio(), m_tilde / n as f64);
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_gamma_one() {
        let _ = UndershootSchedule::with_gamma(8, 64.0, 1.0);
    }

    /// `(bins, mass, gamma)` is the schedule's complete state: a copy
    /// reconstructed from the accessors continues bit-identically — the
    /// contract the streaming snapshot codec relies on. `n = 100` is
    /// deliberately not a power of two, where a `ratio()`-based
    /// round-trip would drift.
    #[test]
    fn accessor_roundtrip_is_bit_identical() {
        let mut a = UndershootSchedule::with_gamma(100, 7777.7, 0.61);
        a.advance();
        a.advance();
        let mut b = UndershootSchedule::with_gamma(a.bins(), a.mass(), a.gamma());
        assert_eq!(a, b);
        for _ in 0..6 {
            a.advance();
            b.advance();
            assert_eq!(a.mass().to_bits(), b.mass().to_bits());
            assert_eq!(a.threshold(777.7), b.threshold(777.7));
        }
    }

    // Property-style cases below use the workspace's hand-rolled seeded
    // generator (same style as `tests/properties.rs`): a fixed master
    // seed per property, so failures name a replayable case.

    use pba_core::rng::{Rand64, SplitMix64};

    const CASES: u64 = 64;

    fn case_rng(tag: u64, case: u64) -> SplitMix64 {
        SplitMix64::new(0x9e37_79b9_7f4a_7c15 ^ (tag << 32) ^ case)
    }

    /// A random heavy instance: `n ∈ [1, 4096]`, `m/n ∈ [4, 4096)`,
    /// `γ ∈ (0.2, 0.95)`.
    fn heavy_case(rng: &mut SplitMix64) -> (u32, f64, f64) {
        let n = 1 + rng.below(4096);
        let ratio = 4.0 + rng.unit_f64() * 4092.0;
        let gamma = 0.2 + rng.unit_f64() * 0.75;
        (n, ratio, gamma)
    }

    /// Thresholds rise monotonically along the contraction: each
    /// `advance` shrinks the undershoot term `(m̃/n)^γ`, so the cumulative
    /// threshold against a fixed average never falls — bins are never
    /// asked to give back capacity they already granted.
    #[test]
    fn property_thresholds_are_monotone_under_advance() {
        for case in 0..CASES {
            let mut rng = case_rng(11, case);
            let (n, ratio, gamma) = heavy_case(&mut rng);
            let mut s = UndershootSchedule::with_gamma(n, n as f64 * ratio, gamma);
            let mut prev = s.threshold(ratio);
            let mut steps = 0u32;
            while !s.exhausted() {
                s.advance();
                let t = s.threshold(ratio);
                assert!(
                    t >= prev,
                    "case {case} (n={n} ratio={ratio} gamma={gamma}): \
                     threshold fell {prev} → {t} at step {steps}"
                );
                prev = t;
                steps += 1;
                assert!(steps < 512, "case {case}: no contraction");
            }
        }
    }

    /// Conservation: the cumulative threshold never promises more than
    /// the instance holds (`n · T ≤ m`, i.e. `T ≤ avg`), and while the
    /// heavy phase is live the undershoot is strict (`T < avg`), at every
    /// step of the contraction.
    #[test]
    fn property_thresholds_conserve_total_mass() {
        for case in 0..CASES {
            let mut rng = case_rng(12, case);
            let (n, ratio, gamma) = heavy_case(&mut rng);
            let mut s = UndershootSchedule::with_gamma(n, n as f64 * ratio, gamma);
            loop {
                let t = s.threshold(ratio);
                assert!(
                    (t as f64) <= ratio,
                    "case {case} (n={n} ratio={ratio} gamma={gamma}): \
                     threshold {t} overshoots the average"
                );
                assert!(
                    (t as f64) < ratio || ratio == ratio.floor(),
                    "case {case}: undershoot vanished before exhaustion"
                );
                if s.exhausted() {
                    break;
                }
                s.advance();
            }
        }
    }

    /// Exhaustion is absorbing: once the estimate contracts into the
    /// light regime it never climbs back out under further `advance`
    /// calls (callers may keep stepping the schedule harmlessly).
    #[test]
    fn property_exhaustion_is_absorbing() {
        for case in 0..CASES {
            let mut rng = case_rng(13, case);
            let (n, ratio, gamma) = heavy_case(&mut rng);
            let mut s = UndershootSchedule::with_gamma(n, n as f64 * ratio, gamma);
            while !s.exhausted() {
                s.advance();
            }
            for step in 0..8 {
                s.advance();
                assert!(
                    s.exhausted(),
                    "case {case} (n={n} ratio={ratio} gamma={gamma}): \
                     un-exhausted after {step} extra steps (ratio {})",
                    s.ratio()
                );
            }
        }
    }
}
