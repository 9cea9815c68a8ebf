//! # `pba-conformance` — statistical conformance oracles
//!
//! The experiment harness (`pba-runner`) *reports* what the protocols do;
//! this crate *judges* it. Each [`Claim`] turns one quantitative claim of
//! the source papers — max-load ≤ c for the collision protocol, gap
//! `O(m/n)` growth for the heavily-loaded family, `≤ r` rounds for
//! r-round GREEDY, `O(1)` messages per ball, stream-gap growth with batch
//! size — into an automated pass/fail oracle:
//!
//! * the **bound** is a function of `(m, n)` with tolerance derived from
//!   the analysis toolkit (Chernoff tails, exact binomial quantiles, the
//!   DKW inequality for KS distances) rather than hand-tuned constants;
//! * the **measurement** is a set of seeded replicated runs with the
//!   in-engine invariant checker armed
//!   ([`RunConfig::with_validation`][pba_core::RunConfig::with_validation]),
//!   summarized with a 95% confidence interval;
//! * the **verdict** is [`Verdict::Confirmed`] only when every replicate
//!   satisfies the bound — any engine error (round-budget exhaustion,
//!   invariant violation) refutes the claim outright.
//!
//! Oracles run at two scales: [`VerifyScale::Ci`] keeps `n ≤ 4096` and a
//! handful of replicates so the whole registry finishes in seconds;
//! [`VerifyScale::Full`] quadruples sizes and doubles replicates.
//! `pba-run verify` renders the registry as a paper-style verdict table
//! and exits nonzero on any refutation, so a miswired engine (or a
//! deliberately injected fault plan, via [`VerifyOptions::miswire`])
//! flips CI red.

mod oracles;

use pba_core::FaultPlan;

/// Outcome of one claim oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every replicate satisfied the bound.
    Confirmed,
    /// At least one replicate broke the bound (or errored).
    Refuted,
}

impl Verdict {
    /// Render as the EXPERIMENTS.md verdict vocabulary.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Confirmed => "CONFIRMED",
            Verdict::Refuted => "REFUTED",
        }
    }
}

/// The sizes and replication depth an oracle runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyScale {
    /// CI scale: `n ≤ 4096`, a few seconds for the whole registry.
    Ci,
    /// Full scale: larger instances, more replicates.
    Full,
}

impl VerifyScale {
    /// Parse `"ci"` / `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "ci" => Some(VerifyScale::Ci),
            "full" => Some(VerifyScale::Full),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            VerifyScale::Ci => "ci",
            VerifyScale::Full => "full",
        }
    }

    /// Seeded replicates per measurement point.
    pub fn reps(self) -> usize {
        match self {
            VerifyScale::Ci => 8,
            VerifyScale::Full => 16,
        }
    }
}

/// Options shared by every oracle run.
#[derive(Debug, Clone, Copy)]
pub struct VerifyOptions {
    /// Scale preset.
    pub scale: VerifyScale,
    /// Deliberate fault injection ("miswiring"): the plan is armed on
    /// every oracle run, so a correctly refuting registry is itself
    /// testable — this is the negative-control knob behind
    /// `pba-run verify --faults`.
    pub miswire: Option<FaultPlan>,
}

impl VerifyOptions {
    /// Clean options at `scale` (no miswiring).
    pub(crate) fn at(scale: VerifyScale) -> Self {
        Self {
            scale,
            miswire: None,
        }
    }
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self::at(VerifyScale::Ci)
    }
}

/// The result of checking one claim.
#[derive(Debug, Clone)]
pub struct ClaimReport {
    /// Oracle id (e.g. `"e07-load"`).
    pub id: &'static str,
    /// Experiment family the claim guards (e.g. `"e07"`).
    pub experiment: &'static str,
    /// One-line statement of the claim.
    pub title: &'static str,
    /// The bound checked, rendered with its derived tolerance.
    pub bound: String,
    /// The headline measurement, rendered.
    pub observed: String,
    /// Mean of the headline statistic over replicates.
    pub mean: f64,
    /// 95% confidence interval on the mean.
    pub ci: (f64, f64),
    /// The verdict.
    pub verdict: Verdict,
    /// Extra context lines (per-size observations, fit diagnostics).
    pub notes: Vec<String>,
}

impl ClaimReport {
    /// True when the claim held on every replicate.
    pub fn confirmed(&self) -> bool {
        self.verdict == Verdict::Confirmed
    }
}

/// One paper claim turned into an automated statistical oracle.
pub trait Claim {
    /// Stable oracle id, lowercase (e.g. `"e07-load"`).
    fn id(&self) -> &'static str;
    /// Experiment family guarded (e.g. `"e07"`).
    fn experiment(&self) -> &'static str;
    /// One-line statement of the claim.
    fn title(&self) -> &'static str;
    /// Run the measurement and judge it.
    fn check(&self, opts: &VerifyOptions) -> ClaimReport;
}

/// Every registered oracle, in experiment order.
pub fn all_claims() -> Vec<Box<dyn Claim>> {
    vec![
        Box::new(oracles::E01BinomialKs),
        Box::new(oracles::E01MaxLoad),
        Box::new(oracles::E03Gap),
        Box::new(oracles::E07CollisionLoad),
        Box::new(oracles::E08LoadLinear),
        Box::new(oracles::E09GreedyRounds),
        Box::new(oracles::E10MessageBudget),
        Box::new(oracles::E15StreamGap),
        Box::new(oracles::E24KdLoad),
        Box::new(oracles::E25Retries),
    ]
}

/// The registered oracle ids, in registry order.
pub fn claim_ids() -> Vec<&'static str> {
    all_claims().iter().map(|c| c.id()).collect()
}

/// Look up an oracle by id (case-insensitive).
pub fn claim_by_id(id: &str) -> Option<Box<dyn Claim>> {
    let id = id.to_ascii_lowercase();
    all_claims().into_iter().find(|c| c.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_populated_and_ids_are_unique() {
        let ids = claim_ids();
        assert!(ids.len() >= 10, "need ≥ 10 oracles, have {}", ids.len());
        assert!(ids.contains(&"e24-kd-load"), "new-family oracle missing");
        assert!(ids.contains(&"e25-retries"), "new-family oracle missing");
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate oracle ids");
        for id in &ids {
            assert_eq!(*id, id.to_ascii_lowercase(), "ids are lowercase");
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(claim_by_id("E07-LOAD").is_some());
        assert!(claim_by_id("no-such-claim").is_none());
    }

    #[test]
    fn scale_parses() {
        assert_eq!(VerifyScale::parse("ci"), Some(VerifyScale::Ci));
        assert_eq!(VerifyScale::parse("FULL"), Some(VerifyScale::Full));
        assert_eq!(VerifyScale::parse("huge"), None);
        assert!(VerifyScale::Full.reps() > VerifyScale::Ci.reps());
    }
}
