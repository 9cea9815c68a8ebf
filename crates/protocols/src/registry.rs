//! Name-based protocol dispatch for the CLI and harness.

use pba_core::{ProblemSpec, Result, RoundProtocol, RunConfig, RunOutcome, Simulator};

use crate::{
    ALight, AdlerGreedy, Asymmetric, BatchedTwoChoice, Collision, EstimatedAverage, FixedThreshold,
    KdChoice, ParallelTwoChoice, SingleChoice, StemannHeavy, ThresholdHeavy, TrivialRoundRobin,
};

/// All parallel protocol names accepted by [`run_by_name`].
pub fn protocol_names() -> &'static [&'static str] {
    &[
        "single-choice",
        "fixed-threshold",
        "parallel-two-choice",
        "threshold-heavy",
        "a-light",
        "collision",
        "stemann-heavy",
        "adler-greedy",
        "asymmetric",
        "trivial-round-robin",
        "batched-two-choice",
        "kd-choice",
        "kd-choice-36",
        "estimated-average",
    ]
}

/// Generic-method callback for name-based protocol construction.
///
/// [`visit_protocol`] looks a protocol up by registry name, constructs it
/// with the registry's default parameters, and hands the concrete value to
/// the visitor's generic [`visit`](ProtocolVisitor::visit) method. This
/// lets every consumer — the simulator front-end here, the cluster
/// orchestrator and its shard workers — build protocols from one
/// parameter source without a `Box<dyn RoundProtocol>` indirection (the
/// engine drives protocols by value through monomorphized kernels).
pub trait ProtocolVisitor {
    /// What the visit produces (a run outcome, a worker loop result, ...).
    type Output;

    /// Receive the concretely-typed protocol the registry built.
    fn visit<P: RoundProtocol + 'static>(self, protocol: P) -> Self::Output;
}

/// Construct the named protocol with registry-default parameters and pass
/// it to `visitor`.
///
/// Returns `None` for unknown names (callers print [`protocol_names`]).
/// This is the single source of truth for per-protocol default
/// parameters; [`run_by_name`] and the cluster orchestrator/worker both
/// dispatch through it so distributed runs construct bit-identical
/// protocol state.
pub fn visit_protocol<V: ProtocolVisitor>(
    name: &str,
    spec: ProblemSpec,
    visitor: V,
) -> Option<V::Output> {
    Some(match name {
        "single-choice" => visitor.visit(SingleChoice::new(spec)),
        "fixed-threshold" => visitor.visit(FixedThreshold::new(spec, 2)),
        "parallel-two-choice" => visitor.visit(ParallelTwoChoice::new(spec, 2)),
        "threshold-heavy" => visitor.visit(ThresholdHeavy::new(spec)),
        "a-light" => visitor.visit(ALight::new(spec, 2)),
        "collision" => visitor.visit(Collision::with_params(
            spec,
            2,
            // Arrivals scale with d·m/n, so the collision bound must sit
            // above that for round one to make progress; 2⌈m/n⌉+4 keeps
            // the structural load cap at O(m/n).
            2 * spec.ceil_avg().saturating_add(2).min(u32::MAX / 2),
        )),
        "stemann-heavy" => visitor.visit(StemannHeavy::new(spec)),
        "adler-greedy" => visitor.visit(AdlerGreedy::new(spec, 2, 4)),
        "asymmetric" => visitor.visit(Asymmetric::new(spec)),
        "trivial-round-robin" => visitor.visit(TrivialRoundRobin),
        "batched-two-choice" => {
            visitor.visit(BatchedTwoChoice::new(spec, (spec.bins() as u64).max(1)))
        }
        "kd-choice" => visitor.visit(KdChoice::with_params(spec, 2, 4)),
        "kd-choice-36" => visitor.visit(KdChoice::with_params(spec, 3, 6)),
        "estimated-average" => visitor.visit(EstimatedAverage::new(spec)),
        _ => return None,
    })
}

struct RunVisitor {
    sim: Simulator,
}

impl ProtocolVisitor for RunVisitor {
    type Output = Result<RunOutcome>;

    fn visit<P: RoundProtocol + 'static>(self, protocol: P) -> Self::Output {
        self.sim.run(protocol)
    }
}

/// Run the named parallel protocol with default parameters.
///
/// Returns `None` for unknown names (callers print
/// [`protocol_names`]).
pub fn run_by_name(name: &str, spec: ProblemSpec, config: RunConfig) -> Option<Result<RunOutcome>> {
    let sim = Simulator::new(spec, config);
    visit_protocol(name, spec, RunVisitor { sim })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads the run-level load cap a protocol reports.
    struct CapVisitor(ProblemSpec);

    impl ProtocolVisitor for CapVisitor {
        type Output = Option<u32>;

        fn visit<P: RoundProtocol + 'static>(self, protocol: P) -> Self::Output {
            protocol.load_cap(&self.0)
        }
    }

    #[test]
    fn every_listed_protocol_runs() {
        let spec = ProblemSpec::new(1 << 12, 1 << 6).unwrap();
        let mut capped = Vec::new();
        for &name in protocol_names() {
            let out = run_by_name(name, spec, RunConfig::seeded(1))
                .unwrap_or_else(|| panic!("{name} not dispatched"))
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(out.is_complete(), "{name} left {} balls", out.unallocated);
            assert_eq!(out.protocol, name, "name mismatch for {name}");
            if let Some(cap) = visit_protocol(name, spec, CapVisitor(spec)).unwrap() {
                assert!(
                    out.max_load() <= cap,
                    "{name} reached load {} past its cap {cap}",
                    out.max_load()
                );
                capped.push(name);
            }
        }
        assert_eq!(
            capped,
            [
                "fixed-threshold",
                "parallel-two-choice",
                "threshold-heavy",
                "a-light",
                "collision",
                "stemann-heavy",
                "trivial-round-robin",
                "kd-choice",
                "kd-choice-36",
                "estimated-average",
            ]
        );
    }

    #[test]
    fn unknown_name_returns_none() {
        let spec = ProblemSpec::new(16, 4).unwrap();
        assert!(run_by_name("nope", spec, RunConfig::seeded(0)).is_none());
    }
}
