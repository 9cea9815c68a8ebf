//! Integration: determinism and executor equivalence across the public
//! API.

use pba::prelude::*;

fn run(name: &str, spec: ProblemSpec, cfg: RunConfig) -> RunOutcome {
    pba::protocols::run_by_name(name, spec, cfg)
        .expect("known")
        .expect("ok")
}

/// Same seed ⇒ identical everything, for every protocol.
#[test]
fn identical_seeds_identical_outcomes() {
    let spec = ProblemSpec::new(1 << 14, 1 << 7).unwrap();
    for &name in pba::protocols::protocol_names() {
        let a = run(name, spec, RunConfig::seeded(11));
        let b = run(name, spec, RunConfig::seeded(11));
        assert_eq!(a.loads, b.loads, "{name}");
        assert_eq!(a.rounds, b.rounds, "{name}");
        assert_eq!(a.messages, b.messages, "{name}");
    }
}

/// Different seeds ⇒ different allocations for randomized protocols.
/// Estimated-average converges to the all-⌈m/n⌉ load vector on *every*
/// seed (that is its theorem), so seed sensitivity is asserted on the
/// per-ball assignment instead of the loads there.
#[test]
fn different_seeds_differ_for_randomized_protocols() {
    let spec = ProblemSpec::new(1 << 14, 1 << 7).unwrap();
    for &name in pba::protocols::protocol_names() {
        if name == "trivial-round-robin" {
            continue; // deterministic by design
        }
        let a = run(name, spec, RunConfig::seeded(1).with_assignment(true));
        let b = run(name, spec, RunConfig::seeded(2).with_assignment(true));
        if name == "estimated-average" {
            assert_eq!(a.loads, b.loads, "{name}: perfect balance on any seed");
            assert_ne!(a.assignment, b.assignment, "{name} ignored its seed");
        } else {
            assert_ne!(a.loads, b.loads, "{name} ignored its seed");
        }
    }
}

/// The parallel executor reproduces the sequential executor bit-for-bit
/// on large instances, for representative protocols of each family
/// (degree-1 threshold, degree-2 collision, redirecting asymmetric,
/// commit-choice greedy).
#[test]
fn parallel_executor_is_bit_identical() {
    let spec = ProblemSpec::new(1 << 20, 1 << 9).unwrap();
    for &name in &[
        "threshold-heavy",
        "collision",
        "asymmetric",
        "adler-greedy",
        "single-choice",
    ] {
        let seq = run(name, spec, RunConfig::seeded(7));
        let par = run(
            name,
            spec,
            RunConfig::seeded(7).with_executor(ExecutorKind::ParallelWith(4)),
        );
        assert_eq!(seq.loads, par.loads, "{name}: load vectors diverge");
        assert_eq!(seq.rounds, par.rounds, "{name}: round counts diverge");
        assert_eq!(seq.messages, par.messages, "{name}: message totals diverge");
        assert_eq!(
            seq.per_bin_received, par.per_bin_received,
            "{name}: per-bin message counts diverge"
        );
    }
}

/// Trace records agree across executors too (per-round equality, not
/// just final state).
#[test]
fn traces_agree_across_executors() {
    let spec = ProblemSpec::new(1 << 20, 1 << 9).unwrap();
    let seq = run("threshold-heavy", spec, RunConfig::seeded(9));
    let par = run(
        "threshold-heavy",
        spec,
        RunConfig::seeded(9).with_executor(ExecutorKind::ParallelWith(3)),
    );
    let (st, pt) = (seq.trace.unwrap(), par.trace.unwrap());
    assert_eq!(st.rounds(), pt.rounds());
    for (a, b) in st.records().iter().zip(pt.records()) {
        assert_eq!(a, b, "round {} diverged", a.round);
    }
}

/// Serial against a 4-lane pool at m = n = 2^18 under the default plan,
/// where the bin side really splits: round 0 is dense and its scan and
/// grants run as eight owner ranges of 512 bitmap words, and the sparse
/// rounds after it must clear what it left. (The differential fuzzer
/// draws n ≤ 255, four bitmap words.) One run adds crash and drop
/// faults.
#[test]
fn split_bin_side_is_bit_identical_at_scale() {
    let spec = ProblemSpec::new(1 << 18, 1 << 18).unwrap();
    let crash_drop = FaultPlan::new(0x5CA7)
        .with_drop_prob(0.1)
        .with_crashed_bins(0.02);
    for (name, faults) in [
        ("collision", None),
        ("parallel-two-choice", None),
        ("kd-choice", None),
        ("collision", Some(crash_drop)),
    ] {
        let config = |cfg: RunConfig| {
            let cfg = cfg.with_validation(true);
            match faults {
                Some(plan) => cfg.with_faults(plan),
                None => cfg,
            }
        };
        let seq = run(name, spec, config(RunConfig::seeded(13)));
        let par = run(name, spec, config(RunConfig::seeded(13).parallel_with(4)));
        let case = format!("{name}, faults {}", faults.is_some());
        assert_eq!(seq.loads, par.loads, "{case}: load vectors diverge");
        assert_eq!(seq.rounds, par.rounds, "{case}: round counts diverge");
        assert_eq!(seq.messages, par.messages, "{case}: message totals diverge");
        assert_eq!(
            seq.per_bin_received, par.per_bin_received,
            "{case}: per-bin message counts diverge"
        );
        assert_eq!(
            seq.trace.as_ref().unwrap().records(),
            par.trace.as_ref().unwrap().records(),
            "{case}: round records diverge"
        );
        assert_eq!(seq.faults, par.faults, "{case}: fault tallies diverge");
        assert_eq!(seq.faults.is_some(), faults.is_some(), "{case}");
    }
}
