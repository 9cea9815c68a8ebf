//! Parsing for the `pba-run … --faults SPEC` flag.
//!
//! A spec is a comma-separated list of `key=value` clauses assembled into
//! a [`FaultPlan`]:
//!
//! ```text
//! drop=0.1,crash=0.02,straggle=8x0.2,domains=8x0.3,seed=7,backoff=8,redraw=4
//! ```
//!
//! * `drop=P` — per-request message-drop probability in `[0, 1)`;
//! * `crash=F` — fraction of bins crashed for the whole run, `[0, 1)`;
//! * `straggle=LxP` — `L` virtual lanes (1..=64), each late for a round
//!   with probability `P`;
//! * `domains=DxP` — `D` streaming fault domains (1..=64), each failed
//!   for a batch with probability `P`;
//! * `kill=DxB` — domain `D` is permanently dead from batch `B` on
//!   (requires `domains=…` in the same spec; probability 0.0 gives a
//!   kill-only plan). In `cluster stream` the domains are the shards
//!   (their counts must match), so this really kills shard `D`'s worker
//!   before batch `B`;
//! * `seed=S` — the fault stream seed (defaults to 0; independent of the
//!   run seed so the same chaos can be replayed over different runs);
//! * `backoff=W` — retry-backoff cap in rounds (≥ 1);
//! * `redraw=K` — redraw attempts when a choice hits a crashed bin (≥ 1).
//!
//! Keys may appear in any order; unknown keys and malformed numbers are
//! errors, not silently ignored, so chaos configurations in scripts fail
//! loudly. For the same reason `pba-run` refuses a clause the command
//! would ignore: `protocol` and `cluster protocol` take no `domains`
//! (nor `kill`), `stream` and `serve --replay` no `drop`, `crash` or
//! `straggle`, and `cluster stream` no `drop` or `crash`.

use pba_core::FaultPlan;

/// Parse `LxP` (count times probability), e.g. `8x0.2`.
fn parse_count_prob(key: &str, v: &str) -> Result<(u32, f64), String> {
    let (count, prob) = v
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--faults {key}={v}: expected COUNTxPROB, e.g. {key}=8x0.2"))?;
    let count: u32 = count
        .parse()
        .map_err(|_| format!("--faults {key}={v}: bad count '{count}'"))?;
    let prob: f64 = prob
        .parse()
        .map_err(|_| format!("--faults {key}={v}: bad probability '{prob}'"))?;
    if !(1..=64).contains(&count) {
        return Err(format!("--faults {key}={v}: count must be in 1..=64"));
    }
    if !(0.0..1.0).contains(&prob) {
        return Err(format!("--faults {key}={v}: probability must be in [0, 1)"));
    }
    Ok((count, prob))
}

/// Parse a `--faults` spec string into a [`FaultPlan`].
pub fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::new(0);
    // Applied after the loop: `kill` needs the domain count, and keys may
    // appear in any order.
    let mut kill: Option<(u32, u64)> = None;
    for clause in spec.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let (key, value) = clause
            .split_once('=')
            .ok_or_else(|| format!("--faults: clause '{clause}' is not key=value"))?;
        match key {
            "drop" => {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("--faults drop={value}: bad probability"))?;
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("--faults drop={value}: must be in [0, 1)"));
                }
                plan = plan.with_drop_prob(p);
            }
            "crash" => {
                let f: f64 = value
                    .parse()
                    .map_err(|_| format!("--faults crash={value}: bad fraction"))?;
                if !(0.0..1.0).contains(&f) {
                    return Err(format!("--faults crash={value}: must be in [0, 1)"));
                }
                plan = plan.with_crashed_bins(f);
            }
            "straggle" => {
                let (lanes, p) = parse_count_prob("straggle", value)?;
                plan = plan.with_stragglers(lanes, p);
            }
            "domains" => {
                let (domains, p) = parse_count_prob("domains", value)?;
                plan = plan.with_shard_failures(domains, p);
            }
            "kill" => {
                let (domain, batch) = value.split_once(['x', 'X']).ok_or_else(|| {
                    format!("--faults kill={value}: expected DOMAINxBATCH, e.g. kill=2x5")
                })?;
                let domain: u32 = domain
                    .parse()
                    .map_err(|_| format!("--faults kill={value}: bad domain '{domain}'"))?;
                let batch: u64 = batch
                    .parse()
                    .map_err(|_| format!("--faults kill={value}: bad batch '{batch}'"))?;
                kill = Some((domain, batch));
            }
            "seed" => {
                let seed: u64 = value
                    .parse()
                    .map_err(|_| format!("--faults seed={value}: bad seed"))?;
                plan.seed = seed;
            }
            "backoff" => {
                let w: u32 = value
                    .parse()
                    .map_err(|_| format!("--faults backoff={value}: bad cap"))?;
                if w == 0 {
                    return Err("--faults backoff must be at least 1".into());
                }
                plan = plan.with_max_backoff(w);
            }
            "redraw" => {
                let k: u32 = value
                    .parse()
                    .map_err(|_| format!("--faults redraw={value}: bad count"))?;
                if k == 0 {
                    return Err("--faults redraw must be at least 1".into());
                }
                plan = plan.with_redraw_attempts(k);
            }
            other => {
                return Err(format!(
                    "--faults: unknown key '{other}' (valid: drop, crash, straggle, \
                     domains, kill, seed, backoff, redraw)"
                ))
            }
        }
    }
    if let Some((domain, batch)) = kill {
        if plan.domains == 0 {
            return Err("--faults kill=DxB requires domains=DxP in the same spec \
                 (probability 0.0 gives a kill-only plan, e.g. domains=4x0.0,kill=2x5)"
                .into());
        }
        if plan.domains == 1 {
            return Err("--faults kill: killing the only domain would fail every bin".into());
        }
        if domain >= plan.domains {
            return Err(format!(
                "--faults kill={domain}x{batch}: domain must be < {} (the domain count)",
                plan.domains
            ));
        }
        plan = plan.with_dead_domain(domain, batch);
    }
    Ok(plan)
}

/// One-line human rendering of an armed plan for run headers.
pub fn describe_fault_plan(plan: &FaultPlan) -> String {
    let mut parts = Vec::new();
    if plan.drop_prob > 0.0 {
        parts.push(format!("drop {}", plan.drop_prob));
    }
    if plan.crash_frac > 0.0 {
        parts.push(format!("crash {}", plan.crash_frac));
    }
    if let Some(s) = plan.stragglers {
        parts.push(format!("straggle {}x{}", s.lanes, s.prob));
    }
    if plan.has_domain_faults() {
        parts.push(format!(
            "domains {}x{}",
            plan.domains, plan.domain_fail_prob
        ));
    }
    if let Some((domain, batch)) = plan.dead_domain_from {
        parts.push(format!("kill domain {domain} from batch {batch}"));
    }
    if parts.is_empty() {
        parts.push("none".into());
    }
    format!(
        "{} (seed {}, backoff ≤ {}, redraw {})",
        parts.join(", "),
        plan.seed,
        plan.max_backoff,
        plan.redraw_attempts
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips() {
        let plan = parse_fault_spec(
            "drop=0.1,crash=0.02,straggle=8x0.2,domains=4x0.3,seed=7,backoff=16,redraw=2",
        )
        .unwrap();
        assert_eq!(plan.drop_prob, 0.1);
        assert_eq!(plan.crash_frac, 0.02);
        let s = plan.stragglers.unwrap();
        assert_eq!((s.lanes, s.prob), (8, 0.2));
        assert_eq!((plan.domains, plan.domain_fail_prob), (4, 0.3));
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.max_backoff, 16);
        assert_eq!(plan.redraw_attempts, 2);
    }

    #[test]
    fn kill_clause_arms_a_dead_domain() {
        let plan = parse_fault_spec("domains=4x0.0,kill=2x5").unwrap();
        assert_eq!(plan.dead_domain_from, Some((2, 5)));
        assert!(plan.has_domain_faults());
        // Order-independent: kill may precede domains.
        let plan = parse_fault_spec("kill=1x0,domains=2x0.1").unwrap();
        assert_eq!(plan.dead_domain_from, Some((1, 0)));
    }

    #[test]
    fn kill_clause_rejects_bad_configurations() {
        for (spec, needle) in [
            ("kill=2x5", "requires domains"),
            ("domains=2x0.0,kill=5", "DOMAINxBATCH"),
            ("domains=2x0.0,kill=ax5", "bad domain"),
            ("domains=2x0.0,kill=2x5", "must be < 2"),
            ("domains=1x0.0,kill=0x5", "only domain"),
        ] {
            let err = parse_fault_spec(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn empty_and_whitespace_clauses_are_tolerated() {
        let plan = parse_fault_spec(" drop=0.5 , ").unwrap();
        assert_eq!(plan.drop_prob, 0.5);
        assert_eq!(plan.seed, 0);
    }

    #[test]
    fn errors_name_the_offending_clause() {
        for (spec, needle) in [
            ("drop=1.5", "[0, 1)"),
            ("drop=abc", "bad probability"),
            ("straggle=0.2", "COUNTxPROB"),
            ("straggle=99x0.2", "1..=64"),
            ("domains=8x1.0", "[0, 1)"),
            ("gravity=9.8", "unknown key"),
            ("justakey", "key=value"),
            ("backoff=0", "at least 1"),
        ] {
            let err = parse_fault_spec(spec).unwrap_err();
            assert!(err.contains(needle), "{spec}: {err}");
        }
    }

    #[test]
    fn describe_covers_armed_components() {
        let plan = parse_fault_spec("drop=0.25,straggle=4x0.1").unwrap();
        let s = describe_fault_plan(&plan);
        assert!(
            s.contains("drop 0.25") && s.contains("straggle 4x0.1"),
            "{s}"
        );
        let none = describe_fault_plan(&FaultPlan::new(3));
        assert!(none.contains("none") && none.contains("seed 3"), "{none}");
    }
}
