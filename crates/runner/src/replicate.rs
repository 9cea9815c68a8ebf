//! Seed replication: run the same experiment under many seeds, in
//! parallel across the pool (each individual run stays on the
//! deterministic sequential executor so replications are reproducible).

use std::sync::Mutex;

use pba_core::{ProblemSpec, Result, RoundProtocol, RunOutcome, Simulator};
use pba_par::global_pool;

use crate::experiment::RunOptions;

/// Run `f(seed)` for `reps` seeds derived from `base_seed`, in parallel
/// (one pool task per seed), returning the results in seed order.
///
/// Seeds are `base_seed, base_seed+1, …` — simple, collision-free, and
/// stable across machines.
pub fn replicate<T, F>(base_seed: u64, reps: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let slots: Vec<Mutex<Option<T>>> = (0..reps).map(|_| Mutex::new(None)).collect();
    global_pool().run_indexed(reps, |i| {
        let out = f(base_seed + i as u64);
        *slots[i]
            .lock()
            .expect("a slot is locked only to store its result") = Some(out);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked only to store its result")
                .expect("run_indexed runs every seed")
        })
        .collect()
}

/// Replicate a protocol run over seeds, threading [`RunOptions`] into
/// every run, so an attached metrics sink observes all replications
/// (events are attributable via the seed in
/// [`pba_core::metrics::RunMeta`]). Panics on simulation errors (an
/// experiment hitting a round-budget error is a bug in its parameters).
pub(crate) fn replicate_outcomes_with<P, F>(
    spec: ProblemSpec,
    base_seed: u64,
    reps: usize,
    opts: &RunOptions,
    make: F,
) -> Vec<RunOutcome>
where
    P: RoundProtocol,
    F: Fn() -> P + Sync,
{
    replicate(base_seed, reps, |seed| {
        run_once_with(spec, seed, make(), opts).unwrap_or_else(|e| panic!("seed {seed}: {e}"))
    })
}

/// One sequential, traced run built through [`RunOptions::config`].
pub(crate) fn run_once_with<P: RoundProtocol>(
    spec: ProblemSpec,
    seed: u64,
    protocol: P,
    opts: &RunOptions,
) -> Result<RunOutcome> {
    Simulator::new(spec, opts.config(seed)).run(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_protocols::SingleChoice;

    #[test]
    fn replicate_produces_reps_results_in_seed_order() {
        let out = replicate(100, 8, |seed| seed * 2);
        assert_eq!(out, vec![200, 202, 204, 206, 208, 210, 212, 214]);
    }

    #[test]
    fn outcomes_are_seed_deterministic() {
        let spec = ProblemSpec::new(4096, 64).unwrap();
        let opts = RunOptions::default();
        let a = replicate_outcomes_with(spec, 7, 3, &opts, || SingleChoice::new(spec));
        let b = replicate_outcomes_with(spec, 7, 3, &opts, || SingleChoice::new(spec));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.loads, y.loads);
        }
        // Different seeds within the batch differ.
        assert_ne!(a[0].loads, a[1].loads);
    }
}
