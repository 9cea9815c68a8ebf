//! # `pba-runner` — experiment harness
//!
//! Regenerates every reproduced result (experiments E1–E19 of
//! `DESIGN.md`): workload construction, parameter sweeps, seed
//! replication, theory-vs-measured tables, fault-injection specs, and
//! the `pba-run` CLI.
//!
//! ```text
//! pba-run list                 # all experiments with one-line claims
//! pba-run all --scale default  # run everything, print markdown tables
//! pba-run e03 --scale full     # one experiment at full scale
//! pba-run protocol collision --m 65536 --n 65536
//! pba-run stream --policy batched-two-choice --batch 8n
//! ```
//!
//! Every experiment implements [`Experiment`]: it owns its workload
//! definition and returns an [`ExperimentReport`] whose table contains a
//! `paper` column (the theory prediction / scale) next to each `measured`
//! column, so the claim-vs-measurement comparison that `EXPERIMENTS.md`
//! records is produced mechanically.

pub mod experiment;
mod experiments;
mod faultspec;
pub mod json;
pub mod replicate;
pub mod table;

pub use experiment::{
    all_experiments, experiment_by_id, Experiment, ExperimentReport, PerfSummary, RunOptions, Scale,
};
pub use faultspec::{describe_fault_plan, parse_fault_spec};
pub use json::JsonlTrace;
pub use replicate::replicate;
pub use table::Table;
