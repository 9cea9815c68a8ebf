//! `pba-perfbench`: the end-to-end and per-layer benchmark of the pba
//! engine, ingest service and cluster.
//!
//! ```text
//! pba-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `NAME` is one of `engine-wide`, `engine-heavy`, `serve-churn`,
//! `cluster-2`, or `all` (each workload in its own child process, in
//! turn). With `--trace 0` the run is timed and reports the end-to-end
//! metrics; with `--trace 1` it also runs traced operations and reports
//! the per-layer metrics, writing its spans to
//! `$CARGO_TARGET_DIR/perfbench/spans-NAME-seedN.jsonl` (`target/…` when
//! the variable is unset). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The process
//! exits nonzero when any output check fails. See README.md beside this
//! crate for what each metric means.

mod cluster;
mod engine;
mod host;
mod metrics;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::report::Outcome;
use crate::trace::Tracer;

/// Every workload, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["engine-wide", "engine-heavy", "serve-churn", "cluster-2"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: pba-perfbench --workload engine-wide|engine-heavy|serve-churn|cluster-2|all \
     --seed N --seconds S --trace 0|1";

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => opts.workload = value.clone(),
                "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("bad --seconds {value}"))?
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
            return Err(format!("unknown workload '{}'", opts.workload));
        }
        Ok(opts)
    }

    fn args(&self, workload: &str) -> Vec<String> {
        vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ]
    }
}

/// Where spans and worker stamps go: beside the build output.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// Pin glibc's allocation thresholds. By default glibc raises its mmap
/// threshold after the first large free, so a later repetition may reuse
/// freed heap memory instead of mapping and first-touching fresh pages,
/// and its set-up time and peak RSS then depend on what ran before. With
/// the thresholds fixed, every array of 1 MiB or more is mapped fresh on
/// every repetition, as in a one-shot `pba-run`, while the per-batch
/// buffers of the service stay on the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets glibc allocator parameters, takes plain
    // integers, and runs here before this process starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 1 << 20);
        mallopt(M_TRIM_THRESHOLD, 2 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("shard-worker") {
        return cluster::worker_main();
    }
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pba-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        run_all(&opts)
    } else {
        run_one(&opts)
    }
}

/// Run every workload in its own child process, one after another.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pba-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        let status = Command::new(&exe).args(opts.args(workload)).status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload);
        }
    }
    if failed.is_empty() {
        println!("all: {} workloads passed their checks", WORKLOADS.len());
        ExitCode::SUCCESS
    } else {
        println!("all: FAILED {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn run_one(opts: &Opts) -> ExitCode {
    let facts = host::HostFacts::read();
    let before = host::Counters::read();
    let started = Instant::now();
    let out_dir = out_dir();
    let stamps = if opts.workload == "cluster-2" && opts.trace {
        match cluster::prepare_stamps(&out_dir) {
            // Set while this process is still single-threaded; every
            // shard-worker child inherits it.
            Ok(dir) => {
                std::env::set_var(cluster::STAMPS_ENV, &dir);
                Some(dir)
            }
            Err(e) => {
                eprintln!("pba-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let mut tracer = Tracer::new();
    let mut outcome = if opts.trace {
        let (mut outcome, layers) = match (opts.workload.as_str(), &stamps) {
            ("engine-wide", _) => engine::traced(&engine::ENGINE_WIDE, opts, &mut tracer),
            ("engine-heavy", _) => engine::traced(&engine::ENGINE_HEAVY, opts, &mut tracer),
            ("serve-churn", _) => serve::traced(opts, &mut tracer),
            (_, Some(dir)) => cluster::traced(opts, dir, &mut tracer),
            _ => unreachable!("workload validated by Opts::parse"),
        };
        outcome.metrics = layers.metrics();
        outcome
    } else {
        match opts.workload.as_str() {
            "engine-wide" => engine::timed(&engine::ENGINE_WIDE, opts),
            "engine-heavy" => engine::timed(&engine::ENGINE_HEAVY, opts),
            "serve-churn" => serve::timed(opts),
            _ => cluster::timed(opts),
        }
    };

    let after = host::Counters::read();
    let steal_s = before.steal_s_until(&after);
    println!(
        "host: cpu=\"{}\" nproc={} lanes={} mem_total_mb={:.0} wall_s={:.3} steal_s={:.2} \
         minor_faults={} child_minor_faults={}",
        facts.cpu_model,
        facts.nproc,
        facts.lanes,
        facts.mem_total_mb,
        started.elapsed().as_secs_f64(),
        steal_s,
        after.minflt.saturating_sub(before.minflt),
        after.cminflt.saturating_sub(before.cminflt),
    );
    if opts.trace {
        let host_metrics = [
            ("host.steal_s", steal_s, "s"),
            ("host.nproc", facts.nproc as f64, "count"),
            ("host.mem_total_mb", facts.mem_total_mb, "MiB"),
        ];
        for (name, value, unit) in host_metrics {
            outcome.push(name, value, unit);
        }
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => outcome
                .failures
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    if let Some(dir) = &stamps {
        let _ = std::fs::remove_dir_all(dir);
    }
    finish(opts, &outcome)
}

/// Print the checks, the metric table and the JSON result line.
fn finish(opts: &Opts, outcome: &Outcome) -> ExitCode {
    for why in &outcome.failures {
        println!("check FAILED: {why}");
    }
    println!(
        "{} seed={} trace={}: {} of {} operations failed; checks {}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace),
        outcome.failed,
        outcome.attempted,
        if outcome.correct() {
            "passed"
        } else {
            "FAILED"
        }
    );
    if !opts.trace {
        println!(
            "times scaled by the median CPU share the hypervisor left the VM: {:.4}",
            outcome.kept
        );
    }
    print!("{}", outcome.table());
    println!("{}", outcome.json());
    if outcome.correct() && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let opts = Opts::parse(&args(
            "--workload serve-churn --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            opts,
            Opts {
                workload: "serve-churn".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert_eq!(
            Opts::parse(&opts.args("cluster-2")).unwrap().workload,
            "cluster-2"
        );
        assert!(Opts::parse(&args("--workload nope")).is_err());
        assert!(Opts::parse(&args("--workload all --trace 2")).is_err());
        assert!(Opts::parse(&args("--workload all --seed")).is_err());
    }
}
