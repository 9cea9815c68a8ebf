//! The [`Experiment`] trait and registry.

use std::sync::Arc;
use std::time::Instant;

use pba_core::metrics::{EngineMetrics, FanoutSink, MetricsReport, MetricsSink, Phase};
use pba_core::RunConfig;

use crate::experiments;
use crate::table::Table;

/// How large and how replicated an experiment run is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny sizes, 2 seeds — used by the integration tests.
    Smoke,
    /// Moderate sizes, ~5 seeds — seconds per experiment.
    Default,
    /// Paper-style sizes, ~15 seeds — the numbers in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "default" => Some(Scale::Default),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Standard replication count at this scale.
    pub(crate) fn reps(&self) -> usize {
        match self {
            Scale::Smoke => 2,
            Scale::Default => 5,
            Scale::Full => 15,
        }
    }
}

/// Harness-level options threaded through every engine run an experiment
/// performs.
///
/// The harness helpers (`crate::replicate::replicate_outcomes_with`,
/// `RunOptions::config`) build their `RunConfig` through this factory,
/// so attaching a sink here observes *every* run of the experiment —
/// including the replicated ones fanned out across the pool.
#[derive(Clone, Default)]
pub struct RunOptions {
    /// Observability sink attached to every engine run.
    pub metrics: Option<Arc<dyn MetricsSink>>,
}

impl RunOptions {
    /// Default options: sequential, per-bin tracking, no sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a sink observing every engine run.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The `RunConfig` factory used by all harness helpers: sequential,
    /// per-bin tracking, trace recorded, sink attached when present.
    pub(crate) fn config(&self, seed: u64) -> RunConfig {
        let config = RunConfig::seeded(seed);
        match &self.metrics {
            Some(sink) => config.with_metrics(sink.clone()),
            None => config,
        }
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field(
                "metrics",
                &if self.metrics.is_some() {
                    "Some(<sink>)"
                } else {
                    "None"
                },
            )
            .finish()
    }
}

/// Aggregated engine performance of one experiment run, attached to every
/// [`ExperimentReport`] by the provided [`Experiment::run`] wrapper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfSummary {
    /// Everything the harness's [`EngineMetrics`] aggregator saw.
    pub engine: MetricsReport,
    /// Wall-clock nanoseconds for the whole experiment (harness included;
    /// replicated runs overlap, so this can be far below
    /// `engine.run_nanos`).
    pub wall_nanos: u64,
}

impl PerfSummary {
    /// Balls placed per second of engine run time.
    pub fn balls_per_sec(&self) -> f64 {
        self.engine.balls_per_sec()
    }

    /// One-paragraph markdown rendering (throughput + phase split).
    pub(crate) fn to_markdown(&self) -> String {
        let e = &self.engine;
        let mut out = if e.runs == 0 && e.batches > 0 {
            // Streaming experiments drive the batch allocator, not the
            // round engine: report batch throughput instead.
            format!(
                "*Perf.* {} batches, {} arrivals in {}; {} batches/s, {} balls/s",
                e.batches,
                e.batch_arrivals,
                fmt_duration(self.wall_nanos),
                fmt_rate(e.batches_per_sec()),
                fmt_rate(e.stream_balls_per_sec()),
            )
        } else {
            format!(
                "*Perf.* {} runs, {} rounds, {} balls in {}; {} balls/s, {} rounds/s",
                e.runs,
                e.rounds,
                e.placed,
                fmt_duration(self.wall_nanos),
                fmt_rate(e.balls_per_sec()),
                fmt_rate(e.rounds_per_sec()),
            )
        };
        if e.phase_nanos.iter().any(|&n| n > 0) {
            let split: Vec<String> = Phase::ALL
                .iter()
                .map(|&p| format!("{} {:.0}%", p.name(), 100.0 * e.phase_fraction(p)))
                .collect();
            out.push_str(&format!("; phases: {}", split.join(", ")));
        }
        if let Some(pool) = &e.pool {
            out.push_str(&format!(
                "; pool: {} jobs, {} tasks, busy {}",
                pool.jobs,
                pool.tasks,
                fmt_duration(pool.total_busy_nanos())
            ));
        }
        out.push('\n');
        out
    }
}

/// Human-friendly duration from nanoseconds.
fn fmt_duration(nanos: u64) -> String {
    let secs = nanos as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else {
        format!("{:.0}µs", secs * 1e6)
    }
}

/// Human-friendly rate (k/M suffixes).
fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

/// The output of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"e03"`.
    pub id: &'static str,
    /// Short title.
    pub title: &'static str,
    /// The paper claim being reproduced (one paragraph).
    pub claim: &'static str,
    /// Result tables (usually one).
    pub tables: Vec<Table>,
    /// Free-form observations (shape checks, caveats).
    pub notes: Vec<String>,
    /// Engine throughput and phase split, filled by the provided
    /// [`Experiment::run`] / [`Experiment::run_with`] wrappers
    /// (`None` when [`Experiment::execute`] is called directly).
    pub perf: Option<PerfSummary>,
}

impl ExperimentReport {
    /// Render the whole report as markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!(
            "## {} — {}\n\n*Claim.* {}\n\n",
            self.id.to_uppercase(),
            self.title,
            self.claim
        );
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("*Notes.*\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
            out.push('\n');
        }
        if let Some(perf) = &self.perf {
            out.push_str(&perf.to_markdown());
            out.push('\n');
        }
        out
    }
}

/// A reproducible experiment: a workload, a sweep, and a
/// theory-vs-measured table.
///
/// Implementors provide [`execute`](Experiment::execute) and build every
/// engine run through the given [`RunOptions`] (typically via
/// `replicate_outcomes_with` or `RunOptions::config`); callers use the
/// provided [`run`](Experiment::run) / [`run_with`](Experiment::run_with),
/// which attach the harness's [`EngineMetrics`] aggregator and fill
/// [`ExperimentReport::perf`] with throughput and phase-split numbers.
pub trait Experiment: Sync {
    /// Stable id (`"e01"`…`"e19"`).
    fn id(&self) -> &'static str;
    /// Short title for listings.
    fn title(&self) -> &'static str;
    /// Run at the given scale, threading `opts` into every engine run.
    fn execute(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport;

    /// Run at the given scale with default options plus perf aggregation.
    fn run(&self, scale: Scale) -> ExperimentReport {
        self.run_with(scale, &RunOptions::default())
    }

    /// Like [`run`](Experiment::run), but also forwarding every engine
    /// event to the caller's sink (when `opts.metrics` is set) — e.g. a
    /// JSONL trace writer — while still aggregating perf.
    fn run_with(&self, scale: Scale, opts: &RunOptions) -> ExperimentReport {
        let aggregate = Arc::new(EngineMetrics::new());
        let sink: Arc<dyn MetricsSink> = match &opts.metrics {
            None => aggregate.clone(),
            Some(caller) => Arc::new(FanoutSink::new(vec![
                aggregate.clone() as Arc<dyn MetricsSink>,
                caller.clone(),
            ])),
        };
        let inner = RunOptions::new().with_metrics(sink);
        let started = Instant::now();
        let mut report = self.execute(scale, &inner);
        report.perf = Some(PerfSummary {
            engine: aggregate.report(),
            wall_nanos: started.elapsed().as_nanos() as u64,
        });
        report
    }
}

/// All experiments, in id order.
pub fn all_experiments() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(experiments::e01_naive::E01),
        Box::new(experiments::e02_two_choice::E02),
        Box::new(experiments::e03_threshold_heavy::E03),
        Box::new(experiments::e04_underload::E04),
        Box::new(experiments::e05_lower_bound::E05),
        Box::new(experiments::e06_asymmetric::E06),
        Box::new(experiments::e07_collision::E07),
        Box::new(experiments::e08_stemann_heavy::E08),
        Box::new(experiments::e09_adler::E09),
        Box::new(experiments::e10_messages::E10),
        Box::new(experiments::e11_fixed_threshold::E11),
        Box::new(experiments::e12_batched::E12),
        Box::new(experiments::e13_ablation::E13),
        Box::new(experiments::e14_preliminaries::E14),
        Box::new(experiments::e15_stream_batches::E15),
        Box::new(experiments::e16_churn::E16),
        Box::new(experiments::e17_weighted::E17),
        Box::new(experiments::e18_message_loss::E18),
        Box::new(experiments::e19_shard_failures::E19),
        Box::new(experiments::e24_kd_choice::E24),
        Box::new(experiments::e25_estimated_average::E25),
    ]
}

/// Find one experiment by id (case-insensitive).
pub fn experiment_by_id(id: &str) -> Option<Box<dyn Experiment>> {
    let id = id.to_lowercase();
    all_experiments().into_iter().find(|e| e.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_ordered() {
        let all = all_experiments();
        assert_eq!(all.len(), 21);
        // E1–E19 are dense; E24/E25 (the protocol-family studies) follow
        // the EXPERIMENTS.md numbering, where E20–E23 are the
        // cluster/wire/replay studies reported outside this registry.
        let ids: Vec<&str> = all.iter().map(|e| e.id()).collect();
        for (i, id) in ids.iter().take(19).enumerate() {
            assert_eq!(*id, format!("e{:02}", i + 1));
        }
        assert_eq!(&ids[19..], &["e24", "e25"]);
        for e in &all {
            assert!(!e.title().is_empty());
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate experiment ids");
    }

    #[test]
    fn lookup_by_id() {
        assert!(experiment_by_id("e07").is_some());
        assert!(experiment_by_id("E07").is_some());
        assert!(experiment_by_id("e99").is_none());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("nope"), None);
        assert!(Scale::Full.reps() > Scale::Smoke.reps());
    }

    #[test]
    fn run_fills_perf_and_markdown_renders_it() {
        let e = experiment_by_id("e07").unwrap();
        let report = e.run(Scale::Smoke);
        let perf = report.perf.as_ref().expect("run() aggregates perf");
        assert!(perf.engine.runs > 0);
        assert!(perf.engine.rounds > 0);
        assert!(perf.engine.placed > 0);
        assert!(perf.balls_per_sec() > 0.0);
        assert!(perf.wall_nanos > 0);
        assert!(report.to_markdown().contains("*Perf.*"));
    }

    #[test]
    fn run_with_forwards_events_to_caller_sink() {
        let caller = Arc::new(EngineMetrics::new());
        let e = experiment_by_id("e07").unwrap();
        let opts = RunOptions::new().with_metrics(caller.clone());
        let report = e.run_with(Scale::Smoke, &opts);
        // The caller's sink and the harness aggregator saw the same runs.
        let perf = report.perf.unwrap();
        assert_eq!(caller.report().rounds, perf.engine.rounds);
        assert_eq!(caller.report().placed, perf.engine.placed);
    }

    #[test]
    fn execute_without_wrapper_leaves_perf_unset() {
        let e = experiment_by_id("e07").unwrap();
        let report = e.execute(Scale::Smoke, &RunOptions::default());
        assert!(report.perf.is_none());
        // No sink attached: the report still renders without a perf block.
        assert!(!report.to_markdown().contains("*Perf.*"));
    }

    #[test]
    fn run_options_config_attaches_sink() {
        let opts = RunOptions::default();
        assert!(opts.config(3).metrics.is_none());
        assert_eq!(opts.config(3).seed, 3);
        let sink = Arc::new(EngineMetrics::new());
        let opts = RunOptions::new().with_metrics(sink);
        assert!(opts.config(4).metrics.is_some());
    }
}
