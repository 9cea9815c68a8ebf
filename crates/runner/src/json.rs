//! JSON artifacts for the runner: the [`JsonlTrace`] sink behind
//! `--trace`. The escaping/formatting primitives live in
//! [`pba_core::json`].

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

use pba_core::metrics::{
    BatchRecord, ClusterMeta, ClusterShardRecord, MetricsSink, Phase, RoundTiming, RunMeta,
    RunSummary, ServiceMeta, ServiceRecord, StreamMeta,
};
use pba_core::trace::RoundRecord;
use pba_core::{ExecutorKind, FaultRecord};
use pba_par::PoolStats;

use pba_core::json::{u64_array, JsonObject};

/// Stable textual form of an executor for JSON fields.
fn executor_str(executor: ExecutorKind) -> String {
    match executor {
        ExecutorKind::Sequential => "sequential".into(),
        ExecutorKind::Parallel => "parallel".into(),
        ExecutorKind::ParallelWith(lanes) => format!("parallel({lanes})"),
    }
}

/// Shared meta fields prefixed to every JSONL event.
fn meta_fields(event: &str, meta: &RunMeta) -> JsonObject {
    JsonObject::new()
        .str("event", event)
        .str("protocol", meta.protocol)
        .u64("seed", meta.seed)
        .u64("m", meta.spec.balls())
        .u64("n", meta.spec.bins() as u64)
        .str("executor", &executor_str(meta.executor))
        .u64("lanes", meta.lanes as u64)
}

/// A [`MetricsSink`] that streams every engine event as one JSON object
/// per line (JSON Lines), the format behind `pba-run … --trace out.jsonl`.
///
/// Seven event kinds share a file, discriminated by the `"event"` field:
///
/// * `"round"` — the full [`RoundRecord`] plus per-phase nanoseconds
///   (`gather_nanos`, `count_scan_nanos`, `grant_nanos`,
///   `resolve_commit_nanos`, `total_nanos`);
/// * `"fault"` — injected-fault counts for one round ([`FaultRecord`],
///   fault-injected runs only, emitted immediately before that round's
///   `"round"` line and only when at least one fault fired);
/// * `"run"` — end-of-run totals ([`RunSummary`]);
/// * `"pool"` — thread-pool utilization delta ([`PoolStats`], parallel
///   executors only);
/// * `"batch"` — one streaming batch ([`BatchRecord`], `pba-run stream`
///   and the streaming experiments E15–E19);
/// * `"cluster"` — one shard process's wire totals at the end of a
///   `pba-run cluster` run ([`ClusterShardRecord`]: frames/bytes each
///   way, barrier count, wall time, kill flag);
/// * `"service"` — one replay-service checkpoint window
///   ([`ServiceRecord`], `pba-run serve`): latency percentiles
///   (`p50_nanos`/`p99_nanos`/`p999_nanos`/`max_nanos`), gap, resident
///   count, and the snapshot size when one was taken in the window.
///
/// Every line carries the run identity (`protocol`, `seed`, `m`, `n`,
/// `executor`, `lanes` — or `policy`, `seed`, `n` for batch and service
/// events), so traces of replicated runs interleave safely.
pub struct JsonlTrace {
    out: Mutex<BufWriter<File>>,
}

impl JsonlTrace {
    /// Create (truncate) the trace file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            out: Mutex::new(BufWriter::new(file)),
        })
    }

    fn write_line(&self, line: &str) {
        let mut out = self.out.lock().unwrap();
        // A trace write failing mid-run (disk full) should not abort the
        // simulation; the final flush() reports the error.
        let _ = writeln!(out, "{line}");
    }

    /// Flush buffered lines to disk, surfacing any deferred write error.
    pub fn flush(&self) -> io::Result<()> {
        self.out.lock().unwrap().flush()
    }
}

impl MetricsSink for JsonlTrace {
    fn on_round(&self, meta: &RunMeta, record: &RoundRecord, timing: &RoundTiming) {
        let line = meta_fields("round", meta)
            .u64("round", record.round as u64)
            .u64("active_before", record.active_before)
            .u64("requests", record.requests)
            .u64("granted", record.granted)
            .u64("committed", record.committed)
            .u64("wasted_grants", record.wasted_grants)
            .u64("underloaded_bins", record.underloaded_bins as u64)
            .u64("unfilled_want", record.unfilled_want)
            .u64("max_load", record.max_load as u64)
            .u64("msg_requests", record.messages.requests)
            .u64("msg_responses", record.messages.responses)
            .u64("msg_commits", record.messages.commits)
            .u64("gather_nanos", timing.phase(Phase::Gather))
            .u64("count_scan_nanos", timing.phase(Phase::CountScan))
            .u64("grant_nanos", timing.phase(Phase::Grant))
            .u64("resolve_commit_nanos", timing.phase(Phase::ResolveCommit))
            .u64("total_nanos", timing.total_nanos)
            .finish();
        self.write_line(&line);
    }

    fn on_fault(&self, meta: &RunMeta, record: &FaultRecord) {
        let line = meta_fields("fault", meta)
            .u64("round", record.round as u64)
            .u64("dropped_requests", record.dropped_requests)
            .u64("crash_redraws", record.crash_redraws)
            .u64("crash_lost", record.crash_lost)
            .u64("straggler_balls", record.straggler_balls)
            .u64("deferred_balls", record.deferred_balls)
            .u64("backoff_escalations", record.backoff_escalations)
            .finish();
        self.write_line(&line);
    }

    fn on_run(&self, meta: &RunMeta, summary: &RunSummary) {
        let line = meta_fields("run", meta)
            .u64("rounds", summary.rounds as u64)
            .u64("placed", summary.placed)
            .u64("unallocated", summary.unallocated)
            .u64("wall_nanos", summary.wall_nanos)
            .finish();
        self.write_line(&line);
    }

    fn on_pool(&self, meta: &RunMeta, stats: &PoolStats) {
        let line = meta_fields("pool", meta)
            .u64("jobs", stats.jobs)
            .u64("tasks", stats.tasks)
            .u64("busy_nanos_total", stats.total_busy_nanos())
            .raw("busy_nanos", &u64_array(&stats.busy_nanos))
            .finish();
        self.write_line(&line);
    }

    fn on_batch(&self, meta: &StreamMeta, record: &BatchRecord) {
        let line = JsonObject::new()
            .str("event", "batch")
            .str("policy", meta.policy)
            .u64("seed", meta.seed)
            .u64("n", meta.bins as u64)
            .u64("batch", record.batch)
            .u64("arrivals", record.arrivals)
            .u64("departures", record.departures)
            .u64("arrival_weight", record.arrival_weight)
            .u64("resident", record.resident)
            .u64("max_load", record.max_load)
            .u64("gap", record.gap)
            .u64("wall_nanos", record.wall_nanos)
            .u64("failed_domains", record.failed_domains)
            .u64("fault_redirects", record.fault_redirects)
            .finish();
        self.write_line(&line);
    }

    fn on_cluster(&self, meta: &ClusterMeta, record: &ClusterShardRecord) {
        let line = JsonObject::new()
            .str("event", "cluster")
            .str("mode", meta.mode)
            .str("workload", meta.workload)
            .u64("seed", meta.seed)
            .u64("n", meta.bins as u64)
            .u64("shards", meta.shards as u64)
            .u64("shard", record.shard as u64)
            .u64("lo", record.lo as u64)
            .u64("hi", record.hi as u64)
            .u64("frames_sent", record.frames_sent)
            .u64("frames_recv", record.frames_recv)
            .u64("bytes_sent", record.bytes_sent)
            .u64("bytes_recv", record.bytes_recv)
            .u64("barriers", record.barriers)
            .u64("wall_nanos", record.wall_nanos)
            .u64("killed", record.killed as u64)
            .finish();
        self.write_line(&line);
    }

    fn on_service(&self, meta: &ServiceMeta, record: &ServiceRecord) {
        let line = JsonObject::new()
            .str("event", "service")
            .str("policy", meta.policy)
            .u64("seed", meta.seed)
            .u64("n", meta.bins as u64)
            .u64("queue", meta.queue as u64)
            .f64("rate", meta.rate)
            .u64("checkpoint", record.checkpoint)
            .u64("batches", record.batches)
            .u64("balls", record.balls)
            .u64("resident", record.resident)
            .u64("max_load", record.max_load)
            .u64("gap", record.gap)
            .u64("p50_nanos", record.p50_nanos)
            .u64("p99_nanos", record.p99_nanos)
            .u64("p999_nanos", record.p999_nanos)
            .u64("max_nanos", record.max_nanos)
            .u64("wall_nanos", record.wall_nanos)
            .u64("snapshot_bytes", record.snapshot_bytes)
            .finish();
        self.write_line(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::ProblemSpec;

    #[test]
    fn jsonl_trace_writes_one_line_per_event() {
        let dir = std::env::temp_dir().join("pba_jsonl_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
        let sink = JsonlTrace::create(&path).unwrap();
        let meta = RunMeta {
            spec: ProblemSpec::new(100, 10).unwrap(),
            seed: 1,
            protocol: "test",
            executor: ExecutorKind::Sequential,
            lanes: 1,
        };
        sink.on_round(&meta, &RoundRecord::default(), &RoundTiming::default());
        sink.on_fault(
            &meta,
            &FaultRecord {
                round: 2,
                dropped_requests: 5,
                ..Default::default()
            },
        );
        sink.on_run(&meta, &RunSummary::default());
        sink.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""event":"round""#));
        assert!(lines[0].contains(r#""gather_nanos":0"#));
        assert!(lines[1].contains(r#""event":"fault""#));
        assert!(lines[1].contains(r#""dropped_requests":5"#));
        assert!(lines[2].contains(r#""event":"run""#));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
        std::fs::remove_file(&path).ok();
    }
}
