//! The benchmark's metric sets. Every workload reports every metric of a
//! set, so the names and units are fixed here once; a per-layer metric
//! of a layer a workload never calls reads 0.

use std::collections::BTreeMap;

use crate::report::Metric;
use crate::stats::{mean, median, secs};
use crate::trace::Tracer;

/// The end-to-end metrics (timed runs, tracing off).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct EndToEnd {
    pub balls_per_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub batch_p50_ms: f64,
    pub batch_p90_ms: f64,
    pub wire_bytes_per_ball: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("balls_per_s", self.balls_per_s, "balls/s"),
            m("setup_s", self.setup_s, "s"),
            m("peak_rss_mb", self.peak_rss_mb, "MiB"),
            m("batch_p50_ms", self.batch_p50_ms, "ms"),
            m("batch_p90_ms", self.batch_p90_ms, "ms"),
            m("wire_bytes_per_ball", self.wire_bytes_per_ball, "B/ball"),
        ]
    }
}

/// Layers whose self time the traced run reports (`self.<layer>_s`).
pub const SELF_LAYERS: [&str; 7] = [
    "core",
    "exec",
    "protocols",
    "stream",
    "wire",
    "snapshot",
    "cluster",
];

/// The per-layer metrics (traced run). Times are per operation: per
/// engine run, per served batch (stream and wire), per session
/// (snapshot) or per cluster run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers {
    pub core_setup_s: f64,
    pub core_minor_faults: f64,
    pub exec_gather_s: f64,
    pub exec_count_scan_s: f64,
    pub exec_grant_s: f64,
    pub exec_resolve_commit_s: f64,
    pub exec_rounds: f64,
    pub exec_requests: f64,
    pub par_busy_s: f64,
    pub par_idle_share: f64,
    pub par_jobs: f64,
    pub par_tasks: f64,
    pub par_speedup: f64,
    pub protocols_messages_per_ball: f64,
    pub stream_ingest_s: f64,
    pub stream_gen_s: f64,
    pub wire_decode_s: f64,
    pub wire_encode_s: f64,
    pub wire_bytes_per_batch: f64,
    pub snapshot_restore_s: f64,
    pub snapshot_encode_s: f64,
    pub snapshot_bytes: f64,
    pub cluster_setup_s: f64,
    pub cluster_teardown_s: f64,
    pub cluster_barriers: f64,
    pub cluster_inprocess_ratio: f64,
    pub cluster_frames: f64,
    pub cluster_bytes: f64,
    pub serve_batch_p99_ms: f64,
    pub serve_batch_max_ms: f64,
    pub trace_overhead_share: f64,
    pub trace_unattributed_s: f64,
    /// Mean self seconds per traced operation, by layer.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Layers {
    /// Tracing overhead, unattributed time and per-layer self time, from
    /// the traced operations (root spans named `op`) against the untraced
    /// ones (`plain` and `traced` are their walls).
    pub fn fill_trace(&mut self, tracer: &Tracer, plain: &[f64], traced: &[f64]) {
        if let (Some(plain), Some(traced)) = (median(plain), median(traced)) {
            self.trace_overhead_share = traced / plain - 1.0;
        }
        let roots: Vec<f64> = tracer
            .spans()
            .iter()
            .zip(tracer.self_nanos())
            .filter(|(s, _)| s.parent.is_none() && s.name == "op")
            .map(|(_, n)| secs(n))
            .collect();
        self.trace_unattributed_s = mean(&roots).unwrap_or(0.0);
        let count = roots.len().max(1) as f64;
        let by_layer = tracer.layer_self_nanos("op");
        for layer in SELF_LAYERS {
            let total = by_layer.get(layer).copied().unwrap_or(0);
            self.self_s.insert(layer, secs(total) / count);
        }
    }

    pub fn metrics(&self) -> Vec<Metric> {
        let m = |name, value, unit| Metric { name, value, unit };
        let mut out = vec![
            m("core.setup_s", self.core_setup_s, "s"),
            m("core.minor_faults", self.core_minor_faults, "count"),
            m("exec.gather_s", self.exec_gather_s, "s"),
            m("exec.count_scan_s", self.exec_count_scan_s, "s"),
            m("exec.grant_s", self.exec_grant_s, "s"),
            m("exec.resolve_commit_s", self.exec_resolve_commit_s, "s"),
            m("exec.rounds", self.exec_rounds, "count"),
            m("exec.requests", self.exec_requests, "count"),
            m("par.busy_s", self.par_busy_s, "s"),
            m("par.idle_share", self.par_idle_share, "ratio"),
            m("par.jobs", self.par_jobs, "count"),
            m("par.tasks", self.par_tasks, "count"),
            m("par.speedup", self.par_speedup, "ratio"),
            m(
                "protocols.messages_per_ball",
                self.protocols_messages_per_ball,
                "msgs/ball",
            ),
            m("stream.ingest_s", self.stream_ingest_s, "s"),
            m("stream.gen_s", self.stream_gen_s, "s"),
            m("wire.decode_s", self.wire_decode_s, "s"),
            m("wire.encode_s", self.wire_encode_s, "s"),
            m("wire.bytes_per_batch", self.wire_bytes_per_batch, "B"),
            m("snapshot.restore_s", self.snapshot_restore_s, "s"),
            m("snapshot.encode_s", self.snapshot_encode_s, "s"),
            m("snapshot.bytes", self.snapshot_bytes, "B"),
            m("cluster.setup_s", self.cluster_setup_s, "s"),
            m("cluster.teardown_s", self.cluster_teardown_s, "s"),
            m("cluster.barriers", self.cluster_barriers, "count"),
            m(
                "cluster.inprocess_ratio",
                self.cluster_inprocess_ratio,
                "ratio",
            ),
            m("cluster.frames", self.cluster_frames, "count"),
            m("cluster.bytes", self.cluster_bytes, "B"),
            m("serve.batch_p99_ms", self.serve_batch_p99_ms, "ms"),
            m("serve.batch_max_ms", self.serve_batch_max_ms, "ms"),
            m("trace.overhead_share", self.trace_overhead_share, "ratio"),
            m("trace.unattributed_s", self.trace_unattributed_s, "s"),
        ];
        for (layer, name) in SELF_LAYERS.iter().zip(SELF_NAMES) {
            out.push(m(name, self.self_s.get(layer).copied().unwrap_or(0.0), "s"));
        }
        out
    }
}

const SELF_NAMES: [&str; 7] = [
    "self.core_s",
    "self.exec_s",
    "self.protocols_s",
    "self.stream_s",
    "self.wire_s",
    "self.snapshot_s",
    "self.cluster_s",
];
