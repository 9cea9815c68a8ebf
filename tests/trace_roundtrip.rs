//! Integration: every line the `--trace` JSONL sink emits parses back as
//! JSON and carries the documented keys with the documented types, for
//! all seven event kinds (`round`, `fault`, `run`, `pool`, `batch`,
//! `cluster`, `service`). The parser is the shared one in
//! `pba_core::json` — the same implementation the cluster wire codec
//! reads frames with.

use std::sync::Arc;

use pba::core::json::{parse, Json};
use pba::core::{ProblemSpec, RunConfig};
use pba::prelude::*;
use pba::runner::JsonlTrace;

fn obj(v: &Json) -> &std::collections::BTreeMap<String, Json> {
    v.as_obj()
        .unwrap_or_else(|| panic!("expected object, got {v:?}"))
}

fn expect_num(m: &std::collections::BTreeMap<String, Json>, key: &str) -> f64 {
    match m.get(key).and_then(Json::as_f64) {
        Some(x) => x,
        None => panic!("key '{key}' should be a number, got {:?}", m.get(key)),
    }
}

fn expect_str<'a>(m: &'a std::collections::BTreeMap<String, Json>, key: &str) -> &'a str {
    match m.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("key '{key}' should be a string, got {other:?}"),
    }
}

fn expect_num_array(m: &std::collections::BTreeMap<String, Json>, key: &str) -> Vec<f64> {
    match m.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| match v.as_f64() {
                Some(x) => x,
                None => panic!("'{key}' element should be a number, got {v:?}"),
            })
            .collect(),
        other => panic!("key '{key}' should be an array, got {other:?}"),
    }
}

const ROUND_NUM_KEYS: [&str; 19] = [
    "seed",
    "m",
    "n",
    "lanes",
    "round",
    "active_before",
    "requests",
    "granted",
    "committed",
    "wasted_grants",
    "underloaded_bins",
    "unfilled_want",
    "max_load",
    "msg_requests",
    "msg_responses",
    "msg_commits",
    "gather_nanos",
    "count_scan_nanos",
    "grant_nanos",
];

const BATCH_NUM_KEYS: [&str; 12] = [
    "seed",
    "n",
    "batch",
    "arrivals",
    "departures",
    "arrival_weight",
    "resident",
    "max_load",
    "gap",
    "failed_domains",
    "fault_redirects",
    "wall_nanos",
];

const FAULT_NUM_KEYS: [&str; 11] = [
    "seed",
    "m",
    "n",
    "lanes",
    "round",
    "dropped_requests",
    "crash_redraws",
    "crash_lost",
    "straggler_balls",
    "deferred_balls",
    "backoff_escalations",
];

const SERVICE_NUM_KEYS: [&str; 16] = [
    "seed",
    "n",
    "queue",
    "rate",
    "checkpoint",
    "batches",
    "balls",
    "resident",
    "max_load",
    "gap",
    "p50_nanos",
    "p99_nanos",
    "p999_nanos",
    "max_nanos",
    "wall_nanos",
    "snapshot_bytes",
];

const CLUSTER_NUM_KEYS: [&str; 12] = [
    "seed",
    "n",
    "shards",
    "shard",
    "lo",
    "hi",
    "frames_sent",
    "frames_recv",
    "bytes_sent",
    "bytes_recv",
    "barriers",
    "killed",
];

#[test]
fn every_trace_line_parses_with_documented_schema() {
    let dir = std::env::temp_dir().join("pba_trace_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
    let trace = Arc::new(JsonlTrace::create(&path).unwrap());

    // Engine events (round/run, plus pool under the parallel executor).
    let spec = ProblemSpec::new(1 << 12, 1 << 8).unwrap();
    pba::protocols::run_by_name(
        "collision",
        spec,
        RunConfig::seeded(3).parallel().with_metrics(trace.clone()),
    )
    .expect("registry name")
    .expect("run succeeds");

    // A fault-injected run so `fault` events appear in the trace. A
    // drop-only plan keeps any capacity-constrained protocol feasible.
    pba::protocols::run_by_name(
        "collision",
        spec,
        RunConfig::seeded(4)
            .with_faults(FaultPlan::new(9).with_drop_prob(0.2))
            .with_metrics(trace.clone()),
    )
    .expect("registry name")
    .expect("faulted run succeeds");

    // Streaming batch events, departures included.
    let mut alloc =
        StreamAllocator::new(64, 9, PolicyKind::BatchedTwoChoice).with_metrics(trace.clone());
    let mut traffic = Workload::new(WorkloadCfg::uniform(256).with_churn(0.5), 11);
    for _ in 0..3 {
        alloc.ingest(&traffic.next_batch());
    }

    // Service checkpoint events: replay through the facade with a
    // mid-replay snapshot, so one window reports nonzero snapshot_bytes.
    let alloc =
        StreamAllocator::new(64, 9, PolicyKind::BatchedTwoChoice).with_metrics(trace.clone());
    let mut traffic = Workload::new(WorkloadCfg::uniform(256).with_churn(0.5), 11);
    let cfg = ServiceConfig::default()
        .with_checkpoint_every(2)
        .with_snapshot_at(3);
    let (_, report) = replay(alloc, &mut traffic, 6, cfg);
    assert_eq!(report.checkpoints.len(), 3);

    // Cluster events: a 2-shard in-thread cluster run over the same sink.
    pba::cluster::ClusterConfig::engine("collision", spec, 7)
        .with_shards(2)
        .with_metrics(trace.clone())
        .run_local()
        .expect("cluster run succeeds");

    trace.flush().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let mut rounds = 0usize;
    let mut faults = 0usize;
    let mut runs = 0usize;
    let mut batches = 0usize;
    let mut clusters = 0usize;
    let mut services = 0usize;
    let mut snapshot_bytes = 0.0f64;
    for (lineno, line) in text.lines().enumerate() {
        let parsed =
            parse(line).unwrap_or_else(|e| panic!("line {lineno} is not valid JSON ({e}): {line}"));
        let m = obj(&parsed);
        match expect_str(m, "event") {
            "round" => {
                rounds += 1;
                expect_str(m, "protocol");
                expect_str(m, "executor");
                for key in ROUND_NUM_KEYS {
                    expect_num(m, key);
                }
                assert!(expect_num(m, "total_nanos") >= expect_num(m, "resolve_commit_nanos"));
            }
            "fault" => {
                faults += 1;
                expect_str(m, "protocol");
                expect_str(m, "executor");
                for key in FAULT_NUM_KEYS {
                    expect_num(m, key);
                }
            }
            "run" => {
                runs += 1;
                expect_str(m, "protocol");
                expect_str(m, "executor");
                for key in ["seed", "m", "n", "lanes", "rounds", "placed", "unallocated"] {
                    expect_num(m, key);
                }
                assert!(expect_num(m, "wall_nanos") > 0.0);
            }
            "pool" => {
                for key in ["jobs", "tasks", "busy_nanos_total"] {
                    expect_num(m, key);
                }
                let lanes = expect_num(m, "lanes") as usize;
                assert_eq!(expect_num_array(m, "busy_nanos").len(), lanes);
            }
            "batch" => {
                batches += 1;
                assert_eq!(expect_str(m, "policy"), "batched-two-choice");
                for key in BATCH_NUM_KEYS {
                    expect_num(m, key);
                }
            }
            "service" => {
                services += 1;
                assert_eq!(expect_str(m, "policy"), "batched-two-choice");
                for key in SERVICE_NUM_KEYS {
                    expect_num(m, key);
                }
                assert!(expect_num(m, "p99_nanos") >= expect_num(m, "p50_nanos"));
                assert!(expect_num(m, "p999_nanos") >= expect_num(m, "p99_nanos"));
                assert!(expect_num(m, "max_nanos") >= expect_num(m, "p999_nanos"));
                snapshot_bytes += expect_num(m, "snapshot_bytes");
            }
            "cluster" => {
                clusters += 1;
                assert_eq!(expect_str(m, "mode"), "engine");
                assert_eq!(expect_str(m, "workload"), "collision");
                for key in CLUSTER_NUM_KEYS {
                    expect_num(m, key);
                }
                assert!(expect_num(m, "hi") > expect_num(m, "lo"));
                assert!(expect_num(m, "frames_sent") > 0.0);
            }
            other => panic!("line {lineno}: unknown event kind '{other}'"),
        }
    }
    assert!(rounds > 0, "no round events traced");
    assert!(faults > 0, "the 20% drop plan must trace fault events");
    assert_eq!(runs, 3, "one run event per engine run, cluster included");
    assert_eq!(
        batches, 9,
        "one batch event per ingested batch, service-driven included"
    );
    assert_eq!(clusters, 2, "one cluster event per shard");
    assert_eq!(services, 3, "one service event per checkpoint window");
    assert!(
        snapshot_bytes > 0.0,
        "the snapshot-at window must report its snapshot size"
    );
}
