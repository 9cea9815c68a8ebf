//! The cluster-2 workload: `ClusterConfig::run_process` with two
//! `shard-worker` children over pipes, the binary codec and overlapped
//! sends — the `pba-run cluster` defaults (layer `cluster`).
//!
//! This benchmark's own executable is the worker: `run_process` spawns
//! `<current exe> shard-worker`, which serves `pba_cluster::worker::serve`
//! on stdin/stdout. In the traced run `STAMPS_ENV` names a directory: the
//! worker then stamps the wall clock at the flush of each frame it sends
//! and writes two stamps there on exit: when its `ready` went out (end of
//! set-up) and when its drain reply began (start of teardown). Both
//! processes read the same system clock, so the orchestrator can place
//! them against its own call to `run_process`.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use pba_cluster::ClusterConfig;
use pba_core::metrics::{EngineMetrics, Phase};
use pba_core::{ProblemSpec, RunConfig};
use pba_protocols::run_by_name;

use crate::metrics::{EndToEnd, Layers};
use crate::report::{fingerprint, nanos_since, repeat_for, Outcome};
use crate::stats::{median_of, percentile, secs};
use crate::trace::Tracer;
use crate::{host, Opts};

pub const PROTOCOL: &str = "collision";
pub const M: u64 = 1 << 20;
pub const N: u32 = 1 << 20;
pub const SHARDS: u32 = 2;

/// Environment variable naming the directory workers write stamps to.
pub const STAMPS_ENV: &str = "PBA_PERFBENCH_STAMPS";

fn unix_ns(t: SystemTime) -> u64 {
    t.duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Stdout of a worker, stamping the end of every frame it sends
/// (`worker::serve` flushes once per frame).
struct StampedWriter<W: Write> {
    inner: W,
    open: bool,
    starts: Vec<u64>,
    ends: Vec<u64>,
}

impl<W: Write> Write for StampedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if !self.open {
            self.open = true;
            self.starts.push(unix_ns(SystemTime::now()));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()?;
        if self.open {
            self.open = false;
            self.ends.push(unix_ns(SystemTime::now()));
        }
        Ok(())
    }
}

/// The `shard-worker` child mode.
pub fn worker_main() -> ExitCode {
    let served = match std::env::var_os(STAMPS_ENV) {
        None => pba_cluster::worker::serve_stdio(),
        Some(dir) => {
            let mut out = StampedWriter {
                inner: std::io::stdout().lock(),
                open: false,
                starts: Vec::new(),
                ends: Vec::new(),
            };
            let served = pba_cluster::worker::serve(std::io::stdin().lock(), &mut out);
            // Frames sent: ready, the round replies, the drain reply, bye.
            if let (Some(&ready), Some(&drain)) = (out.ends.first(), out.starts.iter().rev().nth(1))
            {
                let path = Path::new(&dir).join(format!("worker-{}.txt", std::process::id()));
                if let Err(e) = std::fs::write(&path, format!("{ready} {drain}\n")) {
                    eprintln!("shard-worker: cannot write {}: {e}", path.display());
                }
            }
            served
        }
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(detail) => {
            eprintln!("shard-worker: {detail}");
            ExitCode::FAILURE
        }
    }
}

/// Collect (and remove) the stamps the last run's workers left:
/// `(set-up end, teardown start)` as the latest `ready` and the earliest
/// drain reply.
fn take_stamps(dir: &Path) -> Result<(u64, u64), String> {
    let mut ready = Vec::new();
    let mut drain = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        std::fs::remove_file(&path).map_err(|e| e.to_string())?;
        let mut fields = text.split_whitespace().map(str::parse::<u64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(r)), Some(Ok(d))) => {
                ready.push(r);
                drain.push(d);
            }
            _ => return Err(format!("malformed worker stamps {text:?}")),
        }
    }
    if ready.len() != SHARDS as usize {
        return Err(format!("{} worker stamps for {SHARDS} shards", ready.len()));
    }
    Ok((
        ready.into_iter().max().unwrap_or(0),
        drain.into_iter().min().unwrap_or(0),
    ))
}

/// What one cluster run measured.
#[derive(Debug, Clone)]
pub struct ClusterOp {
    pub wall_ns: u64,
    pub run_ns: u64,
    /// Spawning both children plus the hello/ready exchange (traced
    /// runs only).
    pub setup_ns: u64,
    /// From the first drain reply to `run_process` returning (traced
    /// runs only).
    pub teardown_ns: u64,
    pub phase_ns: [u64; 4],
    pub rounds: u32,
    pub requests: u64,
    pub messages: u64,
    pub frames: u64,
    pub bytes: u64,
    pub barriers: u64,
    pub minor_faults: u64,
    pub loads_fingerprint: u64,
    /// Share of the VM's CPU the hypervisor left it during the run.
    pub kept: f64,
}

/// Run the cluster once and check it: `run_process` verifies the drain
/// (every shard's loads against the orchestrator's), and the run must be
/// complete with Σ loads = placed = m. With a tracer, the call is a
/// `cluster` span whose round phases move to `exec` and the rest of its
/// round wall to `protocols`, and the workers' stamps in `stamps` give
/// its set-up and teardown.
pub fn run_op(
    seed: u64,
    stamps: Option<&Path>,
    tracer: Option<&mut Tracer>,
) -> Result<ClusterOp, String> {
    let spec = ProblemSpec::new(M, N).map_err(|e| format!("bad spec: {e}"))?;
    let sink = Arc::new(EngineMetrics::new());
    let config = ClusterConfig::engine(PROTOCOL, spec, seed)
        .with_shards(SHARDS)
        .with_metrics(sink.clone());
    let faults_before = host::minor_faults();
    let called = unix_ns(SystemTime::now());
    let steal = host::StealWindow::open();
    let start = Instant::now();
    let span = tracer.map(|t| (t.enter("cluster", "run_process"), t));
    let out = config.run_process();
    let wall_ns = nanos_since(start);
    let returned = unix_ns(SystemTime::now());
    let kept = steal.kept_share();
    if let Some((span, tracer)) = span {
        tracer.exit(span);
        let report = sink.report();
        let phases = report.phase_nanos.iter().sum::<u64>();
        tracer.attribute(span, "exec", phases);
        tracer.attribute(span, "protocols", report.run_nanos.saturating_sub(phases));
    }
    let minor_faults = host::minor_faults().saturating_sub(faults_before);
    // Clear the stamps even when the run failed, so none leak into the next.
    let taken = stamps.map(take_stamps).transpose();
    let out = out.map_err(|e| format!("cluster run failed: {e}"))?;
    let (setup_ns, teardown_ns) = match taken? {
        None => (0, 0),
        Some((ready, drain)) if called <= ready && ready <= drain && drain <= returned => {
            (ready - called, returned - drain)
        }
        Some((ready, drain)) => {
            return Err(format!(
                "worker stamps out of order: call {called}, ready {ready}, drain {drain}, \
                 return {returned}"
            ))
        }
    };
    let run = out
        .run
        .as_ref()
        .ok_or("cluster run returned no engine outcome")?;
    let load_sum: u64 = out.loads.iter().sum();
    let same_loads = run
        .loads
        .iter()
        .map(|&l| u64::from(l))
        .eq(out.loads.iter().copied());
    if !run.is_complete() || run.placed != M || load_sum != M || !same_loads {
        return Err(format!(
            "cluster: placed {} of m = {M}, Σ loads = {load_sum}, engine and drained loads agree: {same_loads}",
            run.placed
        ));
    }
    let report = sink.report();
    if report.runs != 1 || report.placed != M || report.cluster_shards != u64::from(SHARDS) {
        return Err(format!(
            "cluster metrics saw {} runs, {} placed, {} shards",
            report.runs, report.placed, report.cluster_shards
        ));
    }
    Ok(ClusterOp {
        wall_ns,
        run_ns: report.run_nanos,
        setup_ns,
        teardown_ns,
        phase_ns: report.phase_nanos,
        rounds: run.rounds,
        requests: run.messages.requests,
        messages: run.messages.total(),
        frames: report.cluster_frames,
        bytes: report.cluster_bytes,
        barriers: out.shard_records.first().map_or(0, |r| r.barriers),
        minor_faults,
        loads_fingerprint: fingerprint(out.loads.iter().copied()),
        kept,
    })
}

/// The stamp directory, created empty. Workers find it through
/// `STAMPS_ENV`, set once before any thread or child starts.
pub fn prepare_stamps(out_dir: &Path) -> Result<PathBuf, String> {
    let dir = out_dir.join("worker-stamps");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn step(
    opts: &Opts,
    stamps: Option<&Path>,
    tracer: Option<&mut Tracer>,
    first: &mut Option<u64>,
    outcome: &mut Outcome,
) -> Option<ClusterOp> {
    let result = run_op(opts.seed, stamps, tracer).and_then(|op| match first {
        Some(f) if *f != op.loads_fingerprint => {
            Err("cluster runs of one seed placed balls differently".to_owned())
        }
        _ => {
            *first = Some(op.loads_fingerprint);
            Ok(op)
        }
    });
    outcome.record(result)
}

/// The timed run: one warm-up run, then runs until `opts.seconds` have
/// passed. Its `setup_s` is the run's wall outside its rounds: spawning
/// and greeting the workers, the engine's allocation, and the drain and
/// shutdown, which `run_process` does not separate. Each run's times are
/// scaled by the CPU share the VM kept during it.
pub fn timed(opts: &Opts) -> Outcome {
    let mut outcome = Outcome::default();
    let mut first = None;
    step(opts, None, None, &mut first, &mut outcome);
    let mut ops = Vec::new();
    repeat_for(opts.seconds, 3, |_| {
        ops.extend(step(opts, None, None, &mut first, &mut outcome));
    });
    let walls_ms: Vec<f64> = ops
        .iter()
        .map(|o| o.kept * o.wall_ns as f64 / 1e6)
        .collect();
    let e2e = EndToEnd {
        balls_per_s: median_of(ops.iter().map(|o| M as f64 / (o.kept * secs(o.run_ns)))),
        setup_s: median_of(
            ops.iter()
                .map(|o| o.kept * secs(o.wall_ns.saturating_sub(o.run_ns))),
        ),
        peak_rss_mb: host::peak_rss_mb(),
        batch_p50_ms: percentile(&walls_ms, 0.5).unwrap_or(0.0),
        batch_p90_ms: percentile(&walls_ms, 0.9).unwrap_or(0.0),
        wire_bytes_per_ball: median_of(ops.iter().map(|o| o.bytes as f64 / M as f64)),
    };
    outcome.metrics = e2e.metrics();
    outcome.kept = median_of(ops.iter().map(|o| o.kept));
    outcome
}

/// Runs of the same seed in one process, sequentially: the cluster's
/// in-process twin.
fn inprocess(seed: u64, tracer: &mut Tracer) -> Result<(u64, u64, u64), String> {
    let spec = ProblemSpec::new(M, N).map_err(|e| format!("bad spec: {e}"))?;
    let sink = Arc::new(EngineMetrics::new());
    let span = tracer.enter("protocols", "run_by_name");
    let out = run_by_name(
        PROTOCOL,
        spec,
        RunConfig::seeded(seed).with_metrics(sink.clone()),
    );
    let wall_ns = tracer.exit(span);
    let report = sink.report();
    tracer.attribute(span, "core", wall_ns.saturating_sub(report.run_nanos));
    tracer.attribute(span, "exec", report.phase_nanos.iter().sum());
    let out = out
        .ok_or("unknown protocol")?
        .map_err(|e| format!("in-process run failed: {e}"))?;
    Ok((
        wall_ns.saturating_sub(report.run_nanos),
        report.run_nanos,
        fingerprint(out.loads.iter().map(|&l| u64::from(l))),
    ))
}

/// The traced run: untraced and traced cluster runs alternate until
/// `opts.seconds` have passed; then three in-process sequential runs of
/// the same seed give `cluster.inprocess_ratio` and must place every
/// ball exactly as the cluster did.
pub fn traced(opts: &Opts, stamps: &Path, tracer: &mut Tracer) -> (Outcome, Layers) {
    let mut outcome = Outcome::default();
    let mut first = None;
    let stamps = Some(stamps);
    step(opts, stamps, None, &mut first, &mut outcome);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    repeat_for(opts.seconds, 2, |_| {
        let start = Instant::now();
        if step(opts, stamps, None, &mut first, &mut outcome).is_some() {
            plain_walls.push(nanos_since(start) as f64);
        }
        let root = tracer.enter("bench", "op");
        let op = step(opts, stamps, Some(&mut *tracer), &mut first, &mut outcome);
        let wall = tracer.exit(root);
        if let Some(op) = op {
            traced_walls.push(wall as f64);
            ops.push(op);
        }
    });
    let mut twins = Vec::new();
    for _ in 0..3 {
        let twin = inprocess(opts.seed, tracer).and_then(|twin| match first {
            Some(fp) if fp == twin.2 => Ok(twin),
            _ => Err("the in-process run placed balls differently from the cluster".to_owned()),
        });
        twins.extend(outcome.record(twin));
    }

    let run_med = median_of(ops.iter().map(|o| o.run_ns as f64));
    let twin_run = median_of(twins.iter().map(|t| t.1 as f64));
    let phase = |p: Phase| median_of(ops.iter().map(|o| secs(o.phase_ns[p.index()])));
    let walls_ms: Vec<f64> = plain_walls.iter().map(|ns| ns / 1e6).collect();
    let mut layers = Layers {
        core_setup_s: median_of(twins.iter().map(|t| secs(t.0))),
        core_minor_faults: median_of(ops.iter().map(|o| o.minor_faults as f64)),
        exec_gather_s: phase(Phase::Gather),
        exec_count_scan_s: phase(Phase::CountScan),
        exec_grant_s: phase(Phase::Grant),
        exec_resolve_commit_s: phase(Phase::ResolveCommit),
        exec_rounds: median_of(ops.iter().map(|o| f64::from(o.rounds))),
        exec_requests: median_of(ops.iter().map(|o| o.requests as f64)),
        protocols_messages_per_ball: median_of(ops.iter().map(|o| o.messages as f64 / M as f64)),
        wire_bytes_per_batch: median_of(
            ops.iter()
                .map(|o| o.bytes as f64 / o.barriers.max(1) as f64),
        ),
        cluster_setup_s: median_of(ops.iter().map(|o| secs(o.setup_ns))),
        cluster_teardown_s: median_of(ops.iter().map(|o| secs(o.teardown_ns))),
        cluster_barriers: median_of(ops.iter().map(|o| o.barriers as f64)),
        cluster_inprocess_ratio: if twin_run > 0.0 {
            run_med / twin_run
        } else {
            0.0
        },
        cluster_frames: median_of(ops.iter().map(|o| o.frames as f64)),
        cluster_bytes: median_of(ops.iter().map(|o| o.bytes as f64)),
        serve_batch_p99_ms: percentile(&walls_ms, 0.99).unwrap_or(0.0),
        serve_batch_max_ms: percentile(&walls_ms, 1.0).unwrap_or(0.0),
        ..Layers::default()
    };
    layers.fill_trace(tracer, &plain_walls, &traced_walls);
    (outcome, layers)
}
