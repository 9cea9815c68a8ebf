//! The engine workloads: one registry protocol run per operation through
//! `pba_protocols::run_by_name` (layers `core`, `exec`, `par`,
//! `protocols`).

use std::sync::Arc;
use std::time::Instant;

use pba_core::metrics::{EngineMetrics, Phase};
use pba_core::{ProblemSpec, RunConfig};
use pba_protocols::run_by_name;

use crate::metrics::{EndToEnd, Layers};
use crate::report::{fingerprint, nanos_since, repeat_for, Outcome};
use crate::stats::{median_of, percentile, secs};
use crate::trace::Tracer;
use crate::{host, Opts};

/// One engine workload: a registry protocol at a fixed size.
#[derive(Debug, Clone, Copy)]
pub struct EngineWorkload {
    pub protocol: &'static str,
    pub m: u64,
    pub n: u32,
}

/// Stemann's c-collision protocol at m = n = 2^22: the 16 MiB bin array
/// is several times the L2 cache, so the bin side (count_scan + grant)
/// takes a large share of each round.
pub const ENGINE_WIDE: EngineWorkload = EngineWorkload {
    protocol: "collision",
    m: 1 << 22,
    n: 1 << 22,
};

/// The heavily loaded threshold protocol at m = 2^22, n = 2^14: the bins
/// fit in L2, so nearly all round time is on the ball side (gather +
/// resolve_commit), and its rounds drain through the serial/parallel
/// crossover.
pub const ENGINE_HEAVY: EngineWorkload = EngineWorkload {
    protocol: "threshold-heavy",
    m: 1 << 22,
    n: 1 << 14,
};

/// The model's message size for the engine's `wire_bytes_per_ball`: one
/// 32-bit word per request, response and commit. The in-process engine
/// has no real wire, so this is the volume its messages would carry.
const MODEL_BYTES_PER_MESSAGE: f64 = 4.0;

/// What one engine run measured.
#[derive(Debug, Clone)]
pub struct EngineOp {
    /// Wall time of the whole `run_by_name` call.
    pub wall_ns: u64,
    /// The engine's own round wall (`run_nanos`).
    pub run_ns: u64,
    pub phase_ns: [u64; 4],
    pub pool_busy_ns: u64,
    pub pool_lanes: usize,
    pub pool_jobs: u64,
    pub pool_tasks: u64,
    pub rounds: u32,
    pub requests: u64,
    pub messages: u64,
    pub minor_faults: u64,
    pub loads_fingerprint: u64,
    /// Share of the VM's CPU the hypervisor left it during the call.
    pub kept: f64,
}

impl EngineOp {
    pub fn setup_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.run_ns)
    }
}

/// Run `w` once with `seed`, on the global pool or sequentially, and
/// check the outcome: complete, and Σ loads = placed = m. With a tracer,
/// the call is a `protocols` span whose setup and phase time move to the
/// `core` and `exec` layers.
pub fn run_op(
    w: &EngineWorkload,
    seed: u64,
    parallel: bool,
    tracer: Option<&mut Tracer>,
) -> Result<EngineOp, String> {
    let spec = ProblemSpec::new(w.m, w.n).map_err(|e| format!("bad spec: {e}"))?;
    let sink = Arc::new(EngineMetrics::new());
    let mut config = RunConfig::seeded(seed).with_metrics(sink.clone());
    if parallel {
        config = config.parallel();
    }
    let faults_before = host::minor_faults();
    let steal = host::StealWindow::open();
    let (out, wall_ns) = match tracer {
        None => {
            let start = Instant::now();
            let out = run_by_name(w.protocol, spec, config);
            (out, nanos_since(start))
        }
        Some(tracer) => {
            let span = tracer.enter("protocols", "run_by_name");
            let out = run_by_name(w.protocol, spec, config);
            let wall_ns = tracer.exit(span);
            let report = sink.report();
            tracer.attribute(span, "core", wall_ns.saturating_sub(report.run_nanos));
            tracer.attribute(span, "exec", report.phase_nanos.iter().sum());
            (out, wall_ns)
        }
    };
    let kept = steal.kept_share();
    let minor_faults = host::minor_faults().saturating_sub(faults_before);
    let out = out
        .ok_or_else(|| format!("unknown protocol '{}'", w.protocol))?
        .map_err(|e| format!("{} failed: {e}", w.protocol))?;
    let load_sum: u64 = out.loads.iter().map(|&l| u64::from(l)).sum();
    if !out.is_complete() || out.placed != w.m || load_sum != w.m {
        return Err(format!(
            "{}: placed {} of m = {}, Σ loads = {load_sum}, {} unallocated",
            w.protocol, out.placed, w.m, out.unallocated
        ));
    }
    let report = sink.report();
    if report.runs != 1 || report.placed != w.m || report.rounds != u64::from(out.rounds) {
        return Err(format!(
            "{}: metrics saw {} runs, {} placed, {} rounds; outcome has {} rounds",
            w.protocol, report.runs, report.placed, report.rounds, out.rounds
        ));
    }
    let pool = report.pool.unwrap_or_default();
    Ok(EngineOp {
        wall_ns,
        run_ns: report.run_nanos,
        phase_ns: report.phase_nanos,
        pool_busy_ns: pool.total_busy_nanos(),
        pool_lanes: pool.busy_nanos.len(),
        pool_jobs: pool.jobs,
        pool_tasks: pool.tasks,
        rounds: out.rounds,
        requests: out.messages.requests,
        messages: out.messages.total(),
        minor_faults,
        loads_fingerprint: fingerprint(out.loads.iter().map(|&l| u64::from(l))),
        kept,
    })
}

/// Runs with the same seed must place every ball identically, on any
/// executor.
fn check_identical(first: &Option<u64>, op: &EngineOp) -> Result<(), String> {
    match first {
        Some(f) if *f != op.loads_fingerprint => Err(format!(
            "loads differ between repetitions of one seed ({f:#x} vs {:#x})",
            op.loads_fingerprint
        )),
        _ => Ok(()),
    }
}

/// Run one operation, count it in `outcome`, and return it if it passed.
fn step(
    w: &EngineWorkload,
    opts: &Opts,
    parallel: bool,
    tracer: Option<&mut Tracer>,
    first: &mut Option<u64>,
    outcome: &mut Outcome,
) -> Option<EngineOp> {
    let result = run_op(w, opts.seed, parallel, tracer).and_then(|op| {
        check_identical(first, &op)?;
        first.get_or_insert(op.loads_fingerprint);
        Ok(op)
    });
    outcome.record(result)
}

/// The timed run: a warm-up repetition, then repetitions until
/// `opts.seconds` have passed; every time is a median over them, each
/// repetition's times scaled by the CPU share the VM kept during it.
pub fn timed(w: &EngineWorkload, opts: &Opts) -> Outcome {
    // Start the global pool before anything is timed.
    pba_par::global_pool();
    let mut outcome = Outcome::default();
    let mut first = None;
    step(w, opts, true, None, &mut first, &mut outcome);
    let mut ops = Vec::new();
    repeat_for(opts.seconds, 3, |_| {
        ops.extend(step(w, opts, true, None, &mut first, &mut outcome));
    });
    let walls_ms: Vec<f64> = ops
        .iter()
        .map(|o| o.kept * o.wall_ns as f64 / 1e6)
        .collect();
    let e2e = EndToEnd {
        balls_per_s: median_of(ops.iter().map(|o| w.m as f64 / (o.kept * secs(o.run_ns)))),
        setup_s: median_of(ops.iter().map(|o| o.kept * secs(o.setup_ns()))),
        peak_rss_mb: host::peak_rss_mb(),
        batch_p50_ms: percentile(&walls_ms, 0.5).unwrap_or(0.0),
        batch_p90_ms: percentile(&walls_ms, 0.9).unwrap_or(0.0),
        wire_bytes_per_ball: median_of(
            ops.iter()
                .map(|o| MODEL_BYTES_PER_MESSAGE * o.messages as f64 / w.m as f64),
        ),
    };
    outcome.metrics = e2e.metrics();
    outcome.kept = median_of(ops.iter().map(|o| o.kept));
    outcome
}

/// The traced run: untraced and traced repetitions alternate until
/// `opts.seconds` have passed, then one sequential repetition gives
/// `par.speedup` (and must place every ball as the pooled runs did).
pub fn traced(w: &EngineWorkload, opts: &Opts, tracer: &mut Tracer) -> (Outcome, Layers) {
    pba_par::global_pool();
    let mut outcome = Outcome::default();
    let mut first = None;
    step(w, opts, true, None, &mut first, &mut outcome);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    repeat_for(opts.seconds, 2, |_| {
        let start = Instant::now();
        if step(w, opts, true, None, &mut first, &mut outcome).is_some() {
            plain_walls.push(nanos_since(start) as f64);
        }
        let root = tracer.enter("bench", "op");
        let op = step(w, opts, true, Some(tracer), &mut first, &mut outcome);
        let wall = tracer.exit(root);
        if let Some(op) = op {
            traced_walls.push(wall as f64);
            ops.push(op);
        }
    });
    let serial = step(w, opts, false, Some(tracer), &mut first, &mut outcome);

    let mut layers = Layers {
        core_setup_s: median_of(ops.iter().map(|o| secs(o.setup_ns()))),
        core_minor_faults: median_of(ops.iter().map(|o| o.minor_faults as f64)),
        exec_rounds: median_of(ops.iter().map(|o| f64::from(o.rounds))),
        exec_requests: median_of(ops.iter().map(|o| o.requests as f64)),
        par_busy_s: median_of(ops.iter().map(|o| secs(o.pool_busy_ns))),
        par_idle_share: median_of(ops.iter().map(|o| {
            1.0 - o.pool_busy_ns as f64 / (o.pool_lanes.max(1) as f64 * o.run_ns.max(1) as f64)
        })),
        par_jobs: median_of(ops.iter().map(|o| o.pool_jobs as f64)),
        par_tasks: median_of(ops.iter().map(|o| o.pool_tasks as f64)),
        protocols_messages_per_ball: median_of(ops.iter().map(|o| o.messages as f64 / w.m as f64)),
        ..Layers::default()
    };
    let phase = |p: Phase| median_of(ops.iter().map(|o| secs(o.phase_ns[p.index()])));
    layers.exec_gather_s = phase(Phase::Gather);
    layers.exec_count_scan_s = phase(Phase::CountScan);
    layers.exec_grant_s = phase(Phase::Grant);
    layers.exec_resolve_commit_s = phase(Phase::ResolveCommit);
    if let Some(serial) = serial {
        layers.par_speedup = serial.run_ns as f64 / median_of(ops.iter().map(|o| o.run_ns as f64));
    }
    let walls_ms: Vec<f64> = plain_walls.iter().map(|ns| ns / 1e6).collect();
    layers.serve_batch_p99_ms = percentile(&walls_ms, 0.99).unwrap_or(0.0);
    layers.serve_batch_max_ms = percentile(&walls_ms, 1.0).unwrap_or(0.0);
    layers.fill_trace(tracer, &plain_walls, &traced_walls);
    (outcome, layers)
}
