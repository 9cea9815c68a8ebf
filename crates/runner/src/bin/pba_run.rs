//! `pba-run` — run the reproduction experiments and ad-hoc protocol
//! simulations from the command line.
//!
//! ```text
//! pba-run list
//! pba-run all [--scale smoke|default|full] [--out DIR] [--trace F.jsonl]
//! pba-run <experiment-id> [--scale ...] [--out DIR] [--trace F.jsonl]
//! pba-run protocol <name> --m M --n N [--seed S] [--parallel] [--trace F.jsonl]
//! pba-run protocols            # list protocol names
//! pba-run stream [--policy P] [--n N] [--batch 8n] …   # streaming allocator
//! pba-run serve --replay [--rate R] [--snapshot F] …   # replay service facade
//! pba-run cluster protocol <name> --shards S …   # multi-process shards
//! pba-run cluster stream --shards S [--kill S@B] …
//! pba-run bench [--tier small|medium|large|xl] [--out DIR|FILE.json]
//! pba-run tune [--tier ...] [--out DIR|FILE.json]     # autotune chunk geometry
//! pba-run verify [CLAIM…] [--scale ci|full] [--json]  # statistical claim oracles
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use pba_cluster::ClusterConfig;
use pba_conformance::{Claim, VerifyOptions, VerifyScale};
use pba_core::json::{escape as json_escape, u64_array, JsonObject};
use pba_core::metrics::{EngineMetrics, FanoutSink, MetricsSink, Phase};
use pba_core::{ExecutorKind, FaultPlan, ProblemSpec, RunConfig, Tuning};
use pba_protocols::{protocol_names, run_by_name};
use pba_runner::json::executor_str;
use pba_runner::{
    all_experiments, describe_fault_plan, experiment_by_id, parse_fault_spec, JsonlTrace,
    RunOptions, Scale, Table,
};
use pba_stream::{
    replay, PolicyKind, ServiceConfig, StreamAllocator, WeightDist, Workload, WorkloadCfg,
    WorkloadKind,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pba-run list
  pba-run all [--scale smoke|default|full] [--out DIR] [--trace FILE.jsonl]
  pba-run <experiment-id e01..e25> [--scale ...] [--out DIR] [--trace FILE.jsonl]
  pba-run protocol <name> --m M --n N [--seed S] [--parallel] [--trace FILE.jsonl]
                 [--faults SPEC]
  pba-run protocols
  pba-run stream [--policy one-choice|two-choice|batched-two-choice|threshold]
                 [--n N] [--batch B | Kn] [--batches K] [--workload uniform|zipf|burst]
                 [--churn F] [--shards S] [--seed S] [--parallel] [--trace FILE.jsonl]
                 [--faults SPEC]
  pba-run serve --replay [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--shards S] [--seed S] [--parallel]
                 [--rate BALLS_PER_SEC] [--queue DEPTH] [--checkpoint-every K]
                 [--snapshot-at K] [--snapshot FILE] [--restore FILE]
                 [--faults SPEC] [--trace FILE.jsonl]
  pba-run serve --listen ADDR [--policy P] [--n N] [--shards S] [--seed S]
                 (accept framed batches from one `serve --send` client)
  pba-run serve --send ADDR [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--seed S]
  pba-run cluster protocol <name> --m M --n N [--shards S] [--seed S]
                 [--local | --socket | --connect A1,A2,…] [--faults SPEC]
                 [--trace FILE.jsonl]
  pba-run cluster stream [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--shards S] [--seed S] [--kill S@B]
                 [--local | --socket | --connect A1,A2,…] [--faults SPEC]
                 [--trace FILE.jsonl]
  pba-run shard-worker [--listen ADDR]   (internal: spawned per shard by
                 `cluster`; --listen serves one orchestrator over TCP/UDS)
  pba-run bench [--tier small|medium|large|xl | --scale smoke|default|full]
                [--out DIR|FILE.json]
  pba-run tune [--tier small|medium|large|xl] [--out DIR|FILE.json]
  pba-run verify [CLAIM…] [--scale ci|full] [--json] [--faults SPEC]

fault spec: comma-separated key=value clauses, e.g.
  --faults drop=0.1,crash=0.02,straggle=8x0.2,domains=8x0.3,kill=2x5,seed=7";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let done = |()| ExitCode::SUCCESS;
    match cmd.as_str() {
        "list" => {
            for e in all_experiments() {
                println!("{}  {}", e.id(), e.title());
            }
            Ok(ExitCode::SUCCESS)
        }
        "protocols" => {
            for name in protocol_names() {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            let flags = RunFlags::parse(&args[1..])?;
            let trace = Trace::open(flags.trace.clone())?;
            for e in all_experiments() {
                run_experiment(e.as_ref(), &flags, trace.jsonl.clone())?;
            }
            trace.flush().map(done)
        }
        "protocol" => run_protocol(&args[1..]).map(done),
        "stream" => run_stream_cmd(&args[1..]).map(done),
        "serve" => run_serve(&args[1..]).map(done),
        "cluster" => run_cluster(&args[1..]).map(done),
        // The child mode `cluster` spawns per shard. Errors go to stderr
        // without the usage banner: the orchestrator is the audience.
        "shard-worker" => {
            let mut listen: Option<String> = None;
            let served = parse_flags(
                &args[1..],
                &mut [("--listen", &mut listen)],
                " (--listen ADDR)",
            )
            .and_then(|()| match &listen {
                None => pba_cluster::worker::serve_stdio(),
                Some(addr) => pba_cluster::worker::serve_listen(addr),
            });
            match served {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(detail) => {
                    eprintln!("shard-worker: {detail}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "bench" => run_bench(&args[1..]).map(done),
        "tune" => run_tune(&args[1..]).map(done),
        // `verify` owns its exit code: a refuted claim is a nonzero exit
        // with the verdict table printed, not a usage error.
        "verify" => run_verify(&args[1..]),
        id => {
            let e = experiment_by_id(id).ok_or_else(|| unknown_command_message(id))?;
            let flags = RunFlags::parse(&args[1..])?;
            let trace = Trace::open(flags.trace.clone())?;
            run_experiment(e.as_ref(), &flags, trace.jsonl.clone())?;
            trace.flush().map(done)
        }
    }
}

/// Error text for an unrecognized first argument: name the valid range
/// and, when something known is close, suggest it.
fn unknown_command_message(id: &str) -> String {
    const COMMANDS: [&str; 10] = [
        "list",
        "all",
        "protocol",
        "protocols",
        "stream",
        "serve",
        "cluster",
        "bench",
        "tune",
        "verify",
    ];
    let lowered = id.to_lowercase();
    let best = all_experiments()
        .iter()
        .map(|e| e.id())
        .chain(COMMANDS)
        .map(|c| (edit_distance(&lowered, c), c))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, c)) => format!("did you mean '{c}'? "),
        None => String::new(),
    };
    format!(
        "unknown experiment or command '{id}': {hint}valid experiment ids are \
         e01..e25 (see `pba-run list`)"
    )
}

/// Levenshtein distance, for the did-you-mean suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Where one flag's argument lands. [`parse_flags`] walks the command
/// line and hands each flag's argument to its slot.
trait Slot {
    /// Whether `flag` consumes the next argument.
    fn takes_value(&self, _flag: &str) -> bool {
        true
    }

    /// Store `flag`'s argument (empty for a bare switch).
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String>;
}

/// A flag argument's type: how it parses and how a bad one reads.
trait FlagValue: Sized {
    fn parse_flag(flag: &str, value: &str) -> Result<Self, String>;
}

impl<T: FlagValue> Slot for T {
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        *self = T::parse_flag(flag, value)?;
        Ok(())
    }
}

impl<T: FlagValue> Slot for Option<T> {
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        *self = Some(T::parse_flag(flag, value)?);
        Ok(())
    }
}

/// A bare switch.
impl Slot for bool {
    fn takes_value(&self, _flag: &str) -> bool {
        false
    }

    fn set(&mut self, _flag: &str, _value: &str) -> Result<(), String> {
        *self = true;
        Ok(())
    }
}

/// Bare words, in order (the slot named `""`).
impl Slot for Vec<String> {
    fn set(&mut self, _flag: &str, value: &str) -> Result<(), String> {
        self.push(value.to_owned());
        Ok(())
    }
}

/// A switch a command refuses outright, with its reason.
struct Refused(&'static str);

impl Slot for Refused {
    fn takes_value(&self, _flag: &str) -> bool {
        false
    }

    fn set(&mut self, _flag: &str, _value: &str) -> Result<(), String> {
        Err(self.0.into())
    }
}

macro_rules! from_str_flag_values {
    ($($t:ty),*) => {$(
        impl FlagValue for $t {
            fn parse_flag(flag: &str, value: &str) -> Result<Self, String> {
                value.parse().map_err(|_| format!("bad {flag}"))
            }
        }
    )*};
}
from_str_flag_values!(u32, u64, usize, f64);

impl FlagValue for String {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        Ok(value.to_owned())
    }
}

impl FlagValue for Scale {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        Scale::parse(value).ok_or_else(|| format!("bad scale '{value}'"))
    }
}

impl FlagValue for VerifyScale {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        VerifyScale::parse(value).ok_or_else(|| format!("bad verify scale '{value}' (ci or full)"))
    }
}

impl FlagValue for FaultPlan {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        parse_fault_spec(value)
    }
}

impl FlagValue for PolicyKind {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        PolicyKind::parse(value).ok_or_else(|| {
            let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
            format!(
                "unknown policy '{value}' (choose from: {})",
                names.join(", ")
            )
        })
    }
}

/// `serve --listen` and `serve --send` name an unknown policy without
/// listing the choices.
struct TersePolicy(PolicyKind);

impl FlagValue for TersePolicy {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        PolicyKind::parse(value)
            .map(TersePolicy)
            .ok_or_else(|| format!("unknown policy '{value}'"))
    }
}

/// `--kill SHARD@BATCH`, e.g. `2@5`.
impl FlagValue for (u32, u64) {
    fn parse_flag(_flag: &str, value: &str) -> Result<Self, String> {
        let (s, b) = value
            .split_once('@')
            .ok_or_else(|| format!("bad --kill '{value}' (expected SHARD@BATCH, e.g. 2@5)"))?;
        let shard = s.parse().map_err(|_| format!("bad --kill shard '{s}'"))?;
        let batch = b.parse().map_err(|_| format!("bad --kill batch '{b}'"))?;
        Ok((shard, batch))
    }
}

/// A flag table: each row names a flag and the slot its argument lands
/// in. A name may list aliases sharing one slot (`--local|--socket`);
/// the name `""` takes bare words, which are otherwise unknown flags.
/// Every slot type owns its data, hence `'static`.
type FlagTable<'a> = [(&'a str, &'a mut (dyn Slot + 'static))];

/// The one flag parser. It walks `args` in order and feeds each flag's
/// argument to its slot in `table`, so errors surface in argv order.
/// `unknown_hint` is appended to the unknown-flag message.
fn parse_flags(
    args: &[String],
    table: &mut FlagTable<'_>,
    unknown_hint: &str,
) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = if arg.starts_with('-') {
            arg.as_str()
        } else {
            ""
        };
        let Some((_, slot)) = table
            .iter_mut()
            .find(|(names, _)| names.split('|').any(|name| name == key))
        else {
            return Err(format!("unknown flag '{arg}'{unknown_hint}"));
        };
        let value = if key.is_empty() {
            arg
        } else if slot.takes_value(key) {
            let what = match key {
                "--listen" | "--send" => "an address",
                "--connect" => "addresses",
                _ => "a value",
            };
            it.next().ok_or_else(|| format!("{key} needs {what}"))?
        } else {
            ""
        };
        slot.set(key, value)?;
    }
    Ok(())
}

/// The stream-workload flags of `stream`, `serve --replay` and `cluster
/// stream`: their defaults and range checks.
struct StreamFlags {
    policy: PolicyKind,
    n: u32,
    batch: String,
    batches: u64,
    workload: String,
    churn: f64,
    seed: u64,
}

impl Default for StreamFlags {
    fn default() -> Self {
        StreamFlags {
            policy: PolicyKind::BatchedTwoChoice,
            n: 1 << 10,
            batch: "4n".into(),
            batches: 32,
            workload: "uniform".into(),
            churn: 0.0,
            seed: 0,
        }
    }
}

impl StreamFlags {
    /// Parse `args` against this group plus the command's `extra` flags,
    /// then check the group's ranges.
    fn parse(&mut self, args: &[String], extra: &mut FlagTable<'_>) -> Result<(), String> {
        let group: [(&str, &mut (dyn Slot + 'static)); 7] = [
            ("--policy", &mut self.policy),
            ("--n", &mut self.n),
            ("--batch", &mut self.batch),
            ("--batches", &mut self.batches),
            ("--workload", &mut self.workload),
            ("--churn", &mut self.churn),
            ("--seed", &mut self.seed),
        ];
        let mut table: Vec<_> = group
            .into_iter()
            .chain(extra.iter_mut().map(|(flag, slot)| (*flag, &mut **slot)))
            .collect();
        parse_flags(args, &mut table, "")?;
        if self.n == 0 {
            return Err("--n must be at least 1".into());
        }
        if self.batches == 0 {
            return Err("--batches must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.churn) {
            return Err("--churn must be in [0, 1]".into());
        }
        Ok(())
    }

    /// The workload over `n` bins: its batch size and generator config.
    fn workload_cfg(&self, n: u32) -> Result<(u64, WorkloadCfg), String> {
        let batch = parse_batch_size(&self.batch, n)?;
        let cfg = WorkloadCfg {
            kind: parse_workload_kind(&self.workload)?,
            batch,
            churn: self.churn,
            weights: WeightDist::Constant(1),
        };
        Ok((batch, cfg))
    }
}

/// `--trace FILE.jsonl`: the JSONL sink, fanned out beside the run's
/// [`EngineMetrics`] and flushed at the end.
struct Trace {
    path: Option<String>,
    jsonl: Option<Arc<JsonlTrace>>,
    metrics: Arc<EngineMetrics>,
}

impl Trace {
    fn open(path: Option<String>) -> Result<Trace, String> {
        let jsonl = match &path {
            None => None,
            Some(p) => Some(Arc::new(
                JsonlTrace::create(p).map_err(|e| format!("--trace {p}: {e}"))?,
            )),
        };
        Ok(Trace {
            path,
            jsonl,
            metrics: Arc::new(EngineMetrics::new()),
        })
    }

    /// The run's sink: the metrics, plus the trace when one is open.
    fn sink(&self) -> Arc<dyn MetricsSink> {
        match &self.jsonl {
            None => self.metrics.clone(),
            Some(t) => Arc::new(FanoutSink::new(vec![
                self.metrics.clone() as Arc<dyn MetricsSink>,
                t.clone() as Arc<dyn MetricsSink>,
            ])),
        }
    }

    fn flush(&self) -> Result<(), String> {
        if let Some(t) = &self.jsonl {
            t.flush().map_err(|e| format!("trace flush: {e}"))?;
        }
        Ok(())
    }

    /// The `trace:` line that closes a run summary.
    fn print_path(&self) {
        if let Some(path) = &self.path {
            println!("trace:      {path}");
        }
    }
}

/// Flags shared by the experiment-running commands.
struct RunFlags {
    scale: Scale,
    out_dir: Option<String>,
    trace: Option<String>,
}

impl RunFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = RunFlags {
            scale: Scale::Default,
            out_dir: None,
            trace: None,
        };
        parse_flags(
            args,
            &mut [
                ("--scale", &mut flags.scale),
                ("--out", &mut flags.out_dir),
                ("--trace", &mut flags.trace),
            ],
            "",
        )?;
        Ok(flags)
    }
}

fn run_experiment(
    e: &dyn pba_runner::Experiment,
    flags: &RunFlags,
    trace: Option<Arc<JsonlTrace>>,
) -> Result<(), String> {
    eprintln!("running {} ({})…", e.id(), e.title());
    let started = std::time::Instant::now();
    let mut opts = RunOptions::new();
    if let Some(t) = trace {
        opts = opts.with_metrics(t);
    }
    let report = e.run_with(flags.scale, &opts);
    eprintln!("  done in {:.1?}", started.elapsed());
    let md = report.to_markdown();
    println!("{md}");
    if let Some(dir) = &flags.out_dir {
        std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
        let path = format!("{dir}/{}.md", report.id);
        std::fs::write(&path, &md).map_err(|err| err.to_string())?;
        for (i, t) in report.tables.iter().enumerate() {
            let csv_path = format!("{dir}/{}_{}.csv", report.id, i);
            std::fs::write(&csv_path, t.to_csv()).map_err(|err| err.to_string())?;
        }
    }
    Ok(())
}

fn run_protocol(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("protocol: missing name".into());
    };
    let mut m = 1u64 << 20;
    let mut n = 1u32 << 10;
    let mut seed = 0u64;
    let mut parallel = false;
    let mut trace_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    parse_flags(
        &args[1..],
        &mut [
            ("--faults", &mut faults),
            ("--m", &mut m),
            ("--n", &mut n),
            ("--seed", &mut seed),
            ("--parallel", &mut parallel),
            ("--trace", &mut trace_path),
        ],
        "",
    )?;
    let spec = ProblemSpec::new(m, n).map_err(|e| e.to_string())?;
    let mut cfg = RunConfig::seeded(seed);
    if parallel {
        cfg = cfg.parallel();
    }
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let trace = Trace::open(trace_path)?;
    cfg = cfg.with_metrics(trace.sink());
    let started = std::time::Instant::now();
    let out = run_by_name(name, spec, cfg)
        .ok_or_else(|| format!("unknown protocol '{name}' (try `pba-run protocols`)"))?
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    trace.flush()?;
    let stats = out.load_stats();
    let report = trace.metrics.report();
    println!("protocol:   {}", out.protocol);
    println!("spec:       {spec}");
    println!("rounds:     {}", out.rounds);
    println!(
        "placed:     {} ({} unallocated)",
        out.placed, out.unallocated
    );
    println!("max load:   {} (gap {})", stats.max(), out.gap());
    println!("load stats: {stats}");
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    if let Some(f) = &out.faults {
        println!(
            "fault hits: {} dropped, {} crash-lost ({} redraws), {} straggled, \
             {} deferred, {} escalations, {} crashed bins",
            f.dropped_requests,
            f.crash_lost,
            f.crash_redraws,
            f.straggler_balls,
            f.deferred_balls,
            f.backoff_escalations,
            f.crashed_bins
        );
    }
    println!(
        "messages:   {} total ({} requests, {} responses, {} commits)",
        out.messages.total(),
        out.messages.requests,
        out.messages.responses,
        out.messages.commits
    );
    if let Some(max_bin) = out.max_bin_received() {
        println!("max bin rx: {max_bin}");
    }
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.0} balls/s, {:.1} rounds/s",
        report.balls_per_sec(),
        report.rounds_per_sec()
    );
    let phases: Vec<String> = Phase::ALL
        .iter()
        .map(|&p| format!("{} {:.0}%", p.name(), 100.0 * report.phase_fraction(p)))
        .collect();
    println!("phases:     {}", phases.join(", "));
    if let Some(pool) = &report.pool {
        println!(
            "pool:       {} jobs, {} tasks, busy {:.2?}",
            pool.jobs,
            pool.tasks,
            std::time::Duration::from_nanos(pool.total_busy_nanos())
        );
    }
    trace.print_path();
    Ok(())
}

/// Parse a batch size: an absolute count (`4096`) or a multiple of the
/// bin count (`8n`, `n`).
fn parse_batch_size(spec: &str, n: u32) -> Result<u64, String> {
    let s = spec.trim();
    let value = if let Some(mult) = s.strip_suffix(['n', 'N']) {
        let mult: u64 = if mult.is_empty() {
            1
        } else {
            mult.parse().map_err(|_| {
                format!("bad --batch '{spec}' (absolute count or multiple like '8n')")
            })?
        };
        mult.checked_mul(n as u64)
            .ok_or_else(|| format!("--batch '{spec}' overflows"))?
    } else {
        s.parse()
            .map_err(|_| format!("bad --batch '{spec}' (absolute count or multiple like '8n')"))?
    };
    if value == 0 {
        return Err("--batch must be at least 1".into());
    }
    Ok(value)
}

/// Parse a `--workload` name, shared by `stream`, `serve`, and
/// `cluster stream`; unknown names get a did-you-mean suggestion.
fn parse_workload_kind(name: &str) -> Result<WorkloadKind, String> {
    const WORKLOADS: [&str; 3] = ["uniform", "zipf", "burst"];
    match name {
        "uniform" => Ok(WorkloadKind::Uniform),
        "zipf" => Ok(WorkloadKind::Zipf { s: 1.2, max: 32 }),
        "burst" => Ok(WorkloadKind::Burst {
            period: 8,
            factor: 4,
        }),
        other => {
            let lowered = other.to_lowercase();
            let hint = WORKLOADS
                .iter()
                .map(|&w| (edit_distance(&lowered, w), w))
                .min()
                .filter(|&(d, _)| d <= 2)
                .map(|(_, w)| format!("did you mean '{w}'? "))
                .unwrap_or_default();
            Err(format!(
                "unknown workload '{other}' ({hint}choose from: {})",
                WORKLOADS.join(", ")
            ))
        }
    }
}

/// `pba-run stream` — drive a synthetic workload through a long-lived
/// [`StreamAllocator`] and print a paper-style checkpoint table plus a
/// throughput summary.
fn run_stream_cmd(args: &[String]) -> Result<(), String> {
    let mut flags = StreamFlags::default();
    let mut shards: usize = 1;
    let mut parallel = false;
    let mut trace_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    flags.parse(
        args,
        &mut [
            ("--faults", &mut faults),
            ("--shards", &mut shards),
            ("--parallel", &mut parallel),
            ("--trace", &mut trace_path),
        ],
    )?;
    let StreamFlags {
        policy,
        n,
        batches,
        churn,
        seed,
        ..
    } = flags;
    let (b, cfg) = flags.workload_cfg(n)?;

    let trace = Trace::open(trace_path)?;
    let mut alloc = StreamAllocator::new(n, seed, policy)
        .with_shards(shards)
        .with_metrics(trace.sink());
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }
    // Distinct salt keeps workload draws off the placement streams.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);

    let started = std::time::Instant::now();
    let records: Vec<_> = (0..batches)
        .map(|_| alloc.ingest(&traffic.next_batch()).record)
        .collect();
    let elapsed = started.elapsed();
    trace.flush()?;

    let mut table = Table::new(
        format!(
            "Streaming {}: {batches} batches of b = {} ({b} arrivals), \
             n = {n}, churn {churn}",
            policy.name(),
            flags.batch
        ),
        &[
            "batch",
            "arrivals",
            "departures",
            "resident",
            "max load",
            "gap",
        ],
    );
    let step = (batches / 8).max(1);
    for (t, r) in records.iter().enumerate() {
        let t = t as u64;
        if t.is_multiple_of(step) || t == batches - 1 {
            table.push_row(vec![
                t.to_string(),
                r.arrivals.to_string(),
                r.departures.to_string(),
                r.resident.to_string(),
                r.max_load.to_string(),
                r.gap.to_string(),
            ]);
        }
    }
    println!("{}", table.to_markdown());

    let report = trace.metrics.report();
    let last = records.last().expect("batches >= 1");
    let mode = if parallel { ", parallel" } else { "" };
    println!("policy:     {} ({shards} shard(s){mode})", policy.name());
    println!(
        "workload:   {}, b = {b}, churn {churn}, seed {seed}",
        flags.workload
    );
    if let Some(plan) = &faults {
        let redirects: u64 = records.iter().map(|r| r.fault_redirects).sum();
        let faulted = records.iter().filter(|r| r.failed_domains > 0).count();
        println!(
            "faults:     {} — {faulted}/{batches} batches degraded, {redirects} redirects",
            describe_fault_plan(plan)
        );
    }
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        last.resident, last.max_load, last.gap
    );
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.1} batches/s, {:.0} balls/s",
        report.batches_per_sec(),
        report.stream_balls_per_sec()
    );
    trace.print_path();
    Ok(())
}

/// Render nanoseconds as microseconds with one decimal, for the serve
/// checkpoint table.
fn micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1e3)
}

/// `pba-run serve --replay` — the production facade: replay a synthetic
/// workload through a long-lived [`pba_stream::ReplayService`] (worker
/// thread + bounded backpressure queue) at a target rate, print one row
/// per checkpoint window with queue-to-placement latency percentiles, and
/// optionally snapshot the allocator state mid-replay (`--snapshot-at K
/// --snapshot FILE`) or resume a previous session (`--restore FILE`).
///
/// With `--snapshot FILE` but no `--snapshot-at`, the *final* state is
/// written — the natural handoff for a later `--restore` run. On restore
/// the snapshot defines the bin count, policy, shards, and seed (the
/// corresponding flags are ignored) and the workload generator is
/// fast-forwarded past the already-ingested prefix, so the resumed replay
/// continues bit-identically to an uninterrupted one.
fn run_serve(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--listen") {
        return run_serve_listen(args);
    }
    if args.iter().any(|a| a == "--send") {
        return run_serve_send(args);
    }
    let mut flags = StreamFlags::default();
    let mut shards: usize = 1;
    let mut parallel = false;
    let mut rate = 0.0f64;
    let mut queue: usize = 4;
    let mut checkpoint_every: u64 = 8;
    let mut snapshot_at: Option<u64> = None;
    let mut snapshot_path: Option<String> = None;
    let mut restore_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    // `--replay` is the only mode today; it is named so `serve` can grow
    // ingestion modes later without breaking scripts.
    let mut replay_mode = false;
    flags.parse(
        args,
        &mut [
            ("--replay", &mut replay_mode),
            ("--faults", &mut faults),
            ("--shards", &mut shards),
            ("--parallel", &mut parallel),
            ("--rate", &mut rate),
            ("--queue", &mut queue),
            ("--checkpoint-every", &mut checkpoint_every),
            ("--snapshot-at", &mut snapshot_at),
            ("--snapshot", &mut snapshot_path),
            ("--restore", &mut restore_path),
            ("--trace", &mut trace_path),
        ],
    )?;
    let batches = flags.batches;
    if !rate.is_finite() || rate < 0.0 {
        return Err("--rate must be a finite rate >= 0 (0 = unthrottled)".into());
    }
    if queue == 0 {
        return Err("--queue must be at least 1".into());
    }
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if snapshot_at.is_some_and(|k| k == 0 || k > batches) {
        return Err(format!(
            "--snapshot-at must be in 1..={batches} (--batches)"
        ));
    }

    let (alloc, restored_bytes) = match &restore_path {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("--restore {path}: {e}"))?;
            let alloc =
                StreamAllocator::restore(&bytes).map_err(|e| format!("--restore {path}: {e}"))?;
            (alloc, bytes.len() as u64)
        }
        None => (
            StreamAllocator::new(flags.n, flags.seed, flags.policy).with_shards(shards),
            0,
        ),
    };
    // From here on the allocator is authoritative: on restore its meta
    // (bins, seed, policy, shards) comes from the snapshot, not the flags.
    let meta = alloc.meta();
    let (n, seed, shards, policy_name) = (meta.bins, meta.seed, meta.shards, meta.policy);
    let start_batch = alloc.batches();
    let (b, cfg) = flags.workload_cfg(n)?;

    let trace = Trace::open(trace_path)?;
    let mut alloc = alloc.with_metrics(trace.sink());
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }

    // Same workload salt as `pba-run stream`; a restored session
    // fast-forwards the deterministic generator past the ingested prefix.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);
    for _ in 0..start_batch {
        traffic.next_batch();
    }

    let mut service_cfg = ServiceConfig::default()
        .with_queue_capacity(queue)
        .with_checkpoint_every(checkpoint_every)
        .with_rate(rate);
    if let Some(k) = snapshot_at {
        service_cfg = service_cfg.with_snapshot_at(k);
    }

    let started = std::time::Instant::now();
    let (alloc, report) = replay(alloc, &mut traffic, batches, service_cfg);
    let elapsed = started.elapsed();
    trace.flush()?;

    // `--snapshot FILE` writes the mid-replay capture when `--snapshot-at`
    // named one, the final state otherwise.
    let mut snapshot_note = None;
    if let Some(path) = &snapshot_path {
        let (at, bytes) = match &report.snapshot {
            Some((at, bytes)) => (start_batch + at, bytes.clone()),
            None => (start_batch + report.batches, alloc.snapshot()),
        };
        std::fs::write(path, &bytes).map_err(|e| format!("--snapshot {path}: {e}"))?;
        snapshot_note = Some(format!("{path} ({} bytes, after batch {at})", bytes.len()));
    }

    let mut table = Table::new(
        format!(
            "Replay service {policy_name}: {batches} batches of b = {} \
             ({b} arrivals), n = {n}, queue {queue}",
            flags.batch
        ),
        &[
            "ckpt", "batches", "balls", "resident", "gap", "p50 µs", "p99 µs", "p999 µs",
        ],
    );
    for c in &report.checkpoints {
        table.push_row(vec![
            c.checkpoint.to_string(),
            c.batches.to_string(),
            c.balls.to_string(),
            c.resident.to_string(),
            c.gap.to_string(),
            micros(c.p50_nanos),
            micros(c.p99_nanos),
            micros(c.p999_nanos),
        ]);
    }
    println!("{}", table.to_markdown());

    let mode = if parallel { ", parallel" } else { "" };
    println!("policy:     {policy_name} ({shards} shard(s){mode})");
    println!(
        "workload:   {}, b = {b}, churn {}, seed {seed}",
        flags.workload, flags.churn
    );
    let pacing = if rate > 0.0 {
        format!("{rate:.0} balls/s target")
    } else {
        "unthrottled".into()
    };
    println!("service:    queue {queue}, checkpoint every {checkpoint_every} batches, {pacing}");
    if let Some(path) = &restore_path {
        println!("restored:   {path} ({restored_bytes} bytes, resumed at batch {start_batch})");
    }
    if let Some(plan) = &faults {
        println!(
            "faults:     {} — {}/{batches} batches degraded, {} redirects",
            describe_fault_plan(plan),
            report.degraded_batches,
            report.fault_redirects
        );
    }
    println!(
        "latency:    p50 {} µs, p99 {} µs, p999 {} µs, max {} µs (queue to placement)",
        micros(report.total.p50()),
        micros(report.total.p99()),
        micros(report.total.p999()),
        micros(report.total.max())
    );
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        alloc.resident(),
        alloc.bin_state().max_load(),
        alloc.bin_state().gap()
    );
    if let Some(note) = snapshot_note {
        println!("snapshot:   {note}");
    } else if let Some((at, bytes)) = &report.snapshot {
        println!(
            "snapshot:   {} bytes after batch {} (pass --snapshot FILE to keep it)",
            bytes.len(),
            start_batch + at
        );
    }
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.0} balls/s through the service",
        report.balls as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    trace.print_path();
    Ok(())
}

/// The two halves of a connected ingest socket.
type IngestHalves = (Box<dyn std::io::Read>, Box<dyn std::io::Write>);

/// A connected ingest socket, split into its two halves.
fn connect_ingest(addr: &str) -> Result<IngestHalves, String> {
    if pba_cluster::transport::is_unix_addr(addr) {
        #[cfg(unix)]
        {
            let stream = std::os::unix::net::UnixStream::connect(addr)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
            return Ok((Box::new(r), Box::new(stream)));
        }
        #[cfg(not(unix))]
        return Err(format!(
            "unix socket path '{addr}' unsupported on this platform"
        ));
    }
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
    Ok((Box::new(r), Box::new(stream)))
}

/// `pba-run serve --listen ADDR` — real traffic for the allocator: bind a
/// TCP or Unix-domain socket, accept one `serve --send` client, ingest
/// its framed batches (binary wire codec, checksummed), and report the
/// final state. The allocator ends bit-identical to an in-process run
/// that ingested the same batches.
fn run_serve_listen(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut policy = TersePolicy(PolicyKind::BatchedTwoChoice);
    let mut n: u32 = 1 << 10;
    let mut shards: usize = 1;
    let mut seed = 0u64;
    let mut parallel = false;
    parse_flags(
        args,
        &mut [
            ("--listen", &mut addr),
            ("--policy", &mut policy),
            ("--n", &mut n),
            ("--shards", &mut shards),
            ("--seed", &mut seed),
            ("--parallel", &mut parallel),
        ],
        " for serve --listen",
    )?;
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let policy = policy.0;
    let mut alloc = StreamAllocator::new(n, seed, policy).with_shards(shards);
    if parallel {
        alloc = alloc.parallel();
    }
    let started = std::time::Instant::now();
    let (mut reader, mut writer): (Box<dyn std::io::Read>, Box<dyn std::io::Write>) =
        if pba_cluster::transport::is_unix_addr(&addr) {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(&addr);
                let listener = std::os::unix::net::UnixListener::bind(&addr)
                    .map_err(|e| format!("bind {addr}: {e}"))?;
                println!("listening:  {addr} (unix)");
                let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
                let _ = std::fs::remove_file(&addr);
                let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
                (Box::new(r), Box::new(stream))
            }
            #[cfg(not(unix))]
            return Err(format!(
                "unix socket path '{addr}' unsupported on this platform"
            ));
        } else {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            println!("listening:  {addr} (tcp)");
            let (stream, peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            println!("client:     {peer}");
            let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
            (Box::new(r), Box::new(stream))
        };
    let summary = pba_stream::ingest::serve_ingest(&mut reader, &mut writer, &mut alloc)?;
    let elapsed = started.elapsed();
    println!("policy:     {} ({shards} shard(s))", policy.name());
    println!(
        "ingested:   {} batches, {} balls over the socket",
        summary.batches, summary.balls
    );
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        summary.resident, summary.max_load, summary.gap
    );
    println!("wall time:  {elapsed:.2?}");
    Ok(())
}

/// `pba-run serve --send ADDR` — the driver for `serve --listen`:
/// generate the deterministic synthetic workload locally and ship it to
/// the listening allocator as framed batches, verifying every ack.
fn run_serve_send(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut policy = TersePolicy(PolicyKind::BatchedTwoChoice);
    // The stream group's storage and workload builder; `--send` has no
    // `--shards`, and takes `--batches 0`.
    let mut flags = StreamFlags::default();
    parse_flags(
        args,
        &mut [
            ("--send", &mut addr),
            ("--policy", &mut policy),
            ("--n", &mut flags.n),
            ("--batch", &mut flags.batch),
            ("--batches", &mut flags.batches),
            ("--workload", &mut flags.workload),
            ("--churn", &mut flags.churn),
            ("--seed", &mut flags.seed),
        ],
        " for serve --send",
    )?;
    let (n, batches, seed) = (flags.n, flags.batches, flags.seed);
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&flags.churn) {
        return Err("--churn must be in [0, 1]".into());
    }
    let (b, cfg) = flags.workload_cfg(n)?;
    // Same workload salt as `pba-run serve --replay`: a listen/send pair
    // with these flags reproduces the local replay bit for bit.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);
    let hello = pba_stream::IngestFrame::Hello {
        n,
        seed,
        policy: policy.0.name().to_owned(),
    };
    let started = std::time::Instant::now();
    let (mut reader, mut writer) = connect_ingest(&addr)?;
    let summary =
        pba_stream::ingest::drive_ingest(&mut reader, &mut writer, &hello, &mut traffic, batches)?;
    let elapsed = started.elapsed();
    println!("sent:       {batches} batches of b = {b} to {addr}");
    println!(
        "server:     {} balls ingested, resident {}, max load {}, gap {}",
        summary.balls, summary.resident, summary.max_load, summary.gap
    );
    println!("wall time:  {elapsed:.2?}");
    Ok(())
}

/// `pba-run cluster` — run an engine protocol or a streaming policy over
/// real shard processes: one `pba-run shard-worker` child per bin range
/// (stdin/stdout pipes by default; `--socket` swaps in Unix-domain
/// sockets, `--connect` targets already-listening workers, `--local`
/// worker threads over in-memory pipes). All transports speak the same
/// checksummed binary frames. Runs are bit-identical to the
/// single-process equivalent for the same seed regardless of transport;
/// the orchestrator verifies per-wave checksums and a final drain.
fn run_cluster(args: &[String]) -> Result<(), String> {
    let Some(mode) = args.first() else {
        return Err("cluster: missing mode ('protocol' or 'stream')".into());
    };
    match mode.as_str() {
        "protocol" => run_cluster_protocol(&args[1..]),
        "stream" => run_cluster_stream(&args[1..]),
        other => Err(format!(
            "cluster: unknown mode '{other}' (protocol or stream)"
        )),
    }
}

/// Which transport carries the cluster's wire frames.
enum ClusterTransport {
    /// Child processes over stdin/stdout pipes (the default).
    Process,
    /// Worker threads over in-memory pipes.
    Local,
    /// Managed child processes over Unix-domain sockets.
    Socket,
    /// Unmanaged, already-listening workers (one address per shard).
    Connect(Vec<String>),
}

/// `--local`, `--socket` and `--connect A1,A2,…` share one slot; the
/// last one given wins.
impl Slot for ClusterTransport {
    fn takes_value(&self, flag: &str) -> bool {
        flag == "--connect"
    }

    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        *self = match flag {
            "--local" => ClusterTransport::Local,
            "--socket" => ClusterTransport::Socket,
            _ => ClusterTransport::Connect(value.split(',').map(str::to_owned).collect()),
        };
        Ok(())
    }
}

impl ClusterTransport {
    fn describe(&self) -> &'static str {
        match self {
            ClusterTransport::Process => "processes",
            ClusterTransport::Local => "local threads",
            ClusterTransport::Socket => "socket workers",
            ClusterTransport::Connect(_) => "remote workers",
        }
    }

    fn run(&self, cfg: pba_cluster::ClusterConfig) -> Result<pba_cluster::ClusterOutcome, String> {
        match self {
            ClusterTransport::Process => cfg.run_process(),
            ClusterTransport::Local => cfg.run_local(),
            ClusterTransport::Socket => cfg.run_socket(),
            ClusterTransport::Connect(addrs) => cfg.run_connect(addrs),
        }
        .map_err(|e| e.to_string())
    }
}

/// Per-shard wire accounting lines shared by both cluster sub-modes.
fn print_cluster_wire(out: &pba_cluster::ClusterOutcome) {
    println!(
        "wire:       {} frames, {} bytes over {} shard link(s)",
        out.total_frames(),
        out.total_bytes(),
        out.shard_records.len()
    );
    for r in &out.shard_records {
        println!(
            "  shard {}: bins [{}, {}), frames {} out / {} in, bytes {} out / {} in, \
             {} barriers{}",
            r.shard,
            r.lo,
            r.hi,
            r.frames_sent,
            r.frames_recv,
            r.bytes_sent,
            r.bytes_recv,
            r.barriers,
            if r.killed { ", killed" } else { "" }
        );
    }
}

fn run_cluster_protocol(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("cluster protocol: missing name".into());
    };
    let mut m = 1u64 << 20;
    let mut n = 1u32 << 10;
    let mut seed = 0u64;
    let mut shards = 2u32;
    let mut transport = ClusterTransport::Process;
    let mut trace_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    parse_flags(
        &args[1..],
        &mut [
            ("--faults", &mut faults),
            ("--m", &mut m),
            ("--n", &mut n),
            ("--seed", &mut seed),
            ("--shards", &mut shards),
            ("--local|--socket|--connect", &mut transport),
            ("--trace", &mut trace_path),
        ],
        "",
    )?;
    if !protocol_names().contains(&name.as_str()) {
        return Err(format!(
            "unknown protocol '{name}' (try `pba-run protocols`)"
        ));
    }
    if shards == 0 || shards > n {
        return Err(format!("--shards must be in 1..={n} (the bin count)"));
    }
    let spec = ProblemSpec::new(m, n).map_err(|e| e.to_string())?;
    let trace = Trace::open(trace_path)?;
    let mut cfg = ClusterConfig::engine(name, spec, seed)
        .with_shards(shards)
        .with_metrics(trace.sink());
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cfg)?;
    let elapsed = started.elapsed();
    trace.flush()?;
    let run = out.run.as_ref().expect("engine outcome");
    let stats = run.load_stats();
    println!(
        "protocol:   {} (cluster: {shards} shard(s) as {}, binary wire)",
        run.protocol,
        transport.describe()
    );
    println!("spec:       {spec}");
    println!("rounds:     {}", run.rounds);
    println!(
        "placed:     {} ({} unallocated)",
        run.placed, run.unallocated
    );
    println!("max load:   {} (gap {})", stats.max(), run.gap());
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    println!(
        "messages:   {} total ({} requests, {} responses, {} commits)",
        run.messages.total(),
        run.messages.requests,
        run.messages.responses,
        run.messages.commits
    );
    if let Some(max_bin) = run.max_bin_received() {
        println!("max bin rx: {max_bin}");
    }
    print_cluster_wire(&out);
    println!("wall time:  {elapsed:.2?}");
    trace.print_path();
    Ok(())
}

fn run_cluster_stream(args: &[String]) -> Result<(), String> {
    let mut flags = StreamFlags::default();
    let mut shards = 2u32;
    let mut kill: Option<(u32, u64)> = None;
    let mut transport = ClusterTransport::Process;
    let mut trace_path: Option<String> = None;
    let mut faults: Option<FaultPlan> = None;
    flags.parse(
        args,
        &mut [
            ("--faults", &mut faults),
            ("--shards", &mut shards),
            ("--kill", &mut kill),
            ("--local|--socket|--connect", &mut transport),
            ("--trace", &mut trace_path),
        ],
    )?;
    let n = flags.n;
    if shards == 0 || shards > n {
        return Err(format!("--shards must be in 1..={n} (the bin count)"));
    }
    let (b, cfg) = flags.workload_cfg(n)?;
    let trace = Trace::open(trace_path)?;
    let mut cluster = ClusterConfig::stream(flags.policy, n, flags.seed, flags.batches, b)
        .with_workload(cfg)
        .with_shards(shards)
        .with_metrics(trace.sink());
    if let Some(plan) = faults {
        cluster = cluster.with_faults(plan);
    }
    if let Some((s, t)) = kill {
        cluster = cluster.with_kill(s, t);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cluster)?;
    let elapsed = started.elapsed();
    trace.flush()?;
    let resident: u64 = out.loads.iter().sum();
    let max_load = out.loads.iter().copied().max().unwrap_or(0);
    println!(
        "policy:     {} (cluster: {shards} shard(s) as {}, binary wire)",
        out.workload,
        transport.describe()
    );
    println!(
        "workload:   {}, b = {b}, churn {}, seed {}",
        flags.workload, flags.churn, flags.seed
    );
    if let Some((s, t)) = kill {
        println!(
            "chaos:      shard {s} killed before batch {t}; placements redirected to live domains"
        );
    }
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    println!("batches:    {}", out.batches);
    println!(
        "resident:   {resident} balls in {n} bins (max load {max_load}, gap {})",
        max_load.saturating_sub(resident / u64::from(n))
    );
    print_cluster_wire(&out);
    println!("wall time:  {elapsed:.2?}");
    trace.print_path();
    Ok(())
}

/// One benchmark tier: problem size, rep count, protocol subset, executor
/// sweep, and tuning mode.
struct BenchTier {
    name: &'static str,
    n: u32,
    reps: u64,
    protocols: Vec<&'static str>,
    executors: Vec<ExecutorKind>,
    tuning: Tuning,
    stream: bool,
}

/// The hot subset measured at medium+ tiers: the paper's headline
/// protocols plus the single-choice baseline.
const HOT_PROTOCOLS: [&str; 4] = [
    "single-choice",
    "collision",
    "parallel-two-choice",
    "stemann-heavy",
];

/// Small-shaped tier: the full registry plus the stream section, with a
/// pinned fan-out geometry. The parallel rows need two fixes to report
/// genuine pool numbers in `BENCH_*.json` instead of `pool_jobs: 0`: a
/// dedicated 4-lane pool (the global pool collapses to one lane on
/// single-core runners, and one-lane rounds never fan out), and a chunk
/// geometry under the bench sizes (m = n ≤ 4096 sits below the auto
/// fan-out cutoff, which would silently serialize every round).
fn small_shaped_tier(name: &'static str, n: u32, reps: u64) -> BenchTier {
    BenchTier {
        name,
        n,
        reps,
        protocols: protocol_names().to_vec(),
        executors: vec![ExecutorKind::Sequential, ExecutorKind::ParallelWith(4)],
        tuning: Tuning::fixed(256, n as usize),
        stream: true,
    }
}

/// Medium+ tier: the hot subset across a lane sweep under [`Tuning::Auto`]
/// so lane-scaling curves come out of one invocation.
fn lane_sweep_tier(name: &'static str, n: u32, reps: u64) -> BenchTier {
    BenchTier {
        name,
        n,
        reps,
        protocols: HOT_PROTOCOLS.to_vec(),
        executors: vec![
            ExecutorKind::Sequential,
            ExecutorKind::ParallelWith(2),
            ExecutorKind::ParallelWith(4),
        ],
        tuning: Tuning::Auto,
        stream: false,
    }
}

/// The named bench/tune tiers, in size order.
const TIER_NAMES: [&str; 4] = ["small", "medium", "large", "xl"];

fn bench_tier(tier: &str) -> Result<BenchTier, String> {
    Ok(match tier {
        "small" => small_shaped_tier("small", 1 << 10, 5),
        "medium" => lane_sweep_tier("medium", 1 << 16, 3),
        "large" => lane_sweep_tier("large", 1 << 20, 2),
        "xl" => lane_sweep_tier("xl", 1 << 24, 1),
        other => return Err(unknown_tier_message(other)),
    })
}

/// Error text for an unrecognized `--tier` value: list the tiers and,
/// when something known is close, suggest it — same treatment experiment
/// ids and verify claims get.
fn unknown_tier_message(tier: &str) -> String {
    let lowered = tier.to_lowercase();
    let best = TIER_NAMES
        .iter()
        .map(|t| (edit_distance(&lowered, t), *t))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, t)) => format!("did you mean '{t}'? "),
        None => String::new(),
    };
    format!(
        "unknown tier '{tier}': {hint}choose from: {}",
        TIER_NAMES.join(", ")
    )
}

/// Lanes an executor actually runs with (reported in every bench row).
fn executor_lanes(executor: ExecutorKind) -> usize {
    match executor {
        ExecutorKind::Sequential => 1,
        ExecutorKind::Parallel => pba_par::global_pool().lanes(),
        ExecutorKind::ParallelWith(lanes) => lanes.max(1),
    }
}

fn tuning_mode(tuning: Tuning) -> &'static str {
    match tuning {
        Tuning::Auto => "auto",
        Tuning::Fixed(_) => "fixed",
    }
}

/// Resolve `--out` into a file path: a value ending in `.json` names the
/// file exactly (for side-by-side baseline comparisons via
/// `scripts/bench_diff.sh`); anything else is a directory receiving
/// `default_name`.
fn resolve_out_path(out: Option<&str>, default_name: &str) -> Result<String, String> {
    let out = out.unwrap_or(".");
    if out.ends_with(".json") {
        if let Some(parent) = std::path::Path::new(out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        Ok(out.to_string())
    } else {
        std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
        Ok(format!("{out}/{default_name}"))
    }
}

/// Criterion-free self-timing benchmark of the protocol registry at one
/// tier: each tier's protocol subset at `m = n` across its executor
/// sweep, `reps` seeds each, measured by the engine's own
/// [`EngineMetrics`]; the small-shaped tiers additionally time every
/// streaming placement policy ingesting 32n-ball batches. Every JSON row
/// carries the actual lane count and the resolved tuning, and the doc is
/// written to `BENCH_<tier>.json`.
fn run_bench(args: &[String]) -> Result<(), String> {
    let mut tier_name: Option<String> = None;
    let mut scale: Option<Scale> = None;
    let mut out_dir: Option<String> = None;
    parse_flags(
        args,
        &mut [
            ("--tier", &mut tier_name),
            ("--scale", &mut scale),
            ("--out", &mut out_dir),
            ("--trace", &mut Refused("bench does not take --trace")),
        ],
        "",
    )?;
    if tier_name.is_some() && scale.is_some() {
        return Err("bench takes --tier or --scale, not both".into());
    }
    // `--scale` is the legacy spelling of the small-shaped tiers (smoke
    // and full keep their historical sizes); `--tier` adds the lane-sweep
    // campaign sizes. The default is the small tier — the committed
    // BENCH_small.json baseline and the CI throughput gate.
    let tier = match (tier_name.as_deref(), scale) {
        (Some(t), None) => bench_tier(t)?,
        (None, Some(Scale::Smoke)) => {
            small_shaped_tier("smoke", 1 << 8, Scale::Smoke.reps() as u64)
        }
        (None, Some(Scale::Full)) => small_shaped_tier("full", 1 << 12, Scale::Full.reps() as u64),
        (None, _) => small_shaped_tier("small", 1 << 10, Scale::Default.reps() as u64),
        (Some(_), Some(_)) => unreachable!("rejected above"),
    };

    let n = tier.n;
    let reps = tier.reps;
    let spec = ProblemSpec::new(n as u64, n).map_err(|e| e.to_string())?;
    eprintln!(
        "benchmarking {} protocol(s) at m = n = {n} ({} tier), {reps} seed(s), {} executor(s)…",
        tier.protocols.len(),
        tier.name,
        tier.executors.len()
    );
    let mut entries = Vec::new();
    println!(
        "{:<22} {:<12} {:>6} {:>12} {:>12} {:>9}",
        "protocol", "executor", "lanes", "balls/s", "rounds/s", "rounds"
    );
    for &name in &tier.protocols {
        for &executor in &tier.executors {
            let lanes = executor_lanes(executor);
            let metrics = Arc::new(EngineMetrics::new());
            for rep in 0..reps {
                let cfg = RunConfig::seeded(90_000 + rep)
                    .with_executor(executor)
                    .with_tuning(tier.tuning)
                    .with_trace(false)
                    .with_metrics(metrics.clone());
                run_by_name(name, spec, cfg)
                    .expect("registry name")
                    .map_err(|e| format!("{name} ({}): {e}", executor_str(executor)))?;
            }
            let report = metrics.report();
            println!(
                "{:<22} {:<12} {:>6} {:>12.0} {:>12.1} {:>9}",
                name,
                executor_str(executor),
                lanes,
                report.balls_per_sec(),
                report.rounds_per_sec(),
                report.rounds
            );
            // The resolved plan for a full-size round (under auto tuning
            // later rounds re-resolve as the active set drains).
            let plan = tier.tuning.plan(spec.balls(), lanes);
            let mut entry = JsonObject::new()
                .str("protocol", name)
                .str("executor", &executor_str(executor))
                .u64("lanes", lanes as u64)
                .str("tuning", tuning_mode(tier.tuning))
                .u64("min_chunk", plan.min_chunk as u64)
                .u64("par_cutoff", plan.par_cutoff as u64)
                .u64("runs", report.runs)
                .u64("rounds", report.rounds)
                .u64("placed", report.placed)
                .u64("run_nanos", report.run_nanos)
                .u64("round_nanos", report.round_nanos)
                .f64("balls_per_sec", report.balls_per_sec())
                .f64("rounds_per_sec", report.rounds_per_sec())
                .raw("phase_nanos", &u64_array(&report.phase_nanos));
            if let Some(pool) = &report.pool {
                entry = entry
                    .u64("pool_jobs", pool.jobs)
                    .u64("pool_tasks", pool.tasks)
                    .u64("pool_busy_nanos", pool.total_busy_nanos());
            }
            entries.push(entry.finish());
        }
    }

    // Streaming throughput (small-shaped tiers): every placement policy
    // ingesting 32n-ball batches (32n ≥ the ingest parallel cutoff at
    // every scale), so the parallel rows genuinely exercise the pool.
    let stream_b = 32 * n as u64;
    let stream_batches = 8u64;
    let mut stream_entries = Vec::new();
    if tier.stream {
        eprintln!(
            "benchmarking {} stream policies at n = {n}, b = 32n, {reps} seeds…",
            PolicyKind::ALL.len()
        );
        println!();
        println!(
            "{:<22} {:<12} {:>12} {:>12} {:>14}",
            "stream policy", "ingest", "batches/s", "balls/s", "balls/s/lane"
        );
        for kind in PolicyKind::ALL {
            for parallel in [false, true] {
                // Live-load two-choice is defined by sequential ingestion;
                // a "parallel" row would just repeat the sequential
                // numbers.
                if parallel && matches!(kind, PolicyKind::TwoChoice) {
                    continue;
                }
                let lanes = if parallel {
                    pba_par::global_pool().lanes() as u64
                } else {
                    1
                };
                let metrics = Arc::new(EngineMetrics::new());
                for rep in 0..reps {
                    let mut alloc = StreamAllocator::new(n, 91_000 + rep, kind)
                        .with_shards(lanes as usize)
                        .with_metrics(metrics.clone());
                    if parallel {
                        alloc = alloc.parallel();
                    }
                    let mut traffic = Workload::new(WorkloadCfg::uniform(stream_b), 92_000 + rep);
                    for _ in 0..stream_batches {
                        alloc.ingest(&traffic.next_batch());
                    }
                }
                let report = metrics.report();
                let ingest = if parallel { "parallel" } else { "sequential" };
                let balls_per_sec = report.stream_balls_per_sec();
                println!(
                    "{:<22} {:<12} {:>12.1} {:>12.0} {:>14.0}",
                    kind.name(),
                    ingest,
                    report.batches_per_sec(),
                    balls_per_sec,
                    balls_per_sec / lanes as f64
                );
                // The allocator runs Tuning::Auto; report the plan it
                // resolves for a full-size batch.
                let plan = Tuning::Auto.plan_ingest(stream_b, lanes as usize);
                stream_entries.push(
                    JsonObject::new()
                        .str("policy", kind.name())
                        .str("ingest", ingest)
                        .u64("lanes", lanes)
                        .str("tuning", "auto")
                        .u64("min_chunk", plan.min_chunk as u64)
                        .u64("par_cutoff", plan.par_cutoff as u64)
                        .u64("batches", report.batches)
                        .u64("balls", report.batch_arrivals)
                        .u64("batch_nanos", report.batch_nanos)
                        .f64("batches_per_sec", report.batches_per_sec())
                        .f64("balls_per_sec", balls_per_sec)
                        .f64("balls_per_sec_per_lane", balls_per_sec / lanes as f64)
                        .finish(),
                );
            }
        }
    }

    // Cluster mode (small-shaped tiers): wire cost and throughput of the
    // sharded orchestration at 1/2/4 shards, plus a 4-shard run at
    // n = 2^20 regardless of the tier size, where bytes per wave are
    // representative of a real fan-out. Worker threads over in-memory
    // pipes carry the identical wire protocol; spawning real processes
    // here would benchmark the OS, not the waves. The rows lack the
    // protocol/executor and policy/ingest keys `bench_diff.sh` matches
    // on, so the section rides along outside the regression gate.
    let mut cluster_entries = Vec::new();
    if tier.stream {
        eprintln!("benchmarking cluster mode at m = n = {n}, shards 1/2/4, and at 2^20…");
        println!();
        println!(
            "{:<22} {:>7} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "cluster", "shards", "wire", "balls/s", "frames", "bytes", "bytes/wave"
        );
        let wide_n = 1u32 << 20;
        let wide_spec = ProblemSpec::new(u64::from(wide_n), wide_n).map_err(|e| e.to_string())?;
        for (label, spec, shards) in [
            ("engine/collision", spec, 1u32),
            ("engine/collision", spec, 2),
            ("engine/collision", spec, 4),
            ("engine/collision 2^20", wide_spec, 4),
        ] {
            let started = std::time::Instant::now();
            let out = ClusterConfig::engine("collision", spec, 93_000)
                .with_shards(shards)
                .run_local()
                .map_err(|e| format!("cluster bench ({label}, {shards} shards): {e}"))?;
            let nanos = started.elapsed().as_nanos() as u64;
            let run = out.run.as_ref().expect("engine outcome");
            let bps = run.placed as f64 / (nanos as f64 / 1e9);
            // Every shard crosses the same barriers; shard 0's count is
            // the wave count of the whole run.
            let waves = out.shard_records.first().map_or(0, |r| r.barriers);
            let bytes_per_wave = out.total_bytes() / waves.max(1);
            println!(
                "{:<22} {:>7} {:>7} {:>12.0} {:>12} {:>12} {:>12}",
                label,
                shards,
                "binary",
                bps,
                out.total_frames(),
                out.total_bytes(),
                bytes_per_wave
            );
            cluster_entries.push(
                JsonObject::new()
                    .str("mode", "engine")
                    .str("workload", out.workload)
                    .str("wire", "binary")
                    .u64("n", u64::from(spec.bins()))
                    .u64("shards", u64::from(shards))
                    .u64("rounds", u64::from(run.rounds))
                    .u64("placed", run.placed)
                    .u64("messages", run.messages.total())
                    .u64("frames", out.total_frames())
                    .u64("bytes", out.total_bytes())
                    .u64("waves", waves)
                    .u64("wire_bytes_per_wave", bytes_per_wave)
                    .u64("wall_nanos", nanos)
                    .f64("balls_per_sec", bps)
                    .finish(),
            );
        }
    }

    // Replay-service latency (small-shaped tiers): each workload shape
    // replayed unthrottled through the service facade, reporting
    // queue-to-placement latency percentiles per ball. Entries carry no
    // `ingest` key, so they ride outside the `bench_diff.sh` gate like
    // the cluster section.
    let serve_b = 4 * n as u64;
    let serve_batches = 12u64;
    let mut service_entries = Vec::new();
    if tier.stream {
        eprintln!("benchmarking replay service at n = {n}, b = 4n, 3 workloads…");
        println!();
        println!(
            "{:<22} {:>12} {:>10} {:>10} {:>10}",
            "serve workload", "balls/s", "p50 µs", "p99 µs", "p999 µs"
        );
        for workload in ["uniform", "zipf", "burst"] {
            let kind = parse_workload_kind(workload)?;
            let cfg = WorkloadCfg {
                kind,
                batch: serve_b,
                churn: 0.0,
                weights: WeightDist::Constant(1),
            };
            let alloc = StreamAllocator::new(n, 94_000, PolicyKind::BatchedTwoChoice);
            let mut traffic = Workload::new(cfg, 94_500);
            let service_cfg = ServiceConfig::default()
                .with_queue_capacity(4)
                .with_checkpoint_every(4);
            let started = std::time::Instant::now();
            let (_, report) = replay(alloc, &mut traffic, serve_batches, service_cfg);
            let nanos = started.elapsed().as_nanos() as u64;
            let bps = report.balls as f64 / (nanos as f64 / 1e9);
            println!(
                "{:<22} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
                workload,
                bps,
                report.total.p50() as f64 / 1e3,
                report.total.p99() as f64 / 1e3,
                report.total.p999() as f64 / 1e3
            );
            service_entries.push(
                JsonObject::new()
                    .str("workload", workload)
                    .str("policy", "batched-two-choice")
                    .u64("queue", 4)
                    .u64("batches", report.batches)
                    .u64("balls", report.balls)
                    .u64("checkpoints", report.checkpoints.len() as u64)
                    .u64("p50_nanos", report.total.p50())
                    .u64("p99_nanos", report.total.p99())
                    .u64("p999_nanos", report.total.p999())
                    .u64("max_nanos", report.total.max())
                    .u64("wall_nanos", nanos)
                    .f64("balls_per_sec", bps)
                    .finish(),
            );
        }
    }

    let mut doc = JsonObject::new()
        .str("bench", "pba protocol registry")
        .str("tier", tier.name)
        .str("scale", tier.name)
        .u64("m", spec.balls())
        .u64("n", spec.bins() as u64)
        .u64("reps", reps)
        .str("tuning", tuning_mode(tier.tuning))
        .raw("phases", &phase_names_json())
        .raw("entries", &format!("[{}]", entries.join(",")));
    if tier.stream {
        doc = doc
            .u64("stream_batch", stream_b)
            .u64("stream_batches", stream_batches)
            .raw("stream_entries", &format!("[{}]", stream_entries.join(",")))
            .raw(
                "cluster_entries",
                &format!("[{}]", cluster_entries.join(",")),
            )
            .u64("service_batch", serve_b)
            .u64("service_batches", serve_batches)
            .raw(
                "service_entries",
                &format!("[{}]", service_entries.join(",")),
            );
    }
    let doc = doc.finish();
    let path = resolve_out_path(out_dir.as_deref(), &format!("BENCH_{}.json", tier.name))?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Measure one registry protocol's throughput (balls/s) at `m = n` with
/// a pinned executor and tuning, aggregated over `reps` seeded runs.
fn tune_point(
    name: &str,
    n: u32,
    executor: ExecutorKind,
    tuning: Tuning,
    reps: u64,
) -> Result<f64, String> {
    let spec = ProblemSpec::new(n as u64, n).map_err(|e| e.to_string())?;
    let metrics = Arc::new(EngineMetrics::new());
    for rep in 0..reps {
        let cfg = RunConfig::seeded(95_000 + rep)
            .with_executor(executor)
            .with_tuning(tuning)
            .with_trace(false)
            .with_metrics(metrics.clone());
        run_by_name(name, spec, cfg)
            .expect("registry name")
            .map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(metrics.report().balls_per_sec())
}

/// Measure streaming ingest throughput (balls/s) for one batch size.
fn tune_ingest_point(n: u32, b: u64, parallel: bool, tuning: Tuning, reps: u64) -> f64 {
    let metrics = Arc::new(EngineMetrics::new());
    for rep in 0..reps {
        let mut alloc = StreamAllocator::new(n, 96_000 + rep, PolicyKind::BatchedTwoChoice)
            .with_shards(4)
            .with_tuning(tuning)
            .with_metrics(metrics.clone());
        if parallel {
            alloc = alloc.parallel();
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(b), 97_000 + rep);
        for _ in 0..4 {
            alloc.ingest(&traffic.next_batch());
        }
    }
    metrics.report().stream_balls_per_sec()
}

/// `pba-run tune` — sweep the chunk-geometry knobs at one tier and write
/// `tuning.json`: the measurements that feed the shipped `Tuning::Auto`
/// tables (`AUTO_*` constants in `pba_core::exec`). Three sweeps:
///
/// 1. **min_chunk** — parallel(4) single-choice at the tier size with the
///    fan-out forced, across per-chunk floors; the best floor is the
///    `AUTO_MIN_CHUNK_FLOOR` candidate.
/// 2. **crossover** — sequential vs parallel(4) across geometric problem
///    sizes up to the tier size; the smallest size where parallel wins is
///    the `AUTO_PAR_CUTOFF` candidate (absent on hardware where parallel
///    never wins — single-core runners — in which case the shipped
///    default is kept and reported as such).
/// 3. **ingest** — the same two sweeps for the streaming snapshot path.
fn run_tune(args: &[String]) -> Result<(), String> {
    let mut tier_name = "medium".to_string();
    let mut out_dir: Option<String> = None;
    parse_flags(
        args,
        &mut [("--tier", &mut tier_name), ("--out", &mut out_dir)],
        "",
    )?;
    let tier = bench_tier(&tier_name)?;
    let n = tier.n;
    let reps = tier.reps.max(2);
    let par4 = ExecutorKind::ParallelWith(4);

    // --- Sweep 1: per-chunk floor at the tier size, fan-out forced.
    eprintln!("tune: min_chunk sweep at m = n = {n} ({tier_name} tier)…");
    println!("{:<14} {:>14}", "min_chunk", "par(4) balls/s");
    let mut mc_rows = Vec::new();
    let mut best_mc = (pba_core::exec::AUTO_MIN_CHUNK_FLOOR, 0.0f64);
    for mc in [1usize << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16] {
        if mc > n as usize {
            continue;
        }
        let bps = tune_point("single-choice", n, par4, Tuning::fixed(mc, 1), reps)?;
        println!("{:<14} {:>14.0}", mc, bps);
        if bps > best_mc.1 {
            best_mc = (mc, bps);
        }
        mc_rows.push(
            JsonObject::new()
                .u64("min_chunk", mc as u64)
                .f64("balls_per_sec", bps)
                .finish(),
        );
    }

    // --- Sweep 2: serial→parallel crossover over geometric sizes.
    eprintln!("tune: crossover sweep (sequential vs parallel(4))…");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "work", "seq balls/s", "par(4) balls/s", "winner"
    );
    let mut cross_rows = Vec::new();
    let mut crossover: Option<u64> = None;
    let mut w = 1u32 << 12;
    loop {
        let seq = tune_point(
            "single-choice",
            w,
            ExecutorKind::Sequential,
            Tuning::Auto,
            reps,
        )?;
        let par = tune_point(
            "single-choice",
            w,
            par4,
            Tuning::fixed(best_mc.0.min(w as usize), 1),
            reps,
        )?;
        let winner = if par > seq { "parallel" } else { "serial" };
        if par > seq && crossover.is_none() {
            crossover = Some(w as u64);
        }
        println!("{:<12} {:>14.0} {:>14.0} {:>8}", w, seq, par, winner);
        cross_rows.push(
            JsonObject::new()
                .u64("work", w as u64)
                .f64("seq_balls_per_sec", seq)
                .f64("par_balls_per_sec", par)
                .str("winner", winner)
                .finish(),
        );
        if w >= n {
            break;
        }
        w = (w << 2).min(n);
    }

    // --- Sweep 3: ingest crossover + floor for the streaming path.
    let ingest_n = n.min(1 << 12);
    eprintln!("tune: ingest sweep at n = {ingest_n} (batched-two-choice)…");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "batch", "seq balls/s", "par balls/s", "winner"
    );
    let mut ingest_rows = Vec::new();
    let mut ingest_crossover: Option<u64> = None;
    for b in [1u64 << 11, 1 << 13, 1 << 15, 1 << 17] {
        let seq = tune_ingest_point(ingest_n, b, false, Tuning::Auto, reps);
        let par = tune_ingest_point(
            ingest_n,
            b,
            true,
            Tuning::fixed(pba_core::exec::AUTO_INGEST_MIN_CHUNK, 1),
            reps,
        );
        let winner = if par > seq { "parallel" } else { "serial" };
        if par > seq && ingest_crossover.is_none() {
            ingest_crossover = Some(b);
        }
        println!("{:<12} {:>14.0} {:>14.0} {:>8}", b, seq, par, winner);
        ingest_rows.push(
            JsonObject::new()
                .u64("batch", b)
                .f64("seq_balls_per_sec", seq)
                .f64("par_balls_per_sec", par)
                .str("winner", winner)
                .finish(),
        );
    }

    // Shipped constants, and what this box's measurements suggest. A null
    // crossover means parallel never won (expected on single-core
    // runners): the shipped cutoff is kept rather than disabling fan-out
    // for the hardware the binary was tuned on elsewhere.
    let suggested_cutoff = crossover.unwrap_or(pba_core::exec::AUTO_PAR_CUTOFF as u64);
    let suggested_ingest_cutoff =
        ingest_crossover.unwrap_or(pba_core::exec::AUTO_INGEST_PAR_CUTOFF as u64);
    println!();
    println!(
        "suggested: min_chunk_floor {} (measured best), par_cutoff {} ({}), \
         ingest_par_cutoff {} ({})",
        best_mc.0,
        suggested_cutoff,
        if crossover.is_some() {
            "measured crossover"
        } else {
            "no crossover measured; shipped default kept"
        },
        suggested_ingest_cutoff,
        if ingest_crossover.is_some() {
            "measured crossover"
        } else {
            "no crossover measured; shipped default kept"
        },
    );

    let doc = JsonObject::new()
        .str("tool", "pba-run tune")
        .str("tier", tier.name)
        .u64("n", n as u64)
        .u64("reps", reps)
        .raw("min_chunk_sweep", &format!("[{}]", mc_rows.join(",")))
        .u64("best_min_chunk", best_mc.0 as u64)
        .raw("crossover_sweep", &format!("[{}]", cross_rows.join(",")))
        .raw(
            "measured_par_crossover",
            &crossover.map_or("null".into(), |c| c.to_string()),
        )
        .raw("ingest_sweep", &format!("[{}]", ingest_rows.join(",")))
        .raw(
            "measured_ingest_crossover",
            &ingest_crossover.map_or("null".into(), |c| c.to_string()),
        )
        .raw(
            "suggested",
            &JsonObject::new()
                .u64("min_chunk_floor", best_mc.0 as u64)
                .u64("par_cutoff", suggested_cutoff)
                .u64(
                    "ingest_min_chunk",
                    pba_core::exec::AUTO_INGEST_MIN_CHUNK as u64,
                )
                .u64("ingest_par_cutoff", suggested_ingest_cutoff)
                .finish(),
        )
        .raw(
            "shipped",
            &JsonObject::new()
                .u64(
                    "min_chunk_floor",
                    pba_core::exec::AUTO_MIN_CHUNK_FLOOR as u64,
                )
                .u64("par_cutoff", pba_core::exec::AUTO_PAR_CUTOFF as u64)
                .u64(
                    "ingest_min_chunk",
                    pba_core::exec::AUTO_INGEST_MIN_CHUNK as u64,
                )
                .u64(
                    "ingest_par_cutoff",
                    pba_core::exec::AUTO_INGEST_PAR_CUTOFF as u64,
                )
                .finish(),
        )
        .finish();
    let path = resolve_out_path(out_dir.as_deref(), "tuning.json")?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Error text for an unrecognized claim id: list the registry and, when
/// something known is close, suggest it — same treatment experiment ids
/// get in [`unknown_command_message`].
fn unknown_claim_message(id: &str) -> String {
    let ids = pba_conformance::claim_ids();
    let lowered = id.to_lowercase();
    let best = ids
        .iter()
        .map(|c| (edit_distance(&lowered, c), *c))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, c)) => format!("did you mean '{c}'? "),
        None => String::new(),
    };
    format!(
        "unknown claim '{id}': {hint}registered oracles are {}",
        ids.join(", ")
    )
}

/// `pba-run verify` — run the statistical claim oracles from
/// `pba-conformance` and render a paper-style verdict table. Exits
/// nonzero when any claim is REFUTED, so CI catches a miswired engine;
/// `--faults` deliberately miswires every run (the negative control).
fn run_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut scale = VerifyScale::Ci;
    let mut json = false;
    let mut faults: Option<FaultPlan> = None;
    let mut requested: Vec<String> = Vec::new();
    parse_flags(
        args,
        &mut [
            ("--scale", &mut scale),
            ("--json", &mut json),
            ("--faults", &mut faults),
            ("", &mut requested),
        ],
        "",
    )?;
    let claims: Vec<Box<dyn Claim>> = if requested.is_empty() {
        pba_conformance::all_claims()
    } else {
        requested
            .iter()
            .map(|id| pba_conformance::claim_by_id(id).ok_or_else(|| unknown_claim_message(id)))
            .collect::<Result<_, _>>()?
    };
    let opts = VerifyOptions {
        scale,
        miswire: faults,
    };

    eprintln!(
        "verifying {} claim(s) at {} scale ({} replicates each)…",
        claims.len(),
        scale.name(),
        scale.reps()
    );
    if let Some(plan) = &faults {
        eprintln!("miswired on purpose: {}", describe_fault_plan(plan));
    }
    let started = std::time::Instant::now();
    let reports: Vec<_> = claims
        .iter()
        .map(|c| {
            let t = std::time::Instant::now();
            let r = c.check(&opts);
            eprintln!(
                "  {:<12} {:<9} {:.1?}",
                r.id,
                r.verdict.as_str(),
                t.elapsed()
            );
            r
        })
        .collect();
    let elapsed = started.elapsed();
    let refuted = reports.iter().filter(|r| !r.confirmed()).count();

    if json {
        let entries: Vec<String> = reports
            .iter()
            .map(|r| {
                let notes: Vec<String> = r
                    .notes
                    .iter()
                    .map(|s| format!("\"{}\"", json_escape(s)))
                    .collect();
                JsonObject::new()
                    .str("id", r.id)
                    .str("experiment", r.experiment)
                    .str("title", r.title)
                    .str("bound", &r.bound)
                    .str("observed", &r.observed)
                    .f64("mean", r.mean)
                    .f64("ci_lo", r.ci.0)
                    .f64("ci_hi", r.ci.1)
                    .str("verdict", r.verdict.as_str())
                    .raw("notes", &format!("[{}]", notes.join(",")))
                    .finish()
            })
            .collect();
        let doc = JsonObject::new()
            .str("scale", scale.name())
            .u64("claims", reports.len() as u64)
            .u64("refuted", refuted as u64)
            .raw("reports", &format!("[{}]", entries.join(",")))
            .finish();
        println!("{doc}");
    } else {
        let mut table = Table::new(
            format!(
                "Conformance verdicts at {} scale ({} replicates per point)",
                scale.name(),
                scale.reps()
            ),
            &["oracle", "exp", "bound", "observed", "verdict"],
        );
        for r in &reports {
            table.push_row(vec![
                r.id.to_string(),
                r.experiment.to_string(),
                r.bound.clone(),
                r.observed.clone(),
                r.verdict.as_str().to_string(),
            ]);
        }
        println!("{}", table.to_markdown());
        for r in &reports {
            if !r.notes.is_empty() {
                println!("{} — {}", r.id, r.title);
                for note in &r.notes {
                    println!("  · {note}");
                }
            }
        }
        println!();
        println!(
            "{} claim(s) checked in {:.1?}: {} CONFIRMED, {} REFUTED",
            reports.len(),
            elapsed,
            reports.len() - refuted,
            refuted
        );
    }
    Ok(if refuted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The phase-name legend for `phase_nanos` arrays in `BENCH_*.json`.
fn phase_names_json() -> String {
    let names: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("\"{}\"", p.name()))
        .collect();
    format!("[{}]", names.join(","))
}
