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
//! pba-run verify [CLAIM…] [--scale ci|full] [--json]  # statistical claim oracles
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use pba_cluster::ClusterConfig;
use pba_conformance::{Claim, VerifyOptions, VerifyScale};
use pba_core::json::{escape as json_escape, JsonObject};
use pba_core::metrics::{EngineMetrics, FanoutSink, MetricsSink, Phase};
use pba_core::{FaultPlan, ProblemSpec, RunConfig};
use pba_protocols::{protocol_names, run_by_name};
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
    const COMMANDS: [&str; 8] = [
        "list",
        "all",
        "protocol",
        "protocols",
        "stream",
        "serve",
        "cluster",
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
