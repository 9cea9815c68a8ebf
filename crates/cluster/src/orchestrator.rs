//! The cluster orchestrator: drives shard workers through round/batch
//! waves and stays bit-identical to the single-process engine.
//!
//! ## Determinism argument
//!
//! The orchestrator keeps the *ball side* of every protocol — gather,
//! arrival ranks, resolve, fault machinery — inside the ordinary
//! in-process engine, and externalizes only the *bin side* through the
//! [`GrantDelegate`] seam. Each worker runs
//! [`grant_slice`](pba_core::exec::grant_slice) — the same kernel the
//! local grant phase uses — over its own dense slice, and replies are
//! merged in shard order, so every merged quantity equals the local
//! computation term for term. Streaming runs keep an authoritative local
//! [`StreamAllocator`] mirror (placement decisions never depend on worker
//! state) and ship absolute load updates outward. Both modes are
//! therefore bit-identical to `--shards 1` and to the in-process paths
//! by construction; the drain wave and per-wave checksums *verify* it on
//! every run.
//!
//! ## Chaos
//!
//! [`ClusterConfig::with_kill`] schedules a real kill: the shard process
//! dies before the given batch, the next wave's send/recv to it fails,
//! and the orchestrator routes around it via the fault layer's
//! [`dead-domain`](FaultPlan::with_dead_domain) redirect — the same
//! pure-function redirect an in-process run with the same plan performs,
//! which is what the equivalence tests pin.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use pba_core::protocol::RoundContext;
use pba_core::trace::RoundRecord;
use pba_core::{
    ClusterMeta, ClusterShardRecord, CoreError, FaultPlan, GrantDelegate, MetricsSink, ProblemSpec,
    Result, RoundProtocol, RunConfig, RunOutcome, Simulator,
};
use pba_protocols::{visit_protocol, ProtocolVisitor};
use pba_stream::{PolicyKind, StreamAllocator, Workload, WorkloadCfg};

use crate::transport::ShardLink;
use crate::wire::{Frame, Hello, PairBuf, PairList};

/// First bin of shard `s` among `n` bins and `shards` shards.
///
/// The partition is chosen to coincide with the fault layer's
/// [`FaultPlan::domain_of`] striping (`domain_of(b) = ⌊b·S/n⌋`), so when
/// `shards == domains`, killing fault domain `d` kills exactly shard
/// `d`'s bins — the chaos harness depends on this alignment.
pub fn shard_lo(s: u32, n: u32, shards: u32) -> u32 {
    ((u64::from(s) * u64::from(n)).div_ceil(u64::from(shards))) as u32
}

/// The shard owning bin `b` (inverse of [`shard_lo`]).
pub fn shard_of(b: u32, n: u32, shards: u32) -> u32 {
    ((u64::from(b) * u64::from(shards)) / u64::from(n)) as u32
}

/// What workload the cluster executes.
enum ModeCfg {
    /// A round-synchronous engine protocol by registry name.
    Engine { protocol: String, spec: ProblemSpec },
    /// A streaming policy over a synthetic workload.
    Stream {
        policy: PolicyKind,
        bins: u32,
        workload: WorkloadCfg,
        batches: u64,
    },
}

/// Builder for a cluster run. See the crate docs for examples.
pub struct ClusterConfig {
    mode: ModeCfg,
    seed: u64,
    shards: u32,
    metrics: Option<Arc<dyn MetricsSink>>,
    faults: Option<FaultPlan>,
    kill: Option<(u32, u64)>,
    worker_exe: Option<PathBuf>,
    validate: bool,
}

/// What a cluster run produced.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// `"engine"` or `"stream"`.
    pub mode: &'static str,
    /// Protocol or policy name.
    pub workload: &'static str,
    /// Final per-bin loads (authoritative, drain-verified).
    pub loads: Vec<u64>,
    /// The full engine outcome (engine mode only).
    pub run: Option<RunOutcome>,
    /// Batches ingested (stream mode only).
    pub batches: u64,
    /// Per-shard wire totals (also delivered to the sink's `on_cluster`).
    pub shard_records: Vec<ClusterShardRecord>,
}

impl ClusterOutcome {
    /// Total frames exchanged, both directions, all shards.
    pub fn total_frames(&self) -> u64 {
        self.shard_records
            .iter()
            .map(|r| r.frames_sent + r.frames_recv)
            .sum()
    }

    /// Total bytes exchanged, both directions, all shards.
    pub fn total_bytes(&self) -> u64 {
        self.shard_records
            .iter()
            .map(|r| r.bytes_sent + r.bytes_recv)
            .sum()
    }
}

impl ClusterConfig {
    /// A cluster run of the named registry protocol (engine mode).
    pub fn engine(protocol: &str, spec: ProblemSpec, seed: u64) -> Self {
        Self {
            mode: ModeCfg::Engine {
                protocol: protocol.to_owned(),
                spec,
            },
            seed,
            shards: 1,
            metrics: None,
            faults: None,
            kill: None,
            worker_exe: None,
            validate: false,
        }
    }

    /// A cluster run of a streaming policy over a uniform unit-weight
    /// workload of `batches` batches × `batch_size` arrivals
    /// (stream mode). Refine with [`ClusterConfig::with_workload`].
    pub fn stream(policy: PolicyKind, bins: u32, seed: u64, batches: u64, batch_size: u64) -> Self {
        Self {
            mode: ModeCfg::Stream {
                policy,
                bins,
                workload: WorkloadCfg::uniform(batch_size),
                batches,
            },
            seed,
            shards: 1,
            metrics: None,
            faults: None,
            kill: None,
            worker_exe: None,
            validate: false,
        }
    }

    /// Replace the stream workload (no effect in engine mode).
    pub fn with_workload(mut self, cfg: WorkloadCfg) -> Self {
        if let ModeCfg::Stream { workload, .. } = &mut self.mode {
            *workload = cfg;
        }
        self
    }

    /// Split the bin space over `shards` workers (1..=bins).
    pub fn with_shards(mut self, shards: u32) -> Self {
        assert!(shards >= 1, "at least one shard");
        self.shards = shards;
        self
    }

    /// Attach a metrics sink: engine rounds/run flow through it as usual,
    /// plus one `cluster` event per shard at teardown.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Arm deterministic fault injection (see [`RunConfig::with_faults`]
    /// and `StreamAllocator::with_faults`; stragglers additionally delay
    /// real worker replies).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Chaos harness (stream mode): really kill shard `shard`'s worker
    /// before batch `batch` and route around the dead pipe via the fault
    /// layer's dead-domain redirect. Requires the fault plan's domain
    /// count (default: the shard count) to equal the shard count.
    pub fn with_kill(mut self, shard: u32, batch: u64) -> Self {
        self.kill = Some((shard, batch));
        self
    }

    /// Arm the in-engine invariant checker for engine-mode runs.
    pub fn with_validation(mut self, validate: bool) -> Self {
        self.validate = validate;
        self
    }

    /// Path of the worker executable for [`ClusterConfig::run_process`]
    /// (defaults to the current executable — correct for `pba-run`).
    pub fn with_worker_exe(mut self, exe: PathBuf) -> Self {
        self.worker_exe = Some(exe);
        self
    }

    fn bins(&self) -> u32 {
        match &self.mode {
            ModeCfg::Engine { spec, .. } => spec.bins(),
            ModeCfg::Stream { bins, .. } => *bins,
        }
    }

    fn exe(&self) -> Result<PathBuf> {
        match &self.worker_exe {
            Some(p) => Ok(p.clone()),
            None => std::env::current_exe().map_err(|e| CoreError::ClusterTransport {
                shard: 0,
                detail: format!("cannot locate worker executable: {e}"),
            }),
        }
    }

    /// Run with every shard as a thread in this process (in-memory
    /// pipes, identical wire protocol). The default for tests and the
    /// baseline the process transport is verified against.
    pub fn run_local(self) -> Result<ClusterOutcome> {
        let links = (0..self.shards).map(ShardLink::local).collect();
        self.run(links)
    }

    /// Run with every shard as a real child process (`pba-run
    /// shard-worker` over stdin/stdout pipes).
    pub fn run_process(self) -> Result<ClusterOutcome> {
        let exe = self.exe()?;
        let links = (0..self.shards)
            .map(|s| ShardLink::process(s, &exe))
            .collect::<Result<Vec<_>>>()?;
        self.run(links)
    }

    /// Run with every shard as a managed child listening on its own
    /// Unix-domain socket (`pba-run shard-worker --listen PATH`): same
    /// protocol as [`ClusterConfig::run_process`], real sockets instead
    /// of stdio pipes.
    pub fn run_socket(self) -> Result<ClusterOutcome> {
        let exe = self.exe()?;
        let links = (0..self.shards)
            .map(|s| ShardLink::socket(s, &exe))
            .collect::<Result<Vec<_>>>()?;
        self.run(links)
    }

    /// Run against already-listening workers, one address (TCP
    /// `host:port` or Unix-socket path) per shard, in shard order. The
    /// workers are *not* managed: they must have been started with
    /// `pba-run shard-worker --listen ADDR` beforehand, and each serves
    /// exactly one run.
    pub fn run_connect(self, addrs: &[String]) -> Result<ClusterOutcome> {
        if addrs.len() != self.shards as usize {
            return Err(CoreError::InvalidSpec {
                reason: format!(
                    "need one worker address per shard ({} addresses for {} shards)",
                    addrs.len(),
                    self.shards
                ),
            });
        }
        let links = addrs
            .iter()
            .enumerate()
            .map(|(s, addr)| ShardLink::socket_connect(s as u32, addr))
            .collect::<Result<Vec<_>>>()?;
        self.run(links)
    }

    fn run(self, links: Vec<ShardLink>) -> Result<ClusterOutcome> {
        let n = self.bins();
        assert!(
            self.shards >= 1 && self.shards <= n,
            "shards must be in 1..=bins"
        );
        match &self.mode {
            ModeCfg::Engine { protocol, spec } => {
                let (protocol, spec) = (protocol.clone(), *spec);
                self.run_engine(&protocol, spec, links)
            }
            ModeCfg::Stream {
                policy,
                bins,
                workload,
                batches,
            } => {
                let (policy, bins, workload, batches) = (*policy, *bins, *workload, *batches);
                self.run_stream(policy, bins, workload, batches, links)
            }
        }
    }

    /// The hello frame for shard `s`.
    fn hello(&self, s: u32, mode: &str, workload: &str, n: u32, m: u64) -> Frame<'static> {
        let (straggle_prob, straggle_us) = match self.faults.as_ref().and_then(|p| p.stragglers) {
            Some(sp) => (sp.prob, 500),
            None => (0.0, 0),
        };
        Frame::Hello(Hello {
            mode: mode.to_owned(),
            shard: s,
            shards: self.shards,
            lo: shard_lo(s, n, self.shards),
            hi: shard_lo(s + 1, n, self.shards),
            n,
            m,
            seed: self.seed,
            workload: workload.to_owned(),
            straggle_prob,
            straggle_us,
            fault_seed: self.faults.map_or(0, |p| p.seed),
        })
    }

    /// Hello wave: greet every shard, await every `ready` (a barrier).
    fn handshake(
        &self,
        links: &mut [ShardLink],
        mode: &str,
        workload: &str,
        n: u32,
        m: u64,
    ) -> Result<()> {
        for link in links.iter_mut() {
            let s = link.shard();
            link.send(&self.hello(s, mode, workload, n, m))?;
        }
        for link in links.iter_mut() {
            let s = link.shard();
            match link.recv()? {
                Frame::Ready { shard } if shard == s => {}
                other => {
                    return Err(CoreError::ClusterTransport {
                        shard: s,
                        detail: format!("expected ready, got {}", other.tag()),
                    });
                }
            }
        }
        Ok(())
    }

    /// Teardown: drain verification against `expect` (each live shard's
    /// loads are compared as they are walked off its reply), clean
    /// shutdown of live shards, and one `cluster` metrics event per
    /// shard.
    fn teardown(
        &self,
        mut links: Vec<ShardLink>,
        expect: &[u64],
        mode: &'static str,
        workload: &'static str,
        barriers: u64,
        started: Instant,
    ) -> Result<Vec<ClusterShardRecord>> {
        let n = self.bins();
        for link in links.iter_mut().filter(|l| l.is_alive()) {
            link.send(&Frame::Drain)?;
            let s = link.shard();
            let (lo, hi) = (
                shard_lo(s, n, self.shards) as usize,
                shard_lo(s + 1, n, self.shards) as usize,
            );
            match link.recv()? {
                Frame::Loads { loads } => {
                    if !loads.iter().eq(expect[lo..hi].iter().copied()) {
                        return Err(CoreError::ClusterTransport {
                            shard: s,
                            detail: format!(
                                "drain mismatch: shard loads diverged from orchestrator \
                                 over bins [{lo}, {hi})"
                            ),
                        });
                    }
                }
                other => {
                    return Err(CoreError::ClusterTransport {
                        shard: s,
                        detail: format!("expected loads, got {}", other.tag()),
                    });
                }
            }
        }
        let wall_nanos = started.elapsed().as_nanos() as u64;
        let mut records = Vec::with_capacity(links.len());
        for link in links.iter_mut() {
            link.finish()?;
            let s = link.shard();
            records.push(ClusterShardRecord {
                shard: s,
                lo: shard_lo(s, n, self.shards),
                hi: shard_lo(s + 1, n, self.shards),
                frames_sent: link.frames_sent,
                frames_recv: link.frames_recv,
                bytes_sent: link.bytes_sent,
                bytes_recv: link.bytes_recv,
                barriers,
                wall_nanos,
                killed: link.killed,
            });
        }
        if let Some(sink) = &self.metrics {
            let meta = ClusterMeta {
                bins: n,
                seed: self.seed,
                shards: self.shards,
                mode,
                workload,
            };
            for rec in &records {
                sink.on_cluster(&meta, rec);
            }
        }
        Ok(records)
    }

    fn run_engine(
        self,
        protocol: &str,
        spec: ProblemSpec,
        mut links: Vec<ShardLink>,
    ) -> Result<ClusterOutcome> {
        let started = Instant::now();
        let n = spec.bins();
        self.handshake(&mut links, "engine", protocol, n, spec.balls())?;
        let mut config = RunConfig::seeded(self.seed).with_validation(self.validate);
        if let Some(sink) = &self.metrics {
            config = config.with_metrics(sink.clone());
        }
        if let Some(plan) = self.faults {
            config = config.with_faults(plan);
        }
        let sim = Simulator::new(spec, config);
        let delegate = EngineDelegate {
            links,
            n,
            shards: self.shards,
            shadow: vec![0u32; n as usize],
            changed: PairBuf::new(),
            barriers: 1, // the hello wave
            pending_commit: None,
        };
        let visitor = ClusterRunVisitor { sim, delegate };
        let Some((run, mut delegate)) = visit_protocol(protocol, spec, visitor) else {
            return Err(CoreError::InvalidSpec {
                reason: format!("unknown protocol '{protocol}'"),
            });
        };
        let run = run?;
        // The last round's commit acks are still deferred; settle them
        // before the drain wave reuses the links.
        delegate.collect_pending_commit()?;
        let loads: Vec<u64> = run.loads.iter().map(|&l| u64::from(l)).collect();
        let shard_records = self.teardown(
            delegate.links,
            &loads,
            "engine",
            run.protocol,
            delegate.barriers + 1, // + the drain wave
            started,
        )?;
        Ok(ClusterOutcome {
            mode: "engine",
            workload: run.protocol,
            loads,
            run: Some(run),
            batches: 0,
            shard_records,
        })
    }

    fn run_stream(
        self,
        policy: PolicyKind,
        bins: u32,
        workload_cfg: WorkloadCfg,
        batches: u64,
        mut links: Vec<ShardLink>,
    ) -> Result<ClusterOutcome> {
        let started = Instant::now();
        self.handshake(&mut links, "stream", policy.name(), bins, 0)?;
        // A kill maps fault domains onto shards 1:1; default a kill-only
        // plan when none was armed.
        let mut plan = self.faults;
        if let Some((shard, batch)) = self.kill {
            let base = plan.unwrap_or_else(|| FaultPlan::new(self.seed));
            let base = if base.domains == 0 {
                base.with_shard_failures(self.shards, 0.0)
            } else {
                base
            };
            if base.domains != self.shards {
                return Err(CoreError::InvalidSpec {
                    reason: format!(
                        "--kill needs fault domains == shards ({} != {})",
                        base.domains, self.shards
                    ),
                });
            }
            if shard >= self.shards {
                return Err(CoreError::InvalidSpec {
                    reason: format!("--kill shard {shard} out of range 0..{}", self.shards),
                });
            }
            plan = Some(base.with_dead_domain(shard, batch));
        }
        // The authoritative mirror: placements are decided here, by the
        // exact in-process allocator a `--shards 1` run uses.
        let mut mirror = StreamAllocator::new(bins, self.seed, policy);
        if let Some(p) = plan {
            mirror = mirror.with_faults(p);
        }
        if let Some(sink) = &self.metrics {
            mirror = mirror.with_metrics(sink.clone());
        }
        let mut workload = Workload::new(workload_cfg, self.seed);
        let mut shadow = vec![0u64; bins as usize];
        // Each shard's changed loads, reused batch after batch.
        let mut deltas: Vec<PairBuf> = (0..links.len()).map(|_| PairBuf::new()).collect();
        // The hello wave is the first barrier.
        let mut barriers = 1u64;
        // Per-shard delta ack still owed from the previous batch: each
        // batch's acks are collected one batch late.
        let mut pending: Vec<Option<PendingDelta>> = (0..links.len()).map(|_| None).collect();
        for t in 0..batches {
            if let Some((shard, batch)) = self.kill {
                if t == batch {
                    // A real kill: the pipe dies under the worker, so any
                    // ack still in flight is unrecoverable — drop it
                    // rather than verify against a severed pipe.
                    links[shard as usize].kill();
                    pending[shard as usize] = None;
                }
            }
            let batch = workload.next_batch();
            mirror.ingest(&batch);
            // Route changed bins to their shards, and total and max each
            // shard's loads for its ack, in one pass over the loads.
            let state = mirror.bin_state();
            let mut wants = Vec::with_capacity(links.len());
            for (s, delta) in (0..self.shards).zip(deltas.iter_mut()) {
                delta.clear();
                let (mut total, mut max) = (0u64, 0u64);
                for b in shard_lo(s, bins, self.shards)..shard_lo(s + 1, bins, self.shards) {
                    let load = state.load(b);
                    total += load;
                    max = max.max(load);
                    let old = &mut shadow[b as usize];
                    if load != *old {
                        delta.push(b, load);
                        *old = load;
                    }
                }
                wants.push((total, max));
            }
            // Settle the previous batch's acks only now — the workers
            // chewed on batch t-1 while the mirror ingested and routed
            // batch t above.
            collect_delta_acks(&mut links, &mut pending)?;
            // Delta wave out. A just-killed shard is discovered here:
            // the send fails on the dead pipe and the shard is marked
            // dead; placements already route around its bins via the
            // dead-domain redirect, so its (empty) delta is dropped.
            for (s, link) in links.iter_mut().enumerate() {
                if !link.is_alive() {
                    continue;
                }
                let s32 = s as u32;
                let expect_dead = self.kill.is_some_and(|(ks, kb)| s32 == ks && t >= kb);
                let frame = Frame::Delta {
                    batch: t,
                    loads: deltas[s].list(),
                };
                match link.send(&frame) {
                    Ok(()) => {
                        let (want_total, want_max) = wants[s];
                        pending[s] = Some(PendingDelta {
                            batch: t,
                            want_total,
                            want_max,
                            expect_dead,
                        });
                    }
                    Err(e) if expect_dead => {
                        // The scheduled kill, observed as a dead pipe.
                        let _ = e;
                        pending[s] = None;
                    }
                    Err(e) => return Err(e),
                }
            }
            barriers += 1;
        }
        // The final batch's acks are still outstanding.
        collect_delta_acks(&mut links, &mut pending)?;
        let loads = mirror.bin_state().load_vector();
        let shard_records = self.teardown(
            links,
            &loads,
            "stream",
            policy.name(),
            barriers + 1, // + the drain wave
            started,
        )?;
        Ok(ClusterOutcome {
            mode: "stream",
            workload: policy.name(),
            loads,
            run: None,
            batches,
            shard_records,
        })
    }
}

/// A delta ack owed by a shard for an already-sent batch.
struct PendingDelta {
    batch: u64,
    want_total: u64,
    want_max: u64,
    /// The shard is scheduled to die this batch or earlier — a failed
    /// ack is the expected chaos outcome, not an error.
    expect_dead: bool,
}

/// Collect every outstanding delta ack, verifying each shard's reported
/// (total, max) against the expectations recorded at send time.
fn collect_delta_acks(links: &mut [ShardLink], pending: &mut [Option<PendingDelta>]) -> Result<()> {
    for (s, link) in links.iter_mut().enumerate() {
        let Some(p) = pending[s].take() else { continue };
        match link.recv() {
            Ok(Frame::DeltaOk { batch, total, max }) => {
                if batch != p.batch || total != p.want_total || max != p.want_max {
                    return Err(CoreError::ClusterTransport {
                        shard: s as u32,
                        detail: format!(
                            "batch {} verification failed: shard reported \
                             total {total}/max {max}, orchestrator has {}/{}",
                            p.batch, p.want_total, p.want_max
                        ),
                    });
                }
            }
            Ok(other) => {
                return Err(CoreError::ClusterTransport {
                    shard: s as u32,
                    detail: format!("expected delta_ok, got {}", other.tag()),
                });
            }
            Err(e) if p.expect_dead => {
                // The scheduled kill, observed as a dead pipe.
                let _ = e;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Adapts the cluster's shard links to the engine's [`GrantDelegate`]
/// seam: request/reply/commit waves with a barrier per wave.
struct EngineDelegate {
    links: Vec<ShardLink>,
    n: u32,
    shards: u32,
    /// Loads as last shipped to the workers; commit diffs against it.
    shadow: Vec<u32>,
    /// One shard's changed loads, reused shard after shard and round
    /// after round.
    changed: PairBuf,
    barriers: u64,
    /// Outstanding commit wave: `(round, expected per-shard load sums)`,
    /// collected while the next round's grants are already on the wire.
    pending_commit: Option<(u32, Vec<u64>)>,
}

impl EngineDelegate {
    /// Collect commit acks for `round`, verifying each shard's load-sum
    /// checksum against the orchestrator's own slice sums.
    fn collect_commit_acks(&mut self, round: u32, wants: &[u64]) -> Result<()> {
        for link in self.links.iter_mut() {
            let s = link.shard();
            match link.recv()? {
                Frame::CommitOk { round: r, sum } if r == round => {
                    let want = wants[s as usize];
                    if sum != want {
                        return Err(CoreError::ClusterTransport {
                            shard: s,
                            detail: format!(
                                "round {round} checksum mismatch: shard sums {sum}, \
                                 orchestrator {want}"
                            ),
                        });
                    }
                }
                other => {
                    return Err(CoreError::ClusterTransport {
                        shard: s,
                        detail: format!(
                            "expected commit_ok for round {round}, got {}",
                            other.tag()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Settle the deferred commit wave, if one is outstanding.
    fn collect_pending_commit(&mut self) -> Result<()> {
        match self.pending_commit.take() {
            Some((round, wants)) => self.collect_commit_acks(round, &wants),
            None => Ok(()),
        }
    }
}

impl GrantDelegate for EngineDelegate {
    fn round_grants(
        &mut self,
        ctx: &RoundContext,
        counts: &[u32],
        crashed: &[u32],
        accept: &mut [u32],
    ) -> Result<(u32, u64)> {
        let mut per_crashed: Vec<Vec<u32>> = vec![Vec::new(); self.links.len()];
        for &b in crashed {
            per_crashed[shard_of(b, self.n, self.shards) as usize].push(b);
        }
        // Request wave out: each shard's nonzero arrival counts, written
        // straight from the dense counts of its contiguous bin range (so
        // ascending).
        for link in self.links.iter_mut() {
            let s = link.shard();
            let (lo, hi) = (
                shard_lo(s, self.n, self.shards),
                shard_lo(s + 1, self.n, self.shards),
            );
            link.send(&Frame::Grants {
                round: ctx.round,
                active: ctx.active,
                placed: ctx.placed,
                counts: PairList::nonzero(lo, &counts[lo as usize..hi as usize]),
                crashed: std::mem::take(&mut per_crashed[s as usize]),
            })?;
        }
        // Settle the previous round's deferred commit acks only now —
        // this round's requests were routed and serialized while the
        // workers were still applying that commit.
        self.collect_pending_commit()?;
        // …replies back, merged in shard order (the barrier).
        let mut underloaded = 0u32;
        let mut unfilled = 0u64;
        for link in self.links.iter_mut() {
            let s = link.shard();
            match link.recv()? {
                Frame::GrantsOk {
                    round,
                    accept: pairs,
                    underloaded: ub,
                    unfilled: uw,
                } if round == ctx.round => {
                    // A shard may grant only its own bins, and no more
                    // than the arrivals it was sent: the engine counts
                    // `accept` as accepted requests.
                    let (lo, hi) = (
                        shard_lo(s, self.n, self.shards),
                        shard_lo(s + 1, self.n, self.shards),
                    );
                    for (bin, a) in pairs.iter() {
                        if !(lo..hi).contains(&bin) {
                            return Err(CoreError::ClusterTransport {
                                shard: s,
                                detail: format!(
                                    "grant for bin {bin} outside the shard's bins [{lo}, {hi})"
                                ),
                            });
                        }
                        let arrivals = counts[bin as usize];
                        if a > u64::from(arrivals) {
                            return Err(CoreError::ClusterTransport {
                                shard: s,
                                detail: format!(
                                    "grant of {a} for bin {bin} exceeds its {arrivals} arrivals"
                                ),
                            });
                        }
                        accept[bin as usize] = a as u32;
                    }
                    underloaded += ub;
                    unfilled += uw;
                }
                other => {
                    return Err(CoreError::ClusterTransport {
                        shard: s,
                        detail: format!(
                            "expected grants_ok for round {}, got {}",
                            ctx.round,
                            other.tag()
                        ),
                    });
                }
            }
        }
        self.barriers += 1;
        Ok((underloaded, unfilled))
    }

    fn round_commit(
        &mut self,
        ctx: &RoundContext,
        record: &RoundRecord,
        loads: &[u32],
    ) -> Result<()> {
        // Ship each shard only its bins that changed since the last
        // commit, and sum its loads for the ack, in one pass over them.
        let mut wants = Vec::with_capacity(self.links.len());
        for link in self.links.iter_mut() {
            let s = link.shard();
            let (lo, hi) = (
                shard_lo(s, self.n, self.shards),
                shard_lo(s + 1, self.n, self.shards),
            );
            let range = lo as usize..hi as usize;
            self.changed.clear();
            let mut sum = 0u64;
            for (b, (&new, old)) in
                (lo..hi).zip(loads[range.clone()].iter().zip(&mut self.shadow[range]))
            {
                sum += u64::from(new);
                if new != *old {
                    self.changed.push(b, u64::from(new));
                    *old = new;
                }
            }
            wants.push(sum);
            link.send(&Frame::Commit {
                round: ctx.round,
                loads: self.changed.list(),
                record: *record,
            })?;
        }
        // Defer the ack barrier one wave: the workers apply this commit
        // while the engine resolves the next round.
        self.pending_commit = Some((ctx.round, wants));
        self.barriers += 1;
        Ok(())
    }
}

/// Runs the registry-constructed protocol through the simulator with the
/// cluster delegate attached, handing the delegate (and its links) back.
struct ClusterRunVisitor {
    sim: Simulator,
    delegate: EngineDelegate,
}

impl ProtocolVisitor for ClusterRunVisitor {
    type Output = (Result<RunOutcome>, EngineDelegate);

    fn visit<P: RoundProtocol + 'static>(mut self, mut protocol: P) -> Self::Output {
        let run = self
            .sim
            .run_mut_with_delegate(&mut protocol, Some(&mut self.delegate));
        (run, self.delegate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::thread::JoinHandle;

    use crate::transport::{mem_pipe, PipeReader, PipeWriter, Transport};

    /// The orchestrator's halves of a pair of in-memory pipes to a
    /// scripted worker thread.
    struct Scripted {
        writer: Option<PipeWriter>,
        reader: Option<PipeReader>,
    }

    impl Transport for Scripted {
        fn kind(&self) -> &'static str {
            "scripted"
        }
        fn take_writer(&mut self) -> Box<dyn Write + Send> {
            Box::new(self.writer.take().expect("writer taken once"))
        }
        fn take_reader(&mut self) -> Box<dyn BufRead + Send> {
            Box::new(BufReader::new(
                self.reader.take().expect("reader taken once"),
            ))
        }
        fn kill(&mut self) {}
        fn reap(&mut self, _killed: bool) -> std::result::Result<(), String> {
            Ok(())
        }
    }

    /// A link to a worker thread that answers one `grants` request with
    /// `reply` as its accept pairs and returns the request's arrival
    /// pairs.
    fn scripted_link(
        shard: u32,
        reply: Vec<(u32, u64)>,
    ) -> (ShardLink, JoinHandle<Vec<(u32, u64)>>) {
        let (orch_w, worker_r) = mem_pipe();
        let (mut worker_w, orch_r) = mem_pipe();
        let worker = std::thread::spawn(move || {
            let mut reader = BufReader::new(worker_r);
            let mut buf = Vec::new();
            let Ok(Some((Frame::Grants { round, counts, .. }, _))) =
                crate::wire::read_frame(&mut reader, &mut buf)
            else {
                panic!("shard {shard}: expected a grants request");
            };
            let reply: PairBuf = reply.into_iter().collect();
            let reply = Frame::GrantsOk {
                round,
                accept: reply.list(),
                underloaded: 0,
                unfilled: 0,
            };
            worker_w.write_all(&reply.encode()).unwrap();
            counts.iter().collect()
        });
        let transport = Scripted {
            writer: Some(orch_w),
            reader: Some(orch_r),
        };
        (ShardLink::new(shard, Box::new(transport)), worker)
    }

    #[test]
    fn grant_replies_are_checked_against_range_and_arrivals() {
        // Two shards over 16 bins: shard 0 owns [0, 8), shard 1 [8, 16).
        const N: u32 = 16;
        // Bins `lo + 1` and `lo + 3` of each shard hold 0 and 2 arrivals.
        let counts: Vec<u32> = vec![3, 0, 1, 2, 0, 0, 5, 1, 4, 0, 1, 2, 0, 7, 0, 2];
        let ctx = RoundContext {
            spec: ProblemSpec::new(64, N).unwrap(),
            round: 0,
            active: 64,
            placed: 0,
            seed: 1,
        };
        // An honest shard grants at most two of each bin's arrivals.
        let honest = |s: u32| -> Vec<(u32, u64)> {
            (shard_lo(s, N, 2)..shard_lo(s + 1, N, 2))
                .filter(|&b| counts[b as usize] > 0)
                .map(|b| (b, u64::from(counts[b as usize].min(2))))
                .collect()
        };
        let grants = |replies: [Vec<(u32, u64)>; 2]| {
            let (links, workers): (Vec<_>, Vec<_>) = replies
                .into_iter()
                .enumerate()
                .map(|(s, reply)| scripted_link(s as u32, reply))
                .unzip();
            let mut delegate = EngineDelegate {
                links,
                n: N,
                shards: 2,
                shadow: vec![0; N as usize],
                changed: PairBuf::new(),
                barriers: 0,
                pending_commit: None,
            };
            let mut accept = vec![0u32; N as usize];
            let out = delegate.round_grants(&ctx, &counts, &[], &mut accept);
            let seen: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            (out.map(|_| accept), seen)
        };

        // Honest replies land in `accept`, and each shard was sent its
        // own nonzero counts in ascending bin order.
        let (accept, seen) = grants([honest(0), honest(1)]);
        let want: Vec<u32> = counts.iter().map(|&c| c.min(2)).collect();
        assert_eq!(accept.unwrap(), want);
        for (s, pairs) in seen.iter().enumerate() {
            let want: Vec<(u32, u64)> = (shard_lo(s as u32, N, 2)..shard_lo(s as u32 + 1, N, 2))
                .filter(|&b| counts[b as usize] > 0)
                .map(|b| (b, u64::from(counts[b as usize])))
                .collect();
            assert_eq!(pairs, &want, "shard {s} request");
        }

        for bad_shard in [0u32, 1] {
            let own = shard_lo(bad_shard, N, 2);
            let other = shard_lo(1 - bad_shard, N, 2);
            for (what, pair, needle) in [
                ("another shard's bin", (other, 1), "outside the shard"),
                ("a bin past n", (N, 1), "outside the shard"),
                ("a bin with no arrivals", (own + 1, 1), "its 0 arrivals"),
                ("more than arrived", (own + 3, 3), "its 2 arrivals"),
                ("a grant past u32", (own, u64::MAX), "exceeds"),
            ] {
                let mut replies = [honest(0), honest(1)];
                replies[bad_shard as usize].push(pair);
                match grants(replies).0 {
                    Err(CoreError::ClusterTransport { shard, detail }) => {
                        assert_eq!(shard, bad_shard, "{what}: {detail}");
                        assert!(detail.contains(needle), "{what}: {detail}");
                    }
                    other => panic!("{what} from shard {bad_shard} accepted: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn partition_covers_and_matches_domain_striping() {
        for &(n, s) in &[(10u32, 4u32), (64, 1), (64, 2), (7, 7), (100, 3), (64, 64)] {
            assert_eq!(shard_lo(0, n, s), 0);
            assert_eq!(shard_lo(s, n, s), n);
            let plan = FaultPlan::new(0).with_shard_failures(s.min(64), 0.1);
            for b in 0..n {
                let owner = shard_of(b, n, s);
                assert!(shard_lo(owner, n, s) <= b && b < shard_lo(owner + 1, n, s));
                if s <= 64 {
                    assert_eq!(owner, plan.domain_of(b, n), "bin {b} of {n} over {s}");
                }
            }
        }
    }

    #[test]
    fn engine_cluster_matches_single_process_run() {
        let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
        let single = Simulator::new(spec, RunConfig::seeded(11))
            .run_mut_with_delegate(
                &mut pba_protocols::Collision::with_params(
                    spec,
                    2,
                    2 * spec.ceil_avg().saturating_add(2).min(u32::MAX / 2),
                ),
                None,
            )
            .unwrap();
        for shards in [1u32, 3] {
            let out = ClusterConfig::engine("collision", spec, 11)
                .with_shards(shards)
                .run_local()
                .unwrap();
            let run = out.run.expect("engine outcome");
            assert_eq!(run.loads, single.loads, "{shards} shards");
            assert_eq!(run.rounds, single.rounds);
            assert_eq!(run.messages, single.messages);
        }
    }

    #[test]
    fn stream_cluster_matches_in_process_allocator() {
        let batches = 6u64;
        let mut reference = StreamAllocator::new(48, 9, PolicyKind::BatchedTwoChoice);
        let mut w = Workload::new(WorkloadCfg::uniform(96), 9);
        for _ in 0..batches {
            reference.ingest(&w.next_batch());
        }
        let out = ClusterConfig::stream(PolicyKind::BatchedTwoChoice, 48, 9, batches, 96)
            .with_shards(4)
            .run_local()
            .unwrap();
        assert_eq!(out.loads, reference.bin_state().load_vector());
        assert_eq!(out.batches, batches);
    }
}
