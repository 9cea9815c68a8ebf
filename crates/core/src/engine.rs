//! Round execution: gather requests, count arrivals, grant, resolve,
//! commit.
//!
//! One backend-parameterized `SimState::round` drives every round
//! through the unified kernels in [`crate::exec`]:
//!
//! * The active set is split into deterministic chunks
//!   ([`Backend::chunking`]); the serial backend is the one-chunk instance
//!   of the identical code, so sequential and parallel execution are
//!   **bit-identical by construction**. Acceptance is resolved by *global
//!   arrival rank* (an exclusive scan over per-chunk per-bin counts, in
//!   chunk order, gives each chunk a rank base): a request is accepted iff
//!   its rank is below the bin's grant — exactly the canonical-request-order
//!   first-`grant`-arrivals rule, a legitimate instance of the papers'
//!   "bins accept an arbitrary subset".
//! * Per-ball RNG streams are counter-based, so any lane regenerates the
//!   same choices; fault decisions are counter streams too (see
//!   [`crate::faults`]), which is what lets the chunked kernel reproduce
//!   the faulty path bit-for-bit at any lane count.
//! * The bin side splits the bins into owner ranges of whole 64-bin words,
//!   as independent agents that see only their own arrivals. Each owner
//!   scans its range (every chunk's counts, in chunk order, into rank
//!   bases and totals), then runs [`grant_slice`] over it and, while the
//!   range is still in cache, `ledger_slice` over the range's hot bins:
//!   the round's granted sum and the per-bin message ledger. The ranges'
//!   underload counters and granted sums are summed — the arithmetic the
//!   cluster orchestrator applies to its shards' replies. Delegated
//!   grants get the same ledger pass, once per owner range, after the
//!   delegate returns.
//! * Per-round passes write a fresh page before they read it: the scan
//!   stores a bin's first count instead of adding it to a zero total, and
//!   the first round stores the ledger instead of adding to it. A read of
//!   a never-written page maps the shared zero page and then faults again
//!   on the write.
//!
//! `SimState` owns the per-chunk `LaneScratch` arenas and all workhorse
//! buffers, reused across rounds: after the first (warm-up) round, a
//! steady-state round performs **zero heap allocations** on either
//! backend — enforced by `tests/alloc_steady_state.rs`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pba_par::{as_atomic_u32, as_atomic_u64, Chunking, DisjointClaims, DisjointIndexMut};

use crate::delegate::GrantDelegate;
use crate::error::{CoreError, Result};
use crate::exec::{
    bin_owners, gather_chunk, grant_slice, ledger_slice, resolve_chunk, scan_words, word_bins,
    Backend, ChunkPlan, Faulty, GatherShared, LaneScratch, NoFaults, ResolveShared,
};
use crate::faults::{FaultPlan, FaultRecord, FaultSession, FaultStats};
use crate::messages::{MessageLedger, MessageStats, MessageTracking};
use crate::metrics::{MetricsSink, Phase, RoundTimer, RunMeta};
use crate::model::ProblemSpec;
use crate::protocol::{RoundContext, RoundProtocol};
use crate::rng::RoundStreams;
use crate::trace::RoundRecord;
use crate::validate::ValidatorState;

/// A per-run observer handed into the round executor: the metrics sink
/// plus the run identity it reports under. `None` is the zero-cost
/// disabled path — the executor then constructs no [`RoundTimer`] and
/// performs no clock reads.
pub(crate) type Observer<'a> = Option<(&'a dyn MetricsSink, &'a RunMeta)>;

/// Run-level crashed bins: empty without a fault session.
fn crashed_bins(faults: &Option<FaultSession>) -> &[u32] {
    faults.as_ref().map_or(&[], FaultSession::crashed_bins)
}

/// Mutable simulation state: loads, active set, per-ball protocol state,
/// message ledger, and reusable scratch arenas.
///
/// Heap per ball: the active list and its swap buffer (8 bytes), the
/// protocol's `BallState` (4 bytes for fixed choices), and the arenas'
/// requests and degrees (4 bytes per request plus 4). Per bin: loads,
/// totals and grants (12 bytes), the ledger (8 bytes, when tracked), and
/// 4 bytes of counts per arena.
pub(crate) struct SimState<P: RoundProtocol> {
    pub spec: ProblemSpec,
    pub seed: u64,
    pub loads: Vec<u32>,
    pub active: Vec<u32>,
    pub ball_state: Vec<P::BallState>,
    pub assignment: Option<Vec<u32>>,
    pub ledger: MessageLedger,
    pub placed: u64,
    /// Fault-injection state; `None` is the zero-overhead path (every
    /// fault branch below is gated on this option, and the fault code
    /// reads no clocks — decisions come from counter streams only).
    faults: Option<FaultSession>,
    /// Chunk geometry of every round (`RunConfig::with_chunk_plan`).
    plan: ChunkPlan,
    /// Invariant checker (`RunConfig::with_validation`); `None` is the
    /// zero-cost path — no snapshots, no checks, like `faults`.
    validator: Option<ValidatorState>,
    // Scratch (reused across rounds; allocation-free after warm-up).
    /// One arena per chunk slot; grows to the backend's chunk count on the
    /// first round and is reused verbatim afterwards.
    scratch: Vec<LaneScratch>,
    /// Debug-build verifier of the one-chunk-per-ball-id invariant behind
    /// the `DisjointIndexMut` accesses (no-op in release builds).
    claims: DisjointClaims,
    next_active: Vec<u32>,
    /// Bitmap of the bins with nonzero `counts` (bit `b % 64` of word
    /// `b / 64`): the OR of the round's arena bitmaps. The next round's
    /// scan zeroes `counts` under it.
    hot: Vec<u64>,
    /// Per-bin arrival totals of the round.
    counts: Vec<u32>,
    /// Per-bin grants of the round, never above `counts`: the number of
    /// requests each bin accepted.
    accept: Vec<u32>,
    /// Load snapshot at round start, populated only for protocols with
    /// `NEEDS_COMMIT_CHOICE` (GREEDY-style height information).
    loads_before: Vec<u32>,
}

impl<P: RoundProtocol> SimState<P> {
    pub fn new(
        spec: ProblemSpec,
        seed: u64,
        tracking: MessageTracking,
        track_assignment: bool,
        faults: Option<FaultPlan>,
        plan: ChunkPlan,
        validate: bool,
    ) -> Self {
        let n = spec.bins() as usize;
        let m = spec.balls();
        Self {
            spec,
            seed,
            loads: vec![0; n],
            active: (0..m as u32).collect(),
            ball_state: vec![P::BallState::default(); m as usize],
            assignment: track_assignment.then(|| vec![u32::MAX; m as usize]),
            ledger: MessageLedger::new(tracking, spec.bins(), m),
            placed: 0,
            faults: faults.map(|plan| FaultSession::new(plan, m, spec.bins())),
            plan,
            validator: validate.then(|| ValidatorState::new(m)),
            scratch: Vec::new(),
            claims: DisjointClaims::new(m as usize),
            next_active: Vec::with_capacity(m as usize),
            hot: vec![0; n.div_ceil(64)],
            counts: vec![0; n],
            accept: vec![0; n],
            loads_before: Vec::new(),
        }
    }

    /// Injected-fault totals, `Some` iff the run is fault-injected.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultSession::stats)
    }

    /// Close the round on the fault session (fold tallies into totals) and
    /// return the round's fault record, if any fault fired.
    fn end_fault_round(&mut self, round: u32) -> Option<FaultRecord> {
        self.faults.as_mut().and_then(|s| s.end_round(round))
    }

    /// Snapshot loads for `pick_commit`'s `load_before` field.
    fn snapshot_loads(&mut self) {
        if P::NEEDS_COMMIT_CHOICE {
            self.loads_before.clear();
            self.loads_before.extend_from_slice(&self.loads);
        }
    }

    pub fn context(&self, round: u32) -> RoundContext {
        RoundContext {
            spec: self.spec,
            round,
            active: self.active.len() as u64,
            placed: self.placed,
            seed: self.seed,
        }
    }

    /// Execute one round on `backend`: gather, scan, grant plus ledger,
    /// resolve, then the serial merge.
    ///
    /// Rounds whose active set is below the configured `par_cutoff` (or
    /// whose pool has a single lane) run on the serial backend — which is
    /// the same kernel with exactly one chunk, so the fallback cannot
    /// change results. The bin side visits only the round's hot bins,
    /// except for the dense grant pass; the serial remainder is the
    /// merge of the chunks' survivor lists (`O(m')`) and the max over
    /// the loads.
    pub fn round(
        &mut self,
        protocol: &P,
        round: u32,
        backend: Backend<'_>,
        obs: Observer<'_>,
        mut delegate: Option<&mut (dyn GrantDelegate + '_)>,
    ) -> Result<RoundRecord> {
        let ctx = self.context(round);
        let mut timer = obs.map(|_| RoundTimer::start());
        if let Some(v) = self.validator.as_mut() {
            v.begin_round(
                &self.loads,
                self.assignment.as_deref(),
                self.placed,
                self.active.len() as u64,
            );
        }
        self.snapshot_loads();
        let plan = self.plan;
        let n = self.spec.bins() as usize;

        // Effective backend for this round: fall back to serial below the
        // fan-out cutoff.
        let eff = match backend {
            Backend::Pool(pool) if self.active.len() >= plan.par_cutoff && pool.lanes() > 1 => {
                Backend::Pool(pool)
            }
            _ => Backend::Serial,
        };
        let chunking = eff.chunking(self.active.len(), plan.min_chunk);
        let nchunks = chunking.chunks();
        while self.scratch.len() < nchunks {
            self.scratch.push(LaneScratch::new());
        }
        self.claims.begin();

        // --- Phase 1+2: gather chunk requests and count the chunk's
        // per-bin arrivals (parallel on a pool backend).
        {
            let shared = GatherShared {
                protocol,
                ctx: &ctx,
                streams: RoundStreams::new(self.seed, round),
                n_bins: self.spec.bins(),
                active: &self.active,
                states: DisjointIndexMut::new(&mut self.ball_state),
                claims: &self.claims,
            };
            let scratch = DisjointIndexMut::new(&mut self.scratch[..nchunks]);
            match self.faults.as_mut() {
                None => {
                    let admission = NoFaults;
                    eff.run(nchunks, |ci| {
                        // SAFETY: one task per chunk slot (indices are
                        // distinct by construction of `run`).
                        let arena = unsafe { scratch.index_mut(ci) };
                        gather_chunk(&shared, &admission, chunking.range(ci), arena);
                    });
                }
                Some(session) => {
                    session.begin_round(round);
                    let (fctx, ball_fault, tally) = session.split();
                    let admission = Faulty::new(fctx, ball_fault);
                    eff.run(nchunks, |ci| {
                        // SAFETY: one task per chunk slot.
                        let arena = unsafe { scratch.index_mut(ci) };
                        gather_chunk(&shared, &admission, chunking.range(ci), arena);
                    });
                    for arena in &self.scratch[..nchunks] {
                        tally.merge(&arena.faults);
                    }
                }
            }
        }

        let mut requests = 0u64;
        for arena in &self.scratch[..nchunks] {
            if let Some(bin) = arena.out_of_range {
                return Err(CoreError::BinOutOfRange {
                    bin,
                    n: n as u64,
                    round: ctx.round,
                });
            }
            requests += arena.bins.len() as u64;
        }
        if let Some(t) = timer.as_mut() {
            t.lap(Phase::Gather);
        }

        // --- Exclusive scan, one task per owner range of whole bitmap
        // words: each chunk's `counts` become its per-bin rank bases (the
        // arrivals to that bin in earlier chunks) and the totals land in
        // `self.counts`. The grant phase reuses the same partition.
        let owners = bin_owners(&eff, n, plan);
        {
            let arenas = &self.scratch[..nchunks];
            let totals = as_atomic_u32(&mut self.counts);
            let hot = as_atomic_u64(&mut self.hot);
            eff.run(owners.chunks(), |oi| {
                scan_words(arenas, owners.range(oi), totals, hot);
            });
        }
        if let Some(t) = timer.as_mut() {
            t.lap(Phase::CountScan);
        }

        // --- Phase 3: grants — local, or delegated to an external
        // authority (the cluster orchestrator's request/reply wave) — and
        // the ledger over the round's hot bins.
        let (underloaded_bins, unfilled_want, granted) = match delegate.as_deref_mut() {
            Some(d) => {
                // The delegate fills only the bins it grants; every other
                // bin (no arrivals, or crashed) must read 0.
                self.accept.fill(0);
                let crashed = crashed_bins(&self.faults);
                let (ub, uw) = d.round_grants(&ctx, &self.counts, crashed, &mut self.accept)?;
                (ub, uw, self.ledger_pass(&ctx, eff, owners))
            }
            None => self.grants(protocol, &ctx, eff, owners),
        };
        if let Some(t) = timer.as_mut() {
            t.lap(Phase::Grant);
        }

        // --- Phase 4: fused rank assignment + resolve + commit,
        // chunk-local (parallel on a pool backend).
        {
            let shared = ResolveShared {
                protocol,
                ctx: &ctx,
                active: &self.active,
                accept: &self.accept,
                loads_before: &self.loads_before,
                loads: as_atomic_u32(&mut self.loads),
                assignment: self
                    .assignment
                    .as_mut()
                    .map(|a| DisjointIndexMut::new(a.as_mut_slice())),
                sent: self
                    .ledger
                    .per_ball_sent
                    .as_mut()
                    .map(|s| DisjointIndexMut::new(s.as_mut_slice())),
            };
            let scratch = DisjointIndexMut::new(&mut self.scratch[..nchunks]);
            eff.run(nchunks, |ci| {
                // SAFETY: one task per chunk slot.
                let arena = unsafe { scratch.index_mut(ci) };
                resolve_chunk(&shared, arena);
            });
        }

        self.next_active.clear();
        let mut committed = 0u64;
        let mut wasted = 0u64;
        let mut commit_msgs = 0u64;
        for arena in &self.scratch[..nchunks] {
            self.next_active.extend_from_slice(&arena.still_active);
            committed += arena.committed;
            wasted += arena.wasted;
            commit_msgs += arena.commit_msgs;
        }

        let record = self.finish_round(
            &ctx,
            requests,
            granted,
            committed,
            wasted,
            commit_msgs,
            underloaded_bins,
            unfilled_want,
        );
        let fault_record = self.end_fault_round(round);
        if let Some(v) = self.validator.as_mut() {
            let crashed = crashed_bins(&self.faults);
            v.check_round(
                &record,
                P::MAY_REDIRECT,
                protocol.replicas(),
                &self.loads,
                self.assignment.as_deref(),
                &self.active,
                &self.accept,
                crashed,
                self.placed,
            )?;
        }
        if let Some(d) = delegate {
            // Commit wave: replicas apply the resolved loads and run the
            // same `after_round` evolution the simulator is about to.
            d.round_commit(&ctx, &record, &self.loads)?;
        }
        if let (Some((sink, meta)), Some(mut t)) = (obs, timer) {
            t.lap(Phase::ResolveCommit);
            if let Some(f) = fault_record.as_ref() {
                sink.on_fault(meta, f);
            }
            sink.on_round(meta, &record, &t.finish());
        }
        Ok(record)
    }

    /// Grant phase: [`grant_slice`] over each owner range of the round's
    /// bin partition (the scan's), one task per range on `backend`, each
    /// followed by [`ledger_slice`] over the range while it is still in
    /// cache. Returns the ranges' `(underloaded, unfilled, granted)`
    /// summed. The serial backend is one range over all bins.
    fn grants(
        &mut self,
        protocol: &P,
        ctx: &RoundContext,
        backend: Backend<'_>,
        owners: Chunking,
    ) -> (u32, u64, u64) {
        let n = self.counts.len();
        let crashed = crashed_bins(&self.faults);
        let (counts, loads, hot) = (&self.counts, &self.loads, &self.hot);
        let recv = self
            .ledger
            .per_bin_received
            .as_deref_mut()
            .map(as_atomic_u64);
        let accept = DisjointIndexMut::new(&mut self.accept);
        let underloaded = AtomicU32::new(0);
        let unfilled = AtomicU64::new(0);
        let granted = AtomicU64::new(0);
        backend.run(owners.chunks(), |oi| {
            let words = owners.range(oi);
            let r = word_bins(words.clone(), n);
            // SAFETY: the owner ranges partition the bins and `run` hands
            // each range index to exactly one task.
            let accept = unsafe { accept.slice_mut(r.clone()) };
            let (ub, uw) = grant_slice(
                protocol,
                ctx,
                r.start as u32,
                &counts[r.clone()],
                &loads[r.clone()],
                crashed,
                accept,
            );
            let g = ledger_slice(
                &hot[words],
                &counts[r.clone()],
                accept,
                recv.map(|v| &v[r]),
                ctx.round == 0,
            );
            underloaded.fetch_add(ub, Ordering::Relaxed);
            unfilled.fetch_add(uw, Ordering::Relaxed);
            granted.fetch_add(g, Ordering::Relaxed);
        });
        (
            underloaded.into_inner(),
            unfilled.into_inner(),
            granted.into_inner(),
        )
    }

    /// [`ledger_slice`] over each owner range, for grants a delegate
    /// decided: returns the round's granted requests.
    fn ledger_pass(&mut self, ctx: &RoundContext, backend: Backend<'_>, owners: Chunking) -> u64 {
        let n = self.counts.len();
        let (counts, accept, hot) = (&self.counts, &self.accept, &self.hot);
        let recv = self
            .ledger
            .per_bin_received
            .as_deref_mut()
            .map(as_atomic_u64);
        let granted = AtomicU64::new(0);
        backend.run(owners.chunks(), |oi| {
            let words = owners.range(oi);
            let r = word_bins(words.clone(), n);
            let g = ledger_slice(
                &hot[words],
                &counts[r.clone()],
                &accept[r.clone()],
                recv.map(|v| &v[r]),
                ctx.round == 0,
            );
            granted.fetch_add(g, Ordering::Relaxed);
        });
        granted.into_inner()
    }

    /// Shared bookkeeping after resolution: active-set swap, round
    /// record.
    #[allow(clippy::too_many_arguments)]
    fn finish_round(
        &mut self,
        ctx: &RoundContext,
        requests: u64,
        granted: u64,
        committed: u64,
        wasted: u64,
        commit_msgs: u64,
        underloaded_bins: u32,
        unfilled_want: u64,
    ) -> RoundRecord {
        self.placed += committed;
        std::mem::swap(&mut self.active, &mut self.next_active);
        let max_load = self.loads.iter().copied().max().unwrap_or(0);

        RoundRecord {
            round: ctx.round,
            active_before: ctx.active,
            requests,
            granted,
            committed,
            wasted_grants: wasted,
            underloaded_bins,
            unfilled_want,
            max_load,
            messages: MessageStats {
                requests,
                responses: requests,
                commits: commit_msgs,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{BallContext, BinGrant, ChoiceSink, Flow, NoBallState, RoundProtocol};
    use crate::rng::{Rand64, SplitMix64};
    use pba_par::ThreadPool;

    /// Degree-1 uniform choice, threshold = ceil(m/n) forever.
    struct Uniform1;

    impl RoundProtocol for Uniform1 {
        type BallState = NoBallState;
        fn name(&self) -> &'static str {
            "uniform1"
        }
        fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
            10_000
        }
        fn ball_choices(
            &self,
            ctx: &RoundContext,
            _ball: BallContext,
            _state: &mut NoBallState,
            rng: &mut SplitMix64,
            out: &mut ChoiceSink<'_>,
        ) {
            out.push(rng.below(ctx.spec.bins()));
        }
        fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
            BinGrant::up_to(ctx.spec.ceil_avg().saturating_sub(load))
        }
        fn after_round(&mut self, _ctx: &RoundContext, _r: &RoundRecord) -> Flow {
            Flow::Continue
        }
    }

    /// Degree-2 uniform choice with tight thresholds — exercises the
    /// multi-request commit path.
    struct Uniform2;

    impl RoundProtocol for Uniform2 {
        type BallState = NoBallState;
        fn name(&self) -> &'static str {
            "uniform2"
        }
        fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
            10_000
        }
        fn ball_choices(
            &self,
            ctx: &RoundContext,
            _ball: BallContext,
            _state: &mut NoBallState,
            rng: &mut SplitMix64,
            out: &mut ChoiceSink<'_>,
        ) {
            out.push(rng.below(ctx.spec.bins()));
            out.push(rng.below(ctx.spec.bins()));
        }
        fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
            BinGrant::up_to(ctx.spec.ceil_avg().saturating_sub(load))
        }
    }

    fn new_state<Q: RoundProtocol>(
        spec: ProblemSpec,
        seed: u64,
        tracking: MessageTracking,
        track_assignment: bool,
    ) -> SimState<Q> {
        // Engine unit tests always run with the invariant checker armed.
        SimState::new(
            spec,
            seed,
            tracking,
            track_assignment,
            None,
            ChunkPlan::default(),
            true,
        )
    }

    fn run_generic<Q: RoundProtocol + Default>(
        spec: ProblemSpec,
        seed: u64,
        parallel: bool,
    ) -> (Vec<u32>, u32) {
        let pool = ThreadPool::new(3);
        let mut state = new_state::<Q>(spec, seed, MessageTracking::PerBin, true);
        let mut protocol = Q::default();
        let mut round = 0;
        while !state.active.is_empty() {
            let ctx = state.context(round);
            protocol.begin_round(&ctx);
            let backend = if parallel {
                Backend::Pool(&pool)
            } else {
                Backend::Serial
            };
            let rec = state.round(&protocol, round, backend, None, None).unwrap();
            let _ = protocol.after_round(&ctx, &rec);
            round += 1;
            assert!(round < 10_000, "did not converge");
        }
        (state.loads.clone(), round)
    }

    impl Default for Uniform1 {
        fn default() -> Self {
            Uniform1
        }
    }
    impl Default for Uniform2 {
        fn default() -> Self {
            Uniform2
        }
    }

    fn run_to_completion(spec: ProblemSpec, seed: u64, parallel: bool) -> (Vec<u32>, u32) {
        run_generic::<Uniform1>(spec, seed, parallel)
    }

    #[test]
    fn sequential_places_every_ball() {
        let spec = ProblemSpec::new(1000, 16).unwrap();
        let (loads, _rounds) = run_to_completion(spec, 7, false);
        assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 1000);
        // threshold protocol: no bin exceeds ceil(m/n)
        assert!(loads.iter().all(|&l| l <= spec.ceil_avg()));
    }

    #[test]
    fn parallel_small_input_falls_back_and_places_every_ball() {
        let spec = ProblemSpec::new(1000, 16).unwrap();
        let (loads, _) = run_to_completion(spec, 7, true);
        assert_eq!(loads.iter().map(|&l| l as u64).sum::<u64>(), 1000);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit_degree_one() {
        let spec = ProblemSpec::new(300_000, 64).unwrap();
        let (seq_loads, seq_rounds) = run_to_completion(spec, 99, false);
        let (par_loads, par_rounds) = run_to_completion(spec, 99, true);
        assert_eq!(seq_loads, par_loads);
        assert_eq!(seq_rounds, par_rounds);
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit_degree_two() {
        let spec = ProblemSpec::new(300_000, 64).unwrap();
        let seq = run_generic::<Uniform2>(spec, 42, false);
        let par = run_generic::<Uniform2>(spec, 42, true);
        assert_eq!(seq, par);
    }

    #[test]
    fn determinism_across_identical_runs() {
        let spec = ProblemSpec::new(50_000, 128).unwrap();
        let a = run_to_completion(spec, 5, false);
        let b = run_to_completion(spec, 5, false);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ProblemSpec::new(50_000, 128).unwrap();
        let a = run_to_completion(spec, 5, false);
        let b = run_to_completion(spec, 6, false);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn custom_chunking_still_matches_defaults_bit_for_bit() {
        // Tiny chunks + a tiny cutoff force genuine fan-out at a size the
        // default plan would run serially; results must not move.
        let spec = ProblemSpec::new(50_000, 64).unwrap();
        let pool = ThreadPool::new(3);
        let tuned = ChunkPlan::new(1024, 2048);
        let run = |plan: ChunkPlan, backend_pool: bool| {
            let mut state = SimState::<Uniform2>::new(
                spec,
                9,
                MessageTracking::Totals,
                false,
                None,
                plan,
                true,
            );
            let mut round = 0;
            while !state.active.is_empty() {
                let backend = if backend_pool {
                    Backend::Pool(&pool)
                } else {
                    Backend::Serial
                };
                state.round(&Uniform2, round, backend, None, None).unwrap();
                round += 1;
            }
            (state.loads.clone(), round)
        };
        let base = run(ChunkPlan::default(), false);
        assert_eq!(base, run(tuned, true), "tuned parallel diverged");
        assert_eq!(base, run(tuned, false), "tuned serial diverged");
    }

    /// Protocol that emits an out-of-range bin.
    struct BadBins;
    impl RoundProtocol for BadBins {
        type BallState = NoBallState;
        fn name(&self) -> &'static str {
            "bad"
        }
        fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
            10
        }
        fn ball_choices(
            &self,
            ctx: &RoundContext,
            _ball: BallContext,
            _state: &mut NoBallState,
            _rng: &mut SplitMix64,
            out: &mut ChoiceSink<'_>,
        ) {
            out.push(ctx.spec.bins() + 5);
        }
        fn bin_grant(
            &self,
            _ctx: &RoundContext,
            _bin: u32,
            _load: u32,
            _arrivals: u32,
        ) -> BinGrant {
            BinGrant::up_to(1)
        }
    }

    #[test]
    fn out_of_range_bin_is_an_error() {
        let spec = ProblemSpec::new(100, 8).unwrap();
        let mut state = new_state::<BadBins>(spec, 1, MessageTracking::Totals, false);
        let err = state
            .round(&BadBins, 0, Backend::Serial, None, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::BinOutOfRange { bin: 13, .. }));
    }

    #[test]
    fn out_of_range_bin_is_an_error_parallel() {
        let spec = ProblemSpec::new(100_000, 8).unwrap();
        let pool = ThreadPool::new(2);
        let mut state = new_state::<BadBins>(spec, 1, MessageTracking::Totals, false);
        let err = state
            .round(&BadBins, 0, Backend::Pool(&pool), None, None)
            .unwrap_err();
        assert!(matches!(err, CoreError::BinOutOfRange { bin: 13, .. }));
    }

    #[test]
    fn message_accounting_counts_requests_and_commits() {
        let spec = ProblemSpec::new(64, 8).unwrap();
        let mut state = new_state::<Uniform1>(spec, 3, MessageTracking::Full, false);
        let rec = state
            .round(&Uniform1, 0, Backend::Serial, None, None)
            .unwrap();
        // Every active ball sent exactly one request; every request got a
        // response.
        assert_eq!(rec.messages.requests, 64);
        assert_eq!(rec.messages.responses, 64);
        // Commit notifications = accepted requests = committed (degree 1).
        assert_eq!(rec.messages.commits, rec.committed);
        // Ledger: per-ball sent counts are request + commit for committed
        // balls, request only for rejected ones.
        let sent = state.ledger.per_ball_sent.as_ref().unwrap();
        let total_sent: u64 = sent.iter().map(|&s| s as u64).sum();
        assert_eq!(total_sent, rec.messages.requests + rec.messages.commits);
        // Per-bin received = arrivals + accepted.
        let recv = state.ledger.per_bin_received.as_ref().unwrap();
        let total_recv: u64 = recv.iter().sum();
        assert_eq!(total_recv, rec.messages.requests + rec.messages.commits);
    }

    #[test]
    fn parallel_message_accounting_matches_sequential() {
        let spec = ProblemSpec::new(200_000, 32).unwrap();
        let pool = ThreadPool::new(3);
        let mut seq = new_state::<Uniform1>(spec, 3, MessageTracking::Full, false);
        let mut par = new_state::<Uniform1>(spec, 3, MessageTracking::Full, false);
        let rec_seq = seq
            .round(&Uniform1, 0, Backend::Serial, None, None)
            .unwrap();
        let rec_par = par
            .round(&Uniform1, 0, Backend::Pool(&pool), None, None)
            .unwrap();
        assert_eq!(rec_seq, rec_par);
        assert_eq!(seq.ledger.per_ball_sent, par.ledger.per_ball_sent);
        assert_eq!(seq.ledger.per_bin_received, par.ledger.per_bin_received);
    }

    #[test]
    fn granted_equals_min_of_arrivals_and_capacity() {
        // 100 balls, 1 bin, capacity ceil(100/1)=100: all granted round 0.
        let spec = ProblemSpec::new(100, 1).unwrap();
        let mut state = new_state::<Uniform1>(spec, 3, MessageTracking::Totals, false);
        let rec = state
            .round(&Uniform1, 0, Backend::Serial, None, None)
            .unwrap();
        assert_eq!(rec.granted, 100);
        assert_eq!(rec.committed, 100);
        assert!(state.active.is_empty());
    }
}
