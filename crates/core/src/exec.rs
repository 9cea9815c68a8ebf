//! Unified execution layer: one round kernel, any backend.
//!
//! The engine's round shape — gather choices, count arrivals, grant,
//! resolve/commit — used to exist in four copies (sequential/parallel ×
//! faulty/pristine). This module collapses them to **one kernel per
//! phase**, parameterized along two orthogonal axes:
//!
//! * [`Backend`] — *where* chunks run: [`Backend::Serial`] executes every
//!   chunk inline on the calling thread; [`Backend::Pool`] distributes
//!   chunks over a [`ThreadPool`]. The sequential path is literally the
//!   one-chunk instance of the chunked kernel, which is why the two are
//!   bit-identical by construction rather than by parallel maintenance.
//! * `Admission` — *what* filters requests: `NoFaults` is a zero-sized
//!   passthrough whose branches constant-fold away, `Faulty` routes every
//!   ball through the fault session's admit/deliver filters.
//!
//! Ball-side phases split the active set. The bin-side phases split the
//! bins into owner ranges of whole 64-bin words (`bin_owners`), one
//! partition for all three: `scan_words` turns each chunk's arrival
//! counts into rank bases for the bins of its range, [`grant_slice`]
//! decides the range's grants — the same kernel, on the same kind of bin
//! range, that a cluster shard worker runs over the bins it owns — and
//! `ledger_slice` sums the range's grants and adds its hot bins' received
//! messages to the ledger.
//!
//! ```text
//!             ┌─────────────────────── one round ───────────────────────┐
//!   chunk 0 → │ gather+count │ scan │ grant+ledger │ resolve+commit │     │
//!   chunk 1 → │ gather+count │ scan │ grant+ledger │ resolve+commit │merge│
//!   chunk k → │ gather+count │ scan │ grant+ledger │ resolve+commit │     │
//!             └─────────────────────────────────────────────────────────┘
//!               parallel       parallel             parallel       serial
//!               (balls)        (bin ranges)         (balls)        O(m')
//! ```
//!
//! Each arena records the bins it touched in a bitmap, so an owner visits
//! only the set bits of its words: a round costs O(chunks·n/64 + Σ
//! distinct bins touched), never the O(chunks·n) of a dense walk — the
//! cost that would make a chunked round on a drained active set pay
//! chunks× the serial path's memory traffic on large bin counts. The
//! grant pass is the one dense bin-side pass. The bin-side kernels store
//! before they load wherever the old value is known to be zero (a bin's
//! first count, the first round's ledger), so a page the run has never
//! written faults once, on the store, instead of twice.
//!
//! Each chunk writes exclusively into its own `LaneScratch` arena, owned
//! by `SimState` and reused across rounds, so the steady-state round
//! performs **zero heap allocations** (pinned by
//! `tests/alloc_steady_state.rs`). Cross-array per-ball writes (protocol
//! state, fault state, assignment, message counts) go through
//! [`DisjointIndexMut`], whose one-task-per-index contract is checked in
//! debug builds by a [`DisjointClaims`] table.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pba_par::{Chunking, DisjointClaims, DisjointIndexMut, ThreadPool};

use crate::faults::{BallFault, FaultCtx, FaultRecord};
use crate::protocol::{BallContext, ChoiceSink, CommitOption, RoundContext, RoundProtocol};
use crate::rng::RoundStreams;

/// The chunk geometry of a pass of the round kernel (or of one streamed
/// batch): the minimum items per parallel chunk and the minimum work for
/// the pass to fan out at all. A run uses one plan for every round
/// (`RunConfig::with_chunk_plan`); the default is 16 Ki / 64 Ki.
///
/// A pass on a pool never cuts more than two chunks per lane
/// ([`Backend::chunking`]), so a plan only decides when a pass fans out
/// and how small its chunks may get. Plans only change *scheduling* —
/// chunk boundaries and the fan-out decision — never results: the
/// kernels are bit-identical across every plan by construction (pinned
/// by the golden/fuzz suites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Minimum items per parallel chunk.
    pub min_chunk: usize,
    /// Minimum active items for a round to use the parallel backend.
    pub par_cutoff: usize,
}

/// The round plan: 16 Ki active balls a chunk, and a round with fewer
/// than 64 Ki active balls runs serially (one chunk) on any backend.
impl Default for ChunkPlan {
    fn default() -> Self {
        Self {
            min_chunk: 16 * 1024,
            par_cutoff: 64 * 1024,
        }
    }
}

impl ChunkPlan {
    /// The plan of a streamed batch: 1 Ki arrivals per chunk, fan-out
    /// from 8 Ki. An arrival is two probes, far lighter than a ball's
    /// pass through a protocol round, so dispatch pays for itself on
    /// smaller chunks and batches than the round default.
    pub const INGEST: ChunkPlan = ChunkPlan {
        min_chunk: 1024,
        par_cutoff: 8 * 1024,
    };

    /// A plan with these two knobs, `min_chunk` clamped to at least 1.
    pub fn new(min_chunk: usize, par_cutoff: usize) -> Self {
        Self {
            min_chunk: min_chunk.max(1),
            par_cutoff,
        }
    }
}

/// Where a round's chunks execute.
///
/// The round kernel itself is backend-agnostic: `Serial` runs the identical
/// chunked code inline (with exactly one chunk), `Pool` fans chunks out over
/// the pool's lanes. Results are bit-identical because chunk boundaries and
/// per-ball RNG streams are pure functions of the input, never of timing.
#[derive(Clone, Copy)]
pub enum Backend<'p> {
    /// Execute inline on the calling thread.
    Serial,
    /// Distribute chunks over a thread pool (the caller participates).
    Pool(&'p ThreadPool),
}

impl<'p> Backend<'p> {
    /// Number of execution lanes this backend can use.
    #[inline]
    pub fn lanes(&self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Pool(pool) => pool.lanes(),
        }
    }

    /// Deterministic chunk geometry for a pass over `len` items: one chunk
    /// on the serial backend, up to `2 × lanes` chunks on a pool.
    pub fn chunking(&self, len: usize, min_chunk: usize) -> Chunking {
        let max_chunks = match self {
            Backend::Serial => 1,
            Backend::Pool(pool) => pool.lanes() * 2,
        };
        Chunking::new(len, min_chunk.max(1), max_chunks)
    }

    /// Run `f(i)` for every `i in 0..tasks` — inline for `Serial`,
    /// distributed (caller participating) for `Pool`.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        match self {
            Backend::Serial => {
                for i in 0..tasks {
                    f(i);
                }
            }
            Backend::Pool(pool) => pool.run_indexed(tasks, f),
        }
    }
}

/// The request-admission axis of the round kernel: decides which balls
/// gather this round and which of their emitted choices are delivered.
///
/// Implementations must be cheap and `Sync`; the kernel monomorphizes over
/// them, so [`NoFaults`]' passthrough branches vanish at compile time.
pub(crate) trait Admission: Sync {
    /// True when `admit` always passes and `deliver` never filters — lets
    /// the gather kernel write choices straight into the scratch arena
    /// instead of staging them through a filter buffer.
    const PASSTHROUGH: bool;

    /// Should `ball` gather this round? `false` keeps it active with zero
    /// requests.
    fn admit(&self, round: u32, ball: u32, rec: &mut FaultRecord) -> bool;

    /// Filter the ball's emitted choices down to the delivered requests.
    fn deliver(&self, round: u32, ball: u32, raw: &mut Vec<u32>, rec: &mut FaultRecord);
}

/// Zero-cost admission: everything is admitted and delivered verbatim.
pub(crate) struct NoFaults;

impl Admission for NoFaults {
    const PASSTHROUGH: bool = true;

    #[inline]
    fn admit(&self, _round: u32, _ball: u32, _rec: &mut FaultRecord) -> bool {
        true
    }

    #[inline]
    fn deliver(&self, _round: u32, _ball: u32, _raw: &mut Vec<u32>, _rec: &mut FaultRecord) {}
}

/// Fault-session admission: defers backed-off/straggling balls and routes
/// every emitted choice through the crash-redraw + drop filter. All
/// decisions come from counter-based streams keyed on `(plan seed, round,
/// ball)`, so chunk boundaries cannot change them.
pub(crate) struct Faulty<'a> {
    ctx: FaultCtx<'a>,
    /// Per-ball retry state, written disjointly (one chunk per ball id).
    ball: DisjointIndexMut<'a, BallFault>,
}

impl<'a> Faulty<'a> {
    pub(crate) fn new(ctx: FaultCtx<'a>, ball: &'a mut [BallFault]) -> Self {
        Self {
            ctx,
            ball: DisjointIndexMut::new(ball),
        }
    }
}

impl Admission for Faulty<'_> {
    const PASSTHROUGH: bool = false;

    #[inline]
    fn admit(&self, round: u32, ball: u32, rec: &mut FaultRecord) -> bool {
        // SAFETY: the round kernel partitions ball ids over chunks (checked
        // by `DisjointClaims` in debug builds), so this chunk's task is the
        // only one touching this ball's fault slot.
        let st = unsafe { self.ball.index_mut(ball as usize) };
        self.ctx.admit(round, ball, st, rec)
    }

    #[inline]
    fn deliver(&self, round: u32, ball: u32, raw: &mut Vec<u32>, rec: &mut FaultRecord) {
        // SAFETY: as in `admit` — one chunk per ball id.
        let st = unsafe { self.ball.index_mut(ball as usize) };
        self.ctx.deliver(round, ball, raw, st, rec);
    }
}

/// One chunk's reusable scratch arena. `SimState` owns one per chunk slot
/// and reuses them across rounds; after the warm-up round every buffer has
/// reached steady-state capacity and rounds allocate nothing.
///
/// Cache-line aligned so adjacent arenas in the `Vec<LaneScratch>` never
/// share a line: the per-chunk tallies (`committed`/`wasted`/…) are
/// written concurrently by different lanes, and without the alignment the
/// tail fields of arena `k` and head fields of arena `k+1` would
/// false-share.
#[repr(align(64))]
pub(crate) struct LaneScratch {
    /// First index into `active` covered by this chunk this round.
    pub(crate) start: usize,
    /// Flat per-request bin ids, ball-major within the chunk.
    pub(crate) bins: Vec<u32>,
    /// Per-ball delivered-request counts, aligned with `active[start..]`.
    pub(crate) degrees: Vec<u32>,
    /// Per-bin arrival counts of this chunk; [`scan_words`] rewrites the
    /// touched entries into the chunk's per-bin global arrival-rank
    /// bases, and resolve bumps them per request. Atomic so that the scan
    /// owners can reach every arena's bins of their range through a
    /// shared `&[LaneScratch]`; gather and resolve hold the arena
    /// exclusively and use plain `get_mut` access.
    pub(crate) counts: Vec<AtomicU32>,
    /// Bitmap of the bins this chunk touched this round: bit `b % 64` of
    /// word `b / 64`. `counts` is nonzero only under set bits, so zeroing
    /// at round start and the scan skip untouched words: O(n/64 +
    /// distinct bins touched) per chunk instead of O(n).
    pub(crate) touched: Vec<u64>,
    /// Staging buffer for pre-filter choices on the faulty path.
    raw: Vec<u32>,
    /// Commit options for `NEEDS_COMMIT_CHOICE` protocols.
    options: Vec<CommitOption>,
    /// Selected option indices for `NEEDS_COMMIT_CHOICE` protocols (one
    /// entry per replica the ball commits; empty = the ball declines).
    picks: Vec<u32>,
    /// Balls of this chunk that did not commit this round.
    pub(crate) still_active: Vec<u32>,
    /// First out-of-range bin a protocol emitted in this chunk, if any.
    pub(crate) out_of_range: Option<u64>,
    /// Fault events injected while gathering this chunk (all-zero on the
    /// no-fault path; merged into the session tally after the join in
    /// chunk order, matching the serial totals exactly).
    pub(crate) faults: FaultRecord,
    pub(crate) committed: u64,
    pub(crate) wasted: u64,
    pub(crate) commit_msgs: u64,
}

impl LaneScratch {
    pub(crate) fn new() -> Self {
        Self {
            start: 0,
            bins: Vec::new(),
            degrees: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
            raw: Vec::new(),
            options: Vec::new(),
            picks: Vec::new(),
            still_active: Vec::new(),
            out_of_range: None,
            faults: FaultRecord::default(),
            committed: 0,
            wasted: 0,
            commit_msgs: 0,
        }
    }

    /// Reset for a new round's gather over `range_start..` with `n` bins.
    fn begin_gather(&mut self, range_start: usize, n: usize) {
        self.start = range_start;
        self.bins.clear();
        self.degrees.clear();
        if self.counts.len() != n {
            // Only ever runs on the first round a chunk slot is used (or if
            // the bin count changed, which it cannot mid-run). A fresh
            // resize is all-zero, so the bitmap starts clear.
            self.counts.clear();
            self.counts.resize_with(n, || AtomicU32::new(0));
            self.touched.clear();
            self.touched.resize(n.div_ceil(64), 0);
        }
        // After last round, this arena's `counts` are nonzero only under
        // its set bits (counting, the scan's rank-base rewrite and
        // resolve's rank bumps all stay there): zero those words whole.
        for (w, word) in self.touched.iter_mut().enumerate() {
            if *word != 0 {
                for c in &mut self.counts[w * 64..(w * 64 + 64).min(n)] {
                    *c.get_mut() = 0;
                }
                *word = 0;
            }
        }
        self.out_of_range = None;
        self.faults = FaultRecord::default();
    }

    /// Count this chunk's requests (`bins`) per bin, marking each bin in
    /// the touched bitmap.
    fn count_arrivals(&mut self) {
        for &b in &self.bins {
            let b = b as usize;
            *self.counts[b].get_mut() += 1;
            self.touched[b / 64] |= 1 << (b % 64);
        }
    }
}

/// The bin-side partition of a round: the bitmap words of `n` bins split
/// into owner ranges with the round's `plan`, so every range is whole
/// 64-bin words. [`scan_words`] and [`grant_slice`] both run once per
/// range; [`word_bins`] gives a range's bins.
pub(crate) fn bin_owners(backend: &Backend<'_>, n: usize, plan: ChunkPlan) -> Chunking {
    backend.chunking(n.div_ceil(64), plan.min_chunk.div_ceil(64))
}

/// The bins under bitmap words `words`, clamped to `n`.
#[inline]
pub(crate) fn word_bins(words: Range<usize>, n: usize) -> Range<usize> {
    words.start * 64..(words.end * 64).min(n)
}

/// THE count-scan kernel, for the bins under bitmap words `words`.
///
/// `arenas` are the round's chunks in chunk order. For each set bit of
/// each arena, the chunk's arrival count becomes its rank base (the
/// arrivals to that bin in earlier chunks) and `totals` accumulates the
/// bin's arrivals. `hot` is the round-level bitmap of bins with nonzero
/// totals: the OR of the arenas' words replaces it, and last round's
/// bits that are not set again say which totals to zero. Only the owner
/// of a word touches its bins and bits in any of these arrays, so the
/// result is independent of the partition, and the accesses can be
/// relaxed: no other task reads them until the pass is joined, which
/// orders every owner's writes before the grant and resolve phases.
///
/// Write first: the first arena to touch a bin stores its count as the
/// total (rank base 0) without loading the old total, which is stale or
/// zero. A read of a page the run has never written maps the shared zero
/// page and then faults again on the write; a store faults once.
pub(crate) fn scan_words(
    arenas: &[LaneScratch],
    words: Range<usize>,
    totals: &[AtomicU32],
    hot: &[AtomicU64],
) {
    for w in words {
        let base = w * 64;
        let mut seen = 0u64;
        for arena in arenas {
            let bits = arena.touched[w];
            let mut first = bits & !seen;
            while first != 0 {
                let b = base + first.trailing_zeros() as usize;
                first &= first - 1;
                totals[b].store(arena.counts[b].load(Ordering::Relaxed), Ordering::Relaxed);
                arena.counts[b].store(0, Ordering::Relaxed);
            }
            let mut again = bits & seen;
            while again != 0 {
                let b = base + again.trailing_zeros() as usize;
                again &= again - 1;
                let c = arena.counts[b].load(Ordering::Relaxed);
                let total = totals[b].load(Ordering::Relaxed);
                arena.counts[b].store(total, Ordering::Relaxed);
                totals[b].store(total + c, Ordering::Relaxed);
            }
            seen |= bits;
        }
        let mut stale = hot[w].load(Ordering::Relaxed) & !seen;
        while stale != 0 {
            totals[base + stale.trailing_zeros() as usize].store(0, Ordering::Relaxed);
            stale &= stale - 1;
        }
        hot[w].store(seen, Ordering::Relaxed);
    }
}

/// THE ledger kernel, for one owner range: the range's hot-bit words
/// `hot` and its dense `counts`, `accept` and received-message counters
/// `recv`, all indexed from the range's first bin.
///
/// Returns the range's granted requests, `Σ accept`, and adds each hot
/// bin's received messages (its arrivals plus the commit notices of the
/// balls it accepted) to `recv`, if the run tracks them. Only the hot
/// bits are visited: a bin without arrivals accepted nothing and
/// received nothing. `first_round` stores the counts instead of adding
/// them, since the ledger is all zero before the run's first round (and
/// a store faults a fresh page once, where a load then store faults it
/// twice). Only the owner of a range touches its counters, so the
/// accesses are relaxed, as in [`scan_words`].
pub(crate) fn ledger_slice(
    hot: &[u64],
    counts: &[u32],
    accept: &[u32],
    recv: Option<&[AtomicU64]>,
    first_round: bool,
) -> u64 {
    let mut granted = 0u64;
    for (w, &word) in hot.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = w * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let a = u64::from(accept[i]);
            granted += a;
            if let Some(recv) = recv {
                let rx = u64::from(counts[i]) + a;
                let old = if first_round {
                    0
                } else {
                    recv[i].load(Ordering::Relaxed)
                };
                recv[i].store(old + rx, Ordering::Relaxed);
            }
        }
    }
    granted
}

/// Immutable context shared by every gather chunk of a round.
pub(crate) struct GatherShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    /// Per-ball streams with the round-level mix hoisted: every lane
    /// derives a ball's stream with one SplitMix64 finalizer instead of
    /// two — bit-identical to `ball_stream` by construction.
    pub streams: RoundStreams,
    pub n_bins: u32,
    pub active: &'a [u32],
    /// Per-ball protocol state, written disjointly (one chunk per ball).
    pub states: DisjointIndexMut<'a, P::BallState>,
    /// Debug-build verifier of the one-chunk-per-ball partition.
    pub claims: &'a DisjointClaims,
}

/// THE gather kernel: one chunk's choice emission, admission filtering,
/// and chunk-local arrival counting. Every executor/fault combination runs
/// this exact code; `A::PASSTHROUGH` only switches whether choices are
/// staged through the filter buffer.
pub(crate) fn gather_chunk<P: RoundProtocol, A: Admission>(
    shared: &GatherShared<'_, P>,
    admission: &A,
    range: Range<usize>,
    scratch: &mut LaneScratch,
) {
    scratch.begin_gather(range.start, shared.n_bins as usize);
    let round = shared.ctx.round;
    for &ball in &shared.active[range] {
        shared.claims.claim(ball as usize);
        // SAFETY: chunk ranges partition the active set and each ball id
        // appears at most once in it, so this task is the only one touching
        // this ball's state slot (asserted by the claim above in debug
        // builds).
        let state = unsafe { shared.states.index_mut(ball as usize) };
        if !admission.admit(round, ball, &mut scratch.faults) {
            scratch.degrees.push(0);
            continue;
        }
        let mut rng = shared.streams.ball(ball as u64);
        if A::PASSTHROUGH {
            let before = scratch.bins.len();
            let mut sink = ChoiceSink::new(&mut scratch.bins, shared.n_bins);
            shared.protocol.ball_choices(
                shared.ctx,
                BallContext { ball },
                state,
                &mut rng,
                &mut sink,
            );
            if let Some(b) = sink.out_of_range() {
                scratch.out_of_range.get_or_insert(b);
            }
            scratch.degrees.push((scratch.bins.len() - before) as u32);
        } else {
            scratch.raw.clear();
            let mut sink = ChoiceSink::new(&mut scratch.raw, shared.n_bins);
            shared.protocol.ball_choices(
                shared.ctx,
                BallContext { ball },
                state,
                &mut rng,
                &mut sink,
            );
            if let Some(b) = sink.out_of_range() {
                scratch.out_of_range.get_or_insert(b);
            }
            admission.deliver(round, ball, &mut scratch.raw, &mut scratch.faults);
            scratch.bins.extend_from_slice(&scratch.raw);
            scratch.degrees.push(scratch.raw.len() as u32);
        }
    }
    scratch.count_arrivals();
}

/// The bin-side decision for one bin: `(clamped accept, want)`.
#[inline]
fn bin_decision<P: RoundProtocol>(
    protocol: &P,
    ctx: &RoundContext,
    bin: u32,
    load: u32,
    arrivals: u32,
) -> (u32, u32) {
    let g = protocol.bin_grant(ctx, bin, load, arrivals);
    (g.accept.min(arrivals), g.want)
}

/// THE grant kernel: the grant phase for one contiguous range of the bin
/// space. The engine runs it once per chunk of its bin chunking, and a
/// cluster shard worker (`pba-cluster`) once over the bins it owns; in
/// the papers' model every bin decides alone, so any partition of
/// `[0, n)` into ranges yields the same round.
///
/// `counts`, `loads`, and `accept` are the range's dense slices for
/// global bins `[lo, lo + counts.len())`, indexed relative to `lo`;
/// `crashed` lists run-level crashed bins by global id, each at most once
/// (ids outside the range are ignored). Writes clamped accepts (0 for
/// crashed bins) and returns the range's `(underloaded bins, unfilled
/// want)` contribution with the crashed-bin demand already backed out, so
/// summing the contributions over a partition of `[0, n)` gives the
/// round's totals.
pub fn grant_slice<P: RoundProtocol>(
    protocol: &P,
    ctx: &RoundContext,
    lo: u32,
    counts: &[u32],
    loads: &[u32],
    crashed: &[u32],
    accept: &mut [u32],
) -> (u32, u64) {
    assert_eq!(counts.len(), loads.len());
    assert_eq!(counts.len(), accept.len());
    let mut underloaded = 0u32;
    let mut unfilled = 0u64;
    for (i, a) in accept.iter_mut().enumerate() {
        let arrivals = counts[i];
        let (acc, w) = bin_decision(protocol, ctx, lo + i as u32, loads[i], arrivals);
        *a = acc;
        if arrivals < w {
            underloaded += 1;
            unfilled += (w - arrivals) as u64;
        }
    }
    // Crashed bins accept nothing and want nothing: recompute the (pure)
    // decision to back their unfilled demand out of the counters, then
    // zero the grant.
    for &bin in crashed {
        let Some(i) = bin.checked_sub(lo).map(|d| d as usize) else {
            continue;
        };
        if i >= counts.len() {
            continue;
        }
        let arrivals = counts[i];
        let (_, w) = bin_decision(protocol, ctx, bin, loads[i], arrivals);
        if arrivals < w {
            underloaded -= 1;
            unfilled -= (w - arrivals) as u64;
        }
        accept[i] = 0;
    }
    (underloaded, unfilled)
}

/// Immutable context shared by every resolve chunk of a round.
pub(crate) struct ResolveShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    pub active: &'a [u32],
    pub accept: &'a [u32],
    /// Round-start load snapshot (populated only for `NEEDS_COMMIT_CHOICE`).
    pub loads_before: &'a [u32],
    /// Live loads as atomics: commit increments are commutative, so the
    /// final values are schedule-independent.
    pub loads: &'a [AtomicU32],
    /// Final placements (one chunk per ball id), if tracked.
    pub assignment: Option<DisjointIndexMut<'a, u32>>,
    /// Per-ball sent-message counters (one chunk per ball id), if tracked.
    pub sent: Option<DisjointIndexMut<'a, u32>>,
}

/// THE resolve/commit kernel: assign each of the chunk's requests its
/// global arrival rank (chunk rank base + running chunk-local count),
/// accept iff rank < grant — exactly the first-`grant`-arrivals rule — and
/// commit at most one accepted bin per ball.
pub(crate) fn resolve_chunk<P: RoundProtocol>(
    shared: &ResolveShared<'_, P>,
    scratch: &mut LaneScratch,
) {
    let LaneScratch {
        start,
        bins,
        degrees,
        counts,
        options,
        picks,
        still_active,
        committed,
        wasted,
        commit_msgs,
        ..
    } = scratch;
    still_active.clear();
    *committed = 0;
    *wasted = 0;
    *commit_msgs = 0;
    let mut req_idx = 0usize;
    for (k, &degree) in degrees.iter().enumerate() {
        let ball = shared.active[*start + k];
        let mut commit: Option<u32> = None;
        let mut accepts = 0u32;
        if P::NEEDS_COMMIT_CHOICE {
            options.clear();
        }
        for _ in 0..degree {
            let bin = bins[req_idx];
            req_idx += 1;
            let b = bin as usize;
            let slot = counts[b].get_mut();
            let rank = *slot;
            *slot = rank + 1;
            if rank < shared.accept[b] {
                accepts += 1;
                if P::NEEDS_COMMIT_CHOICE {
                    options.push(CommitOption {
                        bin,
                        slot: rank,
                        load_before: shared.loads_before[b],
                    });
                } else if commit.is_none() {
                    commit = Some(shared.protocol.redirect(shared.ctx, bin, rank));
                } else {
                    *wasted += 1;
                }
            }
        }
        if P::NEEDS_COMMIT_CHOICE && !options.is_empty() {
            picks.clear();
            shared
                .protocol
                .select_commits(shared.ctx, BallContext { ball }, options, picks);
            // The first pick is the ball's primary commit (recorded in the
            // assignment and counted below); replicas beyond it land their
            // load unit here. An empty pick set declines the round: every
            // acceptance is wasted and the ball stays active.
            for (i, &p) in picks.iter().enumerate() {
                let chosen = options[(p as usize).min(options.len() - 1)];
                let target = shared
                    .protocol
                    .redirect(shared.ctx, chosen.bin, chosen.slot);
                if i == 0 {
                    commit = Some(target);
                } else {
                    shared.loads[target as usize].fetch_add(1, Ordering::Relaxed);
                }
            }
            *wasted += (options.len() - picks.len().min(options.len())) as u64;
        }
        *commit_msgs += accepts as u64;
        if let Some(sent) = &shared.sent {
            // SAFETY: resolve reuses the gather partition (same chunk
            // ranges over the same active set), so this task is the only
            // one touching this ball's sent counter.
            unsafe {
                *sent.index_mut(ball as usize) += degree + accepts;
            }
        }
        if let Some(target) = commit {
            shared.loads[target as usize].fetch_add(1, Ordering::Relaxed);
            *committed += 1;
            if let Some(assignment) = &shared.assignment {
                // SAFETY: as above — one chunk per ball id.
                unsafe {
                    *assignment.index_mut(ball as usize) = target;
                }
            }
        } else {
            still_active.push(ball);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProblemSpec;
    use crate::protocol::{BinGrant, NoBallState};
    use crate::rng::{Rand64, SplitMix64};

    /// Grants keyed on the bin id, so one sweep covers every case: bins
    /// that want more than their arrivals (underloaded), bins that accept
    /// fewer than they receive, and `accept != want`.
    struct Patchwork;

    impl RoundProtocol for Patchwork {
        type BallState = NoBallState;
        fn name(&self) -> &'static str {
            "patchwork"
        }
        fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
            1
        }
        fn ball_choices(
            &self,
            _ctx: &RoundContext,
            _ball: BallContext,
            _state: &mut NoBallState,
            _rng: &mut SplitMix64,
            _out: &mut ChoiceSink<'_>,
        ) {
        }
        fn bin_grant(&self, _ctx: &RoundContext, bin: u32, load: u32, _arrivals: u32) -> BinGrant {
            let want = (bin % 9).saturating_sub(load);
            BinGrant {
                accept: want + bin % 3,
                want,
            }
        }
    }

    /// Run `grant_slice` over each range of `partition` (which must tile
    /// `0..counts.len()`) and sum the contributions, as the engine does
    /// per chunk and the cluster orchestrator per shard.
    fn grant_partition(
        ctx: &RoundContext,
        counts: &[u32],
        loads: &[u32],
        crashed: &[u32],
        partition: &[Range<usize>],
    ) -> (Vec<u32>, (u32, u64)) {
        let mut accept = vec![u32::MAX; counts.len()];
        let (mut underloaded, mut unfilled) = (0u32, 0u64);
        for r in partition {
            let (ub, uw) = grant_slice(
                &Patchwork,
                ctx,
                r.start as u32,
                &counts[r.clone()],
                &loads[r.clone()],
                crashed,
                &mut accept[r.clone()],
            );
            underloaded += ub;
            unfilled += uw;
        }
        (accept, (underloaded, unfilled))
    }

    #[test]
    fn grant_slice_sums_identically_over_every_partition() {
        const N: usize = 96;
        let ctx = RoundContext {
            spec: ProblemSpec::new(1000, N as u32).unwrap(),
            round: 2,
            active: 1000,
            placed: 0,
            seed: 5,
        };
        let counts: Vec<u32> = (0..N as u32).map(|b| (b * 7 + 3) % 11).collect();
        let loads: Vec<u32> = (0..N as u32).map(|b| b % 4).collect();
        // Crashed bins inside the 12-bin chunks below (5, 30, 77) and on
        // their edges (0, 11, 12, 23, 95), listed out of order: the kernel
        // must not depend on it.
        let crashed = [30u32, 0, 11, 12, 5, 95, 23, 77];

        // Reference: every bin decides alone.
        let mut want_accept = vec![0u32; N];
        let (mut want_ub, mut want_uw) = (0u32, 0u64);
        let mut crashed_underloaded = 0;
        for b in 0..N {
            let g = Patchwork.bin_grant(&ctx, b as u32, loads[b], counts[b]);
            let under = counts[b] < g.want;
            if crashed.contains(&(b as u32)) {
                crashed_underloaded += usize::from(under);
                continue;
            }
            want_accept[b] = g.accept.min(counts[b]);
            if under {
                want_ub += 1;
                want_uw += u64::from(g.want - counts[b]);
            }
        }
        // The fixture must exercise both the clamp and the crash back-out.
        assert!(want_ub > 0 && crashed_underloaded > 0);
        assert!((0..N).any(|b| want_accept[b] > 0 && want_accept[b] == counts[b]));

        let one: Vec<_> = Backend::Serial.chunking(N, 1).ranges().collect();
        let equal: Vec<_> = Chunking::new(N, 1, 8).ranges().collect();
        assert!(equal.iter().all(|r| r.len() == 12));
        let edges = [0, 1, 13, 14, 50, 95, N];
        let ragged: Vec<_> = edges.windows(2).map(|w| w[0]..w[1]).collect();
        let single: Vec<_> = (0..N).map(|b| b..b + 1).collect();
        for (name, partition) in [
            ("one range", one),
            ("equal chunks", equal),
            ("ragged chunks", ragged),
            ("single bins", single),
        ] {
            let (accept, totals) = grant_partition(&ctx, &counts, &loads, &crashed, &partition);
            assert_eq!(accept, want_accept, "{name}: accept");
            assert_eq!(
                totals,
                (want_ub, want_uw),
                "{name}: (underloaded, unfilled)"
            );
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Arrivals {
        /// Most bins, with multiplicities, plus the word-edge bins.
        Dense,
        /// Two of the word-edge bins only.
        Sparse,
    }

    /// Chunk `k`'s requests in `round`, over `n` bins.
    fn requests(pattern: Arrivals, round: usize, k: usize, n: usize) -> Vec<u32> {
        let edges = [0, 63, 64, n as u32 - 1];
        match pattern {
            Arrivals::Dense => {
                let mut rng = SplitMix64::new((round * 8 + k) as u64 + 1);
                let mut bins: Vec<u32> = (0..3 * n / 2).map(|_| rng.below(n as u32)).collect();
                bins.extend(edges);
                bins
            }
            Arrivals::Sparse => vec![edges[k % 4], edges[(k + 1) % 4], edges[k % 4]],
        }
    }

    #[test]
    fn scan_words_matches_prefix_sums_over_every_partition() {
        use pba_par::{as_atomic_u32, as_atomic_u64};
        use Arrivals::{Dense, Sparse};
        // Not a multiple of 64: the last word is partial.
        const N: usize = 1000;
        let words = N.div_ceil(64);
        let one: Vec<_> = Backend::Serial.chunking(words, 1).ranges().collect();
        let equal: Vec<_> = Chunking::new(words, 1, 4).ranges().collect();
        assert!(equal.iter().all(|r| r.len() == 4));
        let edges = [0, 1, 2, 7, 15, words];
        let ragged: Vec<_> = edges.windows(2).map(|w| w[0]..w[1]).collect();
        let single: Vec<_> = (0..words).map(|w| w..w + 1).collect();
        // Dense, sparse, dense on the same arenas, as `(arrivals, chunks)`
        // per round: stale counts, bits and totals of a denser round —
        // including arenas a sparse round leaves idle — must not leak.
        let mut schedules: Vec<[(Arrivals, usize); 3]> = (1..=4)
            .map(|chunks| [(Dense, chunks), (Sparse, chunks), (Dense, chunks)])
            .collect();
        schedules.push([(Dense, 4), (Sparse, 1), (Dense, 3)]);

        for (name, partition) in [
            ("one range", one),
            ("equal ranges", equal),
            ("ragged ranges", ragged),
            ("one word per owner", single),
        ] {
            for schedule in &schedules {
                let mut arenas: Vec<LaneScratch> = (0..4).map(|_| LaneScratch::new()).collect();
                let mut totals = vec![0u32; N];
                let mut hot = vec![0u64; words];
                for (round, &(pattern, chunks)) in schedule.iter().enumerate() {
                    let case = format!("{name}, {schedule:?}, round {round}");
                    // Reference: per bin, prefix sums over the chunks in
                    // chunk order.
                    let mut want_base = vec![vec![0u32; N]; chunks];
                    let mut want_total = vec![0u32; N];
                    for (k, arena) in arenas[..chunks].iter_mut().enumerate() {
                        arena.begin_gather(0, N);
                        arena.bins = requests(pattern, round, k, N);
                        arena.count_arrivals();
                        let mut arrivals = vec![0u32; N];
                        for &b in &arena.bins {
                            arrivals[b as usize] += 1;
                        }
                        for b in 0..N {
                            if arrivals[b] > 0 {
                                want_base[k][b] = want_total[b];
                            }
                            want_total[b] += arrivals[b];
                        }
                    }
                    {
                        let (t, h) = (as_atomic_u32(&mut totals), as_atomic_u64(&mut hot));
                        for r in &partition {
                            scan_words(&arenas[..chunks], r.clone(), t, h);
                        }
                    }
                    assert_eq!(totals, want_total, "{case}: totals");
                    for (k, want) in want_base.iter().enumerate() {
                        let got: Vec<u32> = arenas[k]
                            .counts
                            .iter()
                            .map(|c| c.load(Ordering::Relaxed))
                            .collect();
                        assert_eq!(&got, want, "{case}: rank bases of chunk {k}");
                    }
                    for (w, &word) in hot.iter().enumerate() {
                        let want = (0..64)
                            .filter(|i| w * 64 + i < N && want_total[w * 64 + i] > 0)
                            .fold(0u64, |acc, i| acc | 1 << i);
                        assert_eq!(word, want, "{case}: hot word {w}");
                    }
                    // Resolve's rank bumps, which the next gather clears.
                    for arena in &mut arenas[..chunks] {
                        let LaneScratch { bins, counts, .. } = arena;
                        for &b in bins.iter() {
                            *counts[b as usize].get_mut() += 1;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_tuning_clamps_and_pins() {
        let plan = ChunkPlan::new(0, 7);
        assert_eq!(plan.min_chunk, 1, "min_chunk 0 must clamp to 1");
        assert_eq!(plan.par_cutoff, 7);
        assert_eq!(ChunkPlan::new(123, 456).min_chunk, 123);
        assert_eq!(ChunkPlan::default(), ChunkPlan::new(16 * 1024, 64 * 1024));
    }

    #[test]
    fn serial_backend_is_one_chunk() {
        let b = Backend::Serial;
        assert_eq!(b.lanes(), 1);
        let c = b.chunking(1_000_000, 16);
        assert_eq!(c.chunks(), 1);
        assert_eq!(c.range(0), 0..1_000_000);
    }

    #[test]
    fn pool_backend_fans_out() {
        let pool = ThreadPool::new(3);
        let b = Backend::Pool(&pool);
        assert_eq!(b.lanes(), 4);
        let c = b.chunking(1_000_000, 16);
        assert_eq!(c.chunks(), 8); // lanes * 2
        let mut seen = [false; 64];
        let flags: Vec<std::sync::atomic::AtomicBool> = (0..64)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        b.run(64, |i| flags[i].store(true, Ordering::Relaxed));
        for (i, f) in flags.iter().enumerate() {
            seen[i] = f.load(Ordering::Relaxed);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn serial_backend_runs_inline_in_order() {
        let next = AtomicU32::new(0);
        Backend::Serial.run(10, |i| {
            assert_eq!(next.fetch_add(1, Ordering::Relaxed), i as u32);
        });
        assert_eq!(next.into_inner(), 10);
    }
}
