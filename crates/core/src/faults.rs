//! Deterministic fault injection: message drops, straggler lanes, crashed
//! bins, and (for the streaming allocator) transient shard-domain failures.
//!
//! The papers' protocols are round-synchronous and implicitly lossless;
//! their practical descendants must tolerate lost requests, slow lanes,
//! and unavailable bins. This module injects those faults **without
//! giving up reproducibility**: every fault decision is drawn from a
//! counter-based stream keyed on the [`FaultPlan`]'s own seed and the
//! entity it concerns (`(round, ball)`, `(round, lane)`, `bin`,
//! `(batch, domain)`), never on wall clocks or scheduling. Two runs with
//! equal `(seed, FaultPlan)` therefore inject *identical* faults — on the
//! sequential executor, on any parallel lane count, and on any shard
//! count — which is what makes chaos testing assertable.
//!
//! ## Resilience semantics
//!
//! * **Dropped requests** — each delivered request independently survives
//!   with probability `1 − drop_prob`. A ball whose *every* request of a
//!   round is lost retries next round(s) with fresh choices under capped
//!   exponential backoff (`1, 2, 4, …, max_backoff` rounds); any
//!   delivered request resets the backoff level.
//! * **Crashed bins** — a `crash_frac` Bernoulli sample of bins (fixed
//!   for the whole run) accepts nothing. Requests addressed to a crashed
//!   bin are redrawn uniformly up to `redraw_attempts` times; if every
//!   redraw also hits a crashed bin the request is lost. Crashed bins are
//!   forced to `want = 0`, so they never count as underloaded.
//! * **Straggler lanes** — balls are statically striped over
//!   `StragglerSpec::lanes` virtual lanes; each round each lane fails to
//!   deliver in time with probability `prob`. The engine's round timeout
//!   converts the whole lane's requests into next-round retries (no
//!   backoff escalation: the messages were late, not lost).
//! * **Shard-domain failures** (streaming) — bins are split into
//!   `domains` contiguous virtual domains; each batch each domain is
//!   unavailable with probability `domain_fail_prob`, and arrivals
//!   directed at a failed domain are redirected to the next live bin.
//!   Domains are *virtual* precisely so placements stay identical across
//!   physical shard counts.
//!
//! The no-fault path stays zero-overhead: the engine gates every fault
//! branch on `Option<FaultPlan>` and the fault machinery itself performs
//! no clock reads (all decisions are pure counter streams).

use crate::rng::{Rand64, SplitMix64};

/// Salt separating per-ball fault streams from [`crate::rng::ball_stream`].
const FAULT_BALL_SALT: u64 = 0x2545_F491_4F6C_DD1D;
/// Salt for the per-round straggler-lane draws.
const STRAGGLE_SALT: u64 = 0x8CB9_2BA7_2F3D_8DD7;
/// Salt for the run-level crashed-bin sample.
const CRASH_SALT: u64 = 0xBDD3_9444_75A7_3CF0;
/// Salt for the per-batch shard-domain failure draws.
const DOMAIN_SALT: u64 = 0xA076_1D64_78BD_642F;
/// Salt for the static ball → straggler-lane striping.
const LANE_SALT: u64 = 0xE703_7ED1_A0B4_28DB;

/// Straggler-lane configuration: `lanes` virtual lanes, each delivering a
/// round late with probability `prob`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Virtual delivery lanes the balls are striped over (1..=64).
    pub lanes: u32,
    /// Per-round, per-lane probability of straggling.
    pub prob: f64,
}

/// A seeded, reproducible fault schedule; attach via
/// [`RunConfig::with_faults`](crate::RunConfig::with_faults) or
/// `StreamAllocator::with_faults`.
///
/// All probabilities are validated to `[0, 1)` — a certain fault would
/// make completion impossible.
///
/// # Examples
///
/// ```
/// use pba_core::FaultPlan;
///
/// let plan = FaultPlan::new(7)
///     .with_drop_prob(0.2)
///     .with_crashed_bins(0.1)
///     .with_stragglers(8, 0.25);
/// assert_eq!(plan.seed, 7);
/// assert_eq!(plan.stragglers.unwrap().lanes, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of every fault stream (independent of the run seed, so the
    /// same chaos schedule can be replayed over different workloads).
    pub seed: u64,
    /// Per-request message-drop probability.
    pub drop_prob: f64,
    /// Fraction of bins crashed for the whole run.
    pub crash_frac: f64,
    /// Straggler-lane configuration, if any.
    pub stragglers: Option<StragglerSpec>,
    /// Cap on the exponential retry backoff, in rounds (≥ 1).
    pub max_backoff: u32,
    /// Redraw attempts before a request to a crashed bin is lost (≥ 1).
    pub redraw_attempts: u32,
    /// Virtual shard-failure domains for the streaming allocator
    /// (0 disables; 1..=64 enables).
    pub domains: u32,
    /// Per-batch, per-domain failure probability.
    pub domain_fail_prob: f64,
    /// A scheduled *permanent* domain failure: `(domain, from_batch)`
    /// marks `domain` dead for every batch ≥ `from_batch`. It is also
    /// the only way to kill a cluster worker: `pba-run cluster stream
    /// --faults domains=SxP,kill=DxB` (the plan's domains must be the
    /// `S` shards) really kills shard `D`'s worker before batch `B`, and
    /// the in-process run with the same plan reproduces the identical
    /// redirect decisions through this field.
    pub dead_domain_from: Option<(u32, u64)>,
}

impl FaultPlan {
    /// A plan that injects nothing yet; chain `with_*` to arm faults.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_prob: 0.0,
            crash_frac: 0.0,
            stragglers: None,
            max_backoff: 8,
            redraw_attempts: 4,
            domains: 0,
            domain_fail_prob: 0.0,
            dead_domain_from: None,
        }
    }

    /// Drop each delivered request independently with probability `p`.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop_prob must be in [0, 1)");
        self.drop_prob = p;
        self
    }

    /// Crash a `frac` Bernoulli sample of bins for the whole run.
    pub fn with_crashed_bins(mut self, frac: f64) -> Self {
        assert!((0.0..1.0).contains(&frac), "crash_frac must be in [0, 1)");
        self.crash_frac = frac;
        self
    }

    /// Stripe balls over `lanes` virtual lanes, each straggling per round
    /// with probability `prob`.
    pub fn with_stragglers(mut self, lanes: u32, prob: f64) -> Self {
        assert!((1..=64).contains(&lanes), "straggler lanes must be 1..=64");
        assert!(
            (0.0..1.0).contains(&prob),
            "straggler prob must be in [0, 1)"
        );
        self.stragglers = Some(StragglerSpec { lanes, prob });
        self
    }

    /// Cap the exponential retry backoff at `rounds` (≥ 1).
    pub fn with_max_backoff(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "max_backoff must be ≥ 1");
        self.max_backoff = rounds;
        self
    }

    /// Redraw a crashed-bin request up to `attempts` times before losing
    /// it (≥ 1).
    pub fn with_redraw_attempts(mut self, attempts: u32) -> Self {
        assert!(attempts >= 1, "redraw_attempts must be ≥ 1");
        self.redraw_attempts = attempts;
        self
    }

    /// Split bins into `domains` virtual shard-failure domains, each
    /// failing per batch with probability `prob` (streaming allocator).
    pub fn with_shard_failures(mut self, domains: u32, prob: f64) -> Self {
        assert!((1..=64).contains(&domains), "fault domains must be 1..=64");
        assert!(
            (0.0..1.0).contains(&prob),
            "domain_fail_prob must be in [0, 1)"
        );
        self.domains = domains;
        self.domain_fail_prob = prob;
        self
    }

    /// Schedule a permanent domain failure: `domain` is dead for every
    /// batch ≥ `from_batch`. Requires domains to be configured first
    /// (`with_shard_failures`; probability 0.0 gives a kill-only plan).
    /// The last live domain never dies: if the random draw plus the dead
    /// domain would fail everything, the mask degrades to the dead
    /// domain alone.
    pub fn with_dead_domain(mut self, domain: u32, from_batch: u64) -> Self {
        assert!(
            self.domains > 0,
            "configure with_shard_failures before with_dead_domain"
        );
        assert!(
            domain < self.domains,
            "dead domain must be < configured domains"
        );
        assert!(
            self.domains > 1,
            "killing the only domain would fail every bin"
        );
        self.dead_domain_from = Some((domain, from_batch));
        self
    }

    /// True when streaming shard-domain failures are armed.
    pub fn has_domain_faults(&self) -> bool {
        self.domains > 0 && (self.domain_fail_prob > 0.0 || self.dead_domain_from.is_some())
    }

    /// The virtual fault domain of `bin` among `n` bins (contiguous
    /// ranges, independent of the physical shard layout).
    #[inline]
    pub fn domain_of(&self, bin: u32, n: u32) -> u32 {
        debug_assert!(self.domains > 0 && bin < n);
        ((bin as u64 * self.domains as u64) / n as u64) as u32
    }

    /// Deterministic failed-domain mask for `batch` (bit `d` set ⇒ domain
    /// `d` unavailable). Deterministic in `(plan.seed, batch)` only. If
    /// the random draw fails *every* domain the batch degrades to no
    /// transient faults (an all-failed cluster has nowhere to place
    /// anything); a scheduled [`dead domain`](FaultPlan::with_dead_domain)
    /// is then ORed in, and if the union would still fail everything the
    /// mask keeps only the dead domain — a kill never un-kills, and the
    /// surviving domains stay live.
    pub fn failed_domains(&self, batch: u64) -> u64 {
        if !self.has_domain_faults() {
            return 0;
        }
        let mut mask = 0u64;
        if self.domain_fail_prob > 0.0 {
            let a = SplitMix64::mix(self.seed ^ DOMAIN_SALT);
            let mut rng = SplitMix64::new(SplitMix64::mix(
                a ^ batch.wrapping_mul(0x9FB2_1C65_1E98_DF25),
            ));
            for d in 0..self.domains {
                if rng.bernoulli(self.domain_fail_prob) {
                    mask |= 1 << d;
                }
            }
        }
        let all = if self.domains == 64 {
            u64::MAX
        } else {
            (1u64 << self.domains) - 1
        };
        if mask == all {
            mask = 0;
        }
        if let Some((dead, from)) = self.dead_domain_from {
            if batch >= from {
                mask |= 1 << dead;
                if mask == all {
                    mask = 1 << dead;
                }
            }
        }
        mask
    }

    /// Redirect `bin` to the next (cyclically) bin in a live domain under
    /// `mask`. Identity when the bin's domain is live. Terminates because
    /// [`FaultPlan::failed_domains`] never returns an all-ones mask.
    #[inline]
    pub fn redirect(&self, mut bin: u32, mask: u64, n: u32) -> u32 {
        while (mask >> self.domain_of(bin, n)) & 1 == 1 {
            bin = if bin + 1 == n { 0 } else { bin + 1 };
        }
        bin
    }
}

/// Per-round fault event counts, delivered through
/// [`MetricsSink::on_fault`](crate::metrics::MetricsSink::on_fault) and
/// the JSONL `fault` event. Emitted only for rounds that injected at
/// least one fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecord {
    /// Round the faults were injected in.
    pub round: u32,
    /// Requests lost to message drops.
    pub dropped_requests: u64,
    /// Redraws performed because a choice addressed a crashed bin.
    pub crash_redraws: u64,
    /// Requests lost because every redraw also hit a crashed bin.
    pub crash_lost: u64,
    /// Balls whose lane straggled (retrying next round, no backoff).
    pub straggler_balls: u64,
    /// Balls sitting out the round in backoff.
    pub deferred_balls: u64,
    /// Balls that lost *all* requests and escalated their backoff.
    pub backoff_escalations: u64,
}

impl FaultRecord {
    /// True when the round injected no fault at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.dropped_requests == 0
            && self.crash_redraws == 0
            && self.crash_lost == 0
            && self.straggler_balls == 0
            && self.deferred_balls == 0
            && self.backoff_escalations == 0
    }

    /// Accumulate `other`'s counts (the `round` field is untouched).
    pub(crate) fn merge(&mut self, other: &FaultRecord) {
        self.dropped_requests += other.dropped_requests;
        self.crash_redraws += other.crash_redraws;
        self.crash_lost += other.crash_lost;
        self.straggler_balls += other.straggler_balls;
        self.deferred_balls += other.deferred_balls;
        self.backoff_escalations += other.backoff_escalations;
    }
}

/// Whole-run fault totals, reported in
/// [`RunOutcome::faults`](crate::RunOutcome) and aggregated by
/// [`EngineMetrics`](crate::metrics::EngineMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Requests lost to message drops.
    pub dropped_requests: u64,
    /// Redraws performed for crashed-bin choices.
    pub crash_redraws: u64,
    /// Requests lost to exhausted crashed-bin redraws.
    pub crash_lost: u64,
    /// Ball-rounds lost to straggling lanes.
    pub straggler_balls: u64,
    /// Ball-rounds sat out in backoff.
    pub deferred_balls: u64,
    /// Total-loss events that escalated a ball's backoff.
    pub backoff_escalations: u64,
    /// Bins crashed for the whole run (0 in per-record aggregation).
    pub crashed_bins: u32,
}

impl FaultStats {
    /// Accumulate one round's record.
    pub(crate) fn absorb(&mut self, r: &FaultRecord) {
        self.dropped_requests += r.dropped_requests;
        self.crash_redraws += r.crash_redraws;
        self.crash_lost += r.crash_lost;
        self.straggler_balls += r.straggler_balls;
        self.deferred_balls += r.deferred_balls;
        self.backoff_escalations += r.backoff_escalations;
    }
}

/// The run-level crashed-bin sample: bitset for O(1) membership plus the
/// explicit list for the post-grant fixup sweep.
#[derive(Debug, Clone)]
pub(crate) struct CrashSet {
    bits: Vec<u64>,
    list: Vec<u32>,
}

impl CrashSet {
    fn sample(seed: u64, frac: f64, n: u32) -> Self {
        let mut bits = vec![0u64; (n as usize).div_ceil(64)];
        let mut list = Vec::new();
        if frac > 0.0 {
            let mut rng = SplitMix64::new(SplitMix64::mix(seed ^ CRASH_SALT));
            for bin in 0..n {
                if rng.bernoulli(frac) {
                    bits[(bin >> 6) as usize] |= 1 << (bin & 63);
                    list.push(bin);
                }
            }
            // A fully crashed cluster can place nothing; keep one bin live.
            if list.len() == n as usize {
                let first = list.remove(0);
                bits[(first >> 6) as usize] &= !(1 << (first & 63));
            }
        }
        Self { bits, list }
    }

    #[inline]
    pub(crate) fn contains(&self, bin: u32) -> bool {
        (self.bits[(bin >> 6) as usize] >> (bin & 63)) & 1 == 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// Per-ball retry state: the next round the ball may gather, and the
/// current backoff level (`wait = min(2^level, max_backoff)`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BallFault {
    pub(crate) resume: u32,
    pub(crate) level: u8,
}

/// Per-run fault engine state owned by the simulator's `SimState`.
pub(crate) struct FaultSession {
    plan: FaultPlan,
    n: u32,
    crashed: CrashSet,
    /// Straggler-lane mask of the current round (bit = lane straggles).
    mask: u64,
    ball: Vec<BallFault>,
    tally: FaultRecord,
    totals: FaultStats,
}

impl FaultSession {
    pub(crate) fn new(plan: FaultPlan, m: u64, n: u32) -> Self {
        let crashed = CrashSet::sample(plan.seed, plan.crash_frac, n);
        let totals = FaultStats {
            crashed_bins: crashed.list.len() as u32,
            ..FaultStats::default()
        };
        Self {
            plan,
            n,
            crashed,
            mask: 0,
            ball: vec![BallFault::default(); m as usize],
            tally: FaultRecord::default(),
            totals,
        }
    }

    /// Draw this round's straggler-lane mask (pure in `(seed, round)`).
    pub(crate) fn begin_round(&mut self, round: u32) {
        self.mask = match self.plan.stragglers {
            Some(s) if s.prob > 0.0 => {
                let a = SplitMix64::mix(self.plan.seed ^ STRAGGLE_SALT);
                let mut rng = SplitMix64::new(SplitMix64::mix(
                    a ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407),
                ));
                let mut mask = 0u64;
                for lane in 0..s.lanes {
                    if rng.bernoulli(s.prob) {
                        mask |= 1 << lane;
                    }
                }
                mask
            }
            _ => 0,
        };
    }

    /// Borrow the immutable decision context, the per-ball retry states,
    /// and the round tally as disjoint pieces (the parallel executor hands
    /// chunks disjoint slices of the ball states).
    pub(crate) fn split(&mut self) -> (FaultCtx<'_>, &mut [BallFault], &mut FaultRecord) {
        (
            FaultCtx {
                plan: &self.plan,
                crashed: &self.crashed,
                mask: self.mask,
                n: self.n,
            },
            &mut self.ball,
            &mut self.tally,
        )
    }

    /// Bins crashed for this run (for the post-grant `want = 0` sweep).
    pub(crate) fn crashed_bins(&self) -> &[u32] {
        &self.crashed.list
    }

    /// Close the round: fold the tally into the totals and return the
    /// round's record when any fault fired.
    pub(crate) fn end_round(&mut self, round: u32) -> Option<FaultRecord> {
        let mut t = std::mem::take(&mut self.tally);
        self.totals.absorb(&t);
        if t.is_empty() {
            None
        } else {
            t.round = round;
            Some(t)
        }
    }

    /// Whole-run totals so far.
    pub(crate) fn stats(&self) -> FaultStats {
        self.totals
    }
}

/// Immutable per-round fault decision context; `Copy`-cheap to capture in
/// the parallel executor's chunk closures.
#[derive(Clone, Copy)]
pub(crate) struct FaultCtx<'a> {
    plan: &'a FaultPlan,
    crashed: &'a CrashSet,
    mask: u64,
    n: u32,
}

impl FaultCtx<'_> {
    /// Should `ball` gather this round? `false` defers it (backoff or
    /// straggling lane); the ball stays active with zero requests.
    #[inline]
    pub(crate) fn admit(&self, round: u32, ball: u32, st: &BallFault, t: &mut FaultRecord) -> bool {
        if round < st.resume {
            t.deferred_balls += 1;
            return false;
        }
        if self.mask != 0 {
            let lanes = self.plan.stragglers.map_or(1, |s| s.lanes);
            let lane = SplitMix64::mix(ball as u64 ^ self.plan.seed ^ LANE_SALT) % lanes as u64;
            if (self.mask >> lane) & 1 == 1 {
                t.straggler_balls += 1;
                return false;
            }
        }
        true
    }

    /// Filter `raw` (the protocol's emitted choices) down to the delivered
    /// requests, redrawing crashed-bin choices and rolling message drops,
    /// and update the ball's backoff state. Consumes the ball's fault
    /// stream in a fixed per-request order, so sequential and parallel
    /// executors agree bit-for-bit.
    pub(crate) fn deliver(
        &self,
        round: u32,
        ball: u32,
        raw: &mut Vec<u32>,
        st: &mut BallFault,
        t: &mut FaultRecord,
    ) {
        if raw.is_empty() || (self.plan.drop_prob == 0.0 && self.crashed.is_empty()) {
            return;
        }
        let a = SplitMix64::mix(
            self.plan.seed ^ FAULT_BALL_SALT ^ (round as u64).wrapping_mul(0xA24B_AED4_963E_E407),
        );
        let mut rng = SplitMix64::new(SplitMix64::mix(
            a ^ (ball as u64).wrapping_mul(0x9FB2_1C65_1E98_DF25),
        ));
        let mut kept = 0usize;
        for i in 0..raw.len() {
            let mut bin = raw[i];
            if self.crashed.contains(bin) {
                let mut live = None;
                for _ in 0..self.plan.redraw_attempts {
                    t.crash_redraws += 1;
                    let redrawn = rng.below(self.n);
                    if !self.crashed.contains(redrawn) {
                        live = Some(redrawn);
                        break;
                    }
                }
                match live {
                    Some(redrawn) => bin = redrawn,
                    None => {
                        t.crash_lost += 1;
                        continue;
                    }
                }
            }
            if self.plan.drop_prob > 0.0 && rng.bernoulli(self.plan.drop_prob) {
                t.dropped_requests += 1;
                continue;
            }
            raw[kept] = bin;
            kept += 1;
        }
        raw.truncate(kept);
        if kept == 0 {
            // Total loss: capped exponential backoff over fresh choices.
            let wait = (1u32 << st.level.min(30)).min(self.plan.max_backoff.max(1));
            st.resume = round.saturating_add(wait);
            st.level = (st.level + 1).min(15);
            t.backoff_escalations += 1;
        } else {
            st.level = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_validate_ranges() {
        let plan = FaultPlan::new(1)
            .with_drop_prob(0.5)
            .with_crashed_bins(0.25)
            .with_stragglers(4, 0.1)
            .with_max_backoff(16)
            .with_redraw_attempts(2)
            .with_shard_failures(8, 0.3);
        assert_eq!(plan.max_backoff, 16);
        assert!(plan.has_domain_faults());
    }

    #[test]
    #[should_panic(expected = "drop_prob")]
    fn certain_drop_rejected() {
        let _ = FaultPlan::new(0).with_drop_prob(1.0);
    }

    #[test]
    #[should_panic(expected = "lanes")]
    fn too_many_straggler_lanes_rejected() {
        let _ = FaultPlan::new(0).with_stragglers(65, 0.1);
    }

    #[test]
    fn crash_sample_matches_fraction_and_never_crashes_everything() {
        let set = CrashSet::sample(42, 0.25, 4096);
        let frac = set.list.len() as f64 / 4096.0;
        assert!((frac - 0.25).abs() < 0.05, "crash frac {frac}");
        for &bin in &set.list {
            assert!(set.contains(bin));
        }
        // Even at frac → 1 the guard keeps a bin alive.
        let extreme = CrashSet::sample(7, 0.999, 8);
        assert!(extreme.list.len() < 8);
    }

    #[test]
    fn dead_domain_is_permanent_from_its_batch() {
        let plan = FaultPlan::new(9)
            .with_shard_failures(4, 0.0)
            .with_dead_domain(2, 5);
        assert!(plan.has_domain_faults(), "kill-only plans are armed");
        for batch in 0..5 {
            assert_eq!(plan.failed_domains(batch), 0, "alive before batch 5");
        }
        for batch in 5..50 {
            assert_eq!(plan.failed_domains(batch), 1 << 2, "dead from batch 5");
        }
    }

    #[test]
    fn dead_domain_composes_with_random_failures() {
        let random = FaultPlan::new(9).with_shard_failures(8, 0.4);
        let killed = FaultPlan::new(9)
            .with_shard_failures(8, 0.4)
            .with_dead_domain(3, 10);
        for batch in 0..100 {
            let base = random.failed_domains(batch);
            let got = killed.failed_domains(batch);
            if batch < 10 {
                assert_eq!(got, base, "batch {batch}: kill must not perturb draws");
            } else {
                // If the union would fail everything, only the dead
                // domain survives in the mask.
                let expect = if base | (1 << 3) == 0xFF {
                    1 << 3
                } else {
                    base | (1 << 3)
                };
                assert_eq!(
                    got, expect,
                    "batch {batch}: dead bit ORed onto the same draw"
                );
                assert_ne!(got, 0xFF, "batch {batch} failed every domain");
            }
        }
    }

    #[test]
    #[should_panic(expected = "with_shard_failures")]
    fn dead_domain_requires_domains() {
        let _ = FaultPlan::new(0).with_dead_domain(0, 0);
    }

    #[test]
    #[should_panic(expected = "only domain")]
    fn dead_domain_rejects_single_domain() {
        let _ = FaultPlan::new(0)
            .with_shard_failures(1, 0.0)
            .with_dead_domain(0, 0);
    }

    #[test]
    fn failed_domains_is_deterministic_and_never_total() {
        let plan = FaultPlan::new(9).with_shard_failures(8, 0.9);
        for batch in 0..200 {
            let a = plan.failed_domains(batch);
            let b = plan.failed_domains(batch);
            assert_eq!(a, b);
            assert_ne!(a, 0xFF, "batch {batch} failed every domain");
        }
        // High probability ⇒ some batch fails at least one domain.
        assert!((0..200).any(|t| plan.failed_domains(t) != 0));
    }

    #[test]
    fn redirect_lands_in_live_domain() {
        let plan = FaultPlan::new(3).with_shard_failures(4, 0.5);
        let n = 64;
        let mask = 0b0101u64; // domains 0 and 2 down
        for bin in 0..n {
            let target = plan.redirect(bin, mask, n);
            assert_eq!((mask >> plan.domain_of(target, n)) & 1, 0);
            // Live bins are untouched.
            if (mask >> plan.domain_of(bin, n)) & 1 == 0 {
                assert_eq!(target, bin);
            }
        }
    }

    #[test]
    fn deliver_escalates_backoff_on_total_loss_and_resets_on_delivery() {
        let plan = FaultPlan::new(5).with_drop_prob(0.4).with_max_backoff(4);
        let mut session = FaultSession::new(plan, 4, 16);
        session.begin_round(0);
        let (ctx, balls, tally) = session.split();
        let st = &mut balls[0];
        // Force total loss by delivering through an always-crashed view:
        // instead, emulate by repeatedly rolling until a total loss occurs.
        let mut round = 0u32;
        let mut saw_loss = false;
        for _ in 0..64 {
            let mut raw = vec![3u32, 7u32];
            ctx.deliver(round, 0, &mut raw, st, tally);
            if raw.is_empty() {
                saw_loss = true;
                assert!(st.resume > round);
                assert!(st.resume - round <= plan.max_backoff);
                break;
            }
            round += 1;
        }
        assert!(saw_loss, "p=0.4 over 64 rounds should lose both requests");
        // A delivered request resets the level.
        loop {
            round = st.resume;
            let mut raw = vec![3u32, 7u32];
            ctx.deliver(round, 0, &mut raw, st, tally);
            if !raw.is_empty() {
                assert_eq!(st.level, 0);
                break;
            }
        }
    }

    #[test]
    fn straggler_mask_is_deterministic_per_round() {
        let plan = FaultPlan::new(11).with_stragglers(8, 0.5);
        let mut a = FaultSession::new(plan, 1, 4);
        let mut b = FaultSession::new(plan, 1, 4);
        for round in 0..50 {
            a.begin_round(round);
            b.begin_round(round);
            assert_eq!(a.mask, b.mask);
            assert_eq!(a.mask & !0xFF, 0, "mask confined to 8 lanes");
        }
        assert!((0..50).any(|r| {
            a.begin_round(r);
            a.mask != 0
        }));
    }

    #[test]
    fn empty_record_merges_and_reports_empty() {
        let mut r = FaultRecord::default();
        assert!(r.is_empty());
        r.merge(&FaultRecord {
            dropped_requests: 2,
            ..FaultRecord::default()
        });
        assert!(!r.is_empty());
        let mut s = FaultStats::default();
        s.absorb(&r);
        assert_eq!(s.dropped_requests, 2);
    }
}
