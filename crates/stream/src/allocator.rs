//! The long-lived [`StreamAllocator`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use pba_core::{Backend, BatchRecord, BinState, ChunkPlan, FaultPlan, MetricsSink, StreamMeta};
use pba_par::{global_pool, DisjointIndexMut, ShardedCounters};

use crate::arrival_stream;
use crate::batch::{Batch, BatchOutcome};
use crate::loads::ShardedLoads;
use crate::policy::{PlacementPolicy, PolicyKind};

/// A long-lived online allocator: ingest [`Batch`]es of arrivals and
/// departures against persistent sharded bin state.
///
/// # Determinism
///
/// Arrival `i` of batch `t` draws from the counter-based stream
/// `arrival_stream(seed, t, i)`, and snapshot policies decide from the
/// batch-start loads only; applies are commutative atomic adds. Placements
/// are therefore **identical** for any shard count, any lane count, and
/// sequential vs parallel ingestion — only throughput changes. (The
/// [`TwoChoice`](crate::TwoChoice) policy reads live loads and is defined
/// by its one-lane sequential semantics; it ingests serially.)
///
/// # Examples
///
/// ```
/// use pba_stream::{Batch, PolicyKind, StreamAllocator};
///
/// let mut alloc = StreamAllocator::new(64, 42, PolicyKind::BatchedTwoChoice);
/// let out = alloc.ingest(&Batch::unit_arrivals(0, 640));
/// assert_eq!(out.placements.len(), 640);
/// assert_eq!(out.record.resident, 640);
/// // One 10n-sized batch decides from an all-zero snapshot, so the gap
/// // is one-choice-like; subsequent batches would tighten it.
/// assert!(out.record.gap <= 16, "gap {}", out.record.gap);
/// ```
pub struct StreamAllocator {
    // Fields are `pub(crate)` so the sibling `snapshot` module can encode
    // and rebuild the full state without a parallel accessor surface.
    pub(crate) bins: u32,
    pub(crate) seed: u64,
    pub(crate) policy: Box<dyn PlacementPolicy>,
    pub(crate) loads: ShardedLoads,
    /// Resident ball id → (bin, weight); consulted on departure.
    pub(crate) resident: HashMap<u64, (u32, u64)>,
    pub(crate) batch_seq: u64,
    pub(crate) metrics: Option<Arc<dyn MetricsSink>>,
    pub(crate) parallel: bool,
    /// Fault injection; only the shard-domain failure component applies
    /// to streaming. `None` is the zero-overhead path.
    pub(crate) faults: Option<FaultPlan>,
}

impl StreamAllocator {
    /// A fresh allocator with one shard and sequential ingestion.
    pub fn new(bins: u32, seed: u64, kind: PolicyKind) -> Self {
        Self {
            bins,
            seed,
            policy: kind.build(bins),
            loads: ShardedLoads::new(bins, 1),
            resident: HashMap::new(),
            batch_seq: 0,
            metrics: None,
            parallel: false,
            faults: None,
        }
    }

    /// Re-shard the (empty) bin state across `shards` lanes.
    ///
    /// Must be called before the first batch: resharding live state would
    /// be a data migration, which the allocator deliberately does not do.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert_eq!(self.batch_seq, 0, "cannot reshard after ingestion began");
        self.loads = ShardedLoads::new(self.bins, shards);
        self
    }

    /// Attach a metrics sink receiving one
    /// [`on_batch`](MetricsSink::on_batch) event per ingested batch.
    /// Placements are unaffected; only per-batch wall clocks start being
    /// read.
    pub fn with_metrics(mut self, sink: Arc<dyn MetricsSink>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Ingest snapshot-policy batches on the global thread pool.
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Arm fault injection. Streaming honours the plan's shard-domain
    /// failure component ([`FaultPlan::with_shard_failures`]): each batch
    /// draws a failed-domain mask from `(plan.seed, batch)`, and any
    /// placement landing in a failed domain is redirected — cyclically —
    /// to the next bin in a live domain. The redirect is a pure function
    /// of `(bin, mask)`, so placements stay identical across shard
    /// counts and sequential vs parallel ingestion.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Number of bins.
    pub fn bins(&self) -> u32 {
        self.bins
    }

    /// Batches ingested so far.
    pub fn batches(&self) -> u64 {
        self.batch_seq
    }

    /// Balls currently resident.
    pub fn resident(&self) -> u64 {
        self.resident.len() as u64
    }

    /// The live bin state (shared accounting trait with the engine).
    pub fn bin_state(&self) -> &dyn BinState {
        &self.loads
    }

    /// Identity carried by every metrics event this allocator emits.
    pub fn meta(&self) -> StreamMeta {
        StreamMeta {
            bins: self.bins,
            seed: self.seed,
            policy: self.policy.name(),
            shards: self.loads.shards(),
        }
    }

    /// Apply one batch: departures leave, then every arrival is placed.
    ///
    /// Returns the chosen bins (arrival order) and the batch statistics;
    /// the same record goes to the attached sink, if any.
    pub fn ingest(&mut self, batch: &Batch) -> BatchOutcome {
        // No sink → no clock reads, matching the engine's zero-cost rule.
        let start = self.metrics.as_ref().map(|_| Instant::now());

        let mut departed = 0u64;
        for id in &batch.departures {
            if let Some((bin, weight)) = self.resident.remove(id) {
                self.loads.sub(bin, weight);
                departed += 1;
            }
        }

        let arrivals = &batch.arrivals;
        let arrival_weight: u64 = arrivals.iter().map(|b| b.weight).sum();
        let projected_avg = (self.loads.total_load() + arrival_weight) as f64 / self.bins as f64;
        self.policy
            .begin_batch(self.batch_seq, arrival_weight, projected_avg);

        // Deterministic in (plan.seed, batch) only; zero when unarmed.
        let fault_mask = match &self.faults {
            Some(plan) if plan.has_domain_faults() => plan.failed_domains(self.batch_seq),
            _ => 0,
        };
        let redirects = AtomicU64::new(0);

        let touches = ShardedCounters::new(self.loads.shards());
        let placements = if self.policy.needs_live_loads() {
            self.place_live(arrivals, &touches, fault_mask, &redirects)
        } else {
            self.place_snapshot(arrivals, &touches, fault_mask, &redirects)
        };

        for (ball, &bin) in arrivals.iter().zip(&placements) {
            self.resident.insert(ball.id, (bin, ball.weight));
        }

        let record = BatchRecord {
            batch: self.batch_seq,
            arrivals: arrivals.len() as u64,
            departures: departed,
            arrival_weight,
            resident: self.resident.len() as u64,
            max_load: self.loads.max_load(),
            gap: self.loads.gap(),
            wall_nanos: start.map_or(0, |t| t.elapsed().as_nanos() as u64),
            shard_touches: touches.values(),
            failed_domains: u64::from(fault_mask.count_ones()),
            fault_redirects: redirects.into_inner(),
        };
        if let Some(sink) = &self.metrics {
            sink.on_batch(&self.meta(), &record);
        }
        self.batch_seq += 1;
        BatchOutcome { placements, record }
    }

    /// Sequential path for live-load policies: each placement is visible
    /// to the next decision (classic Greedy semantics, batch size 1).
    fn place_live(
        &mut self,
        arrivals: &[crate::Ball],
        touches: &ShardedCounters,
        fault_mask: u64,
        redirects: &AtomicU64,
    ) -> Vec<u32> {
        let faults = self.faults;
        let bins = self.bins;
        arrivals
            .iter()
            .enumerate()
            .map(|(i, ball)| {
                let mut rng = arrival_stream(self.seed, self.batch_seq, i as u64);
                let mut bin = self.policy.place(&self.loads, &mut rng);
                if fault_mask != 0 {
                    let live = faults.as_ref().unwrap().redirect(bin, fault_mask, bins);
                    if live != bin {
                        redirects.fetch_add(1, Ordering::Relaxed);
                        bin = live;
                    }
                }
                let (shard, _) = self.loads.locate(bin);
                self.loads.add(bin, ball.weight);
                touches.add(shard, 1);
                bin
            })
            .collect()
    }

    /// Snapshot path: decide every arrival against the batch-start loads
    /// (read-only, so decisions parallelize), then apply the commutative
    /// adds. Both stages run over one chunking of the batch on the same
    /// [`Backend`] the engine uses — [`Backend::Serial`] below the cutoff
    /// (or when parallel ingestion is off), the global pool otherwise.
    /// Placements are identical either way.
    fn place_snapshot(
        &mut self,
        arrivals: &[crate::Ball],
        touches: &ShardedCounters,
        fault_mask: u64,
        redirects: &AtomicU64,
    ) -> Vec<u32> {
        let seed = self.seed;
        let batch_seq = self.batch_seq;
        let faults = self.faults;
        let bins = self.bins;
        let decide = |i: usize| -> u32 {
            let mut rng = arrival_stream(seed, batch_seq, i as u64);
            let bin = self.policy.place(&self.loads, &mut rng);
            if fault_mask == 0 {
                return bin;
            }
            let live = faults.as_ref().unwrap().redirect(bin, fault_mask, bins);
            if live != bin {
                redirects.fetch_add(1, Ordering::Relaxed);
            }
            live
        };
        let plan = ChunkPlan::INGEST;
        let backend = if self.parallel && arrivals.len() >= plan.par_cutoff {
            Backend::Pool(global_pool())
        } else {
            Backend::Serial
        };
        let chunking = backend.chunking(arrivals.len(), plan.min_chunk);
        let mut placements = vec![0u32; arrivals.len()];
        {
            let view = DisjointIndexMut::new(&mut placements);
            backend.run(chunking.chunks(), |ci| {
                for i in chunking.range(ci) {
                    // SAFETY: chunk ranges partition `0..arrivals.len()`
                    // disjointly, so no two tasks write the same slot.
                    unsafe {
                        *view.index_mut(i) = decide(i);
                    }
                }
            });
        }
        let pairs: Vec<(u32, u64)> = placements
            .iter()
            .zip(arrivals)
            .map(|(&bin, ball)| (bin, ball.weight))
            .collect();
        self.loads.apply(backend, chunking, &pairs, touches);
        placements
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ball;
    use pba_core::EngineMetrics;

    #[test]
    fn ingest_places_every_arrival() {
        let mut alloc = StreamAllocator::new(16, 7, PolicyKind::TwoChoice);
        let out = alloc.ingest(&Batch::unit_arrivals(0, 160));
        assert_eq!(out.placements.len(), 160);
        assert!(out.placements.iter().all(|&b| b < 16));
        assert_eq!(out.record.arrivals, 160);
        assert_eq!(out.record.resident, 160);
        assert_eq!(alloc.bin_state().total_load(), 160);
    }

    #[test]
    fn departures_free_capacity() {
        let mut alloc = StreamAllocator::new(8, 1, PolicyKind::OneChoice);
        alloc.ingest(&Batch::unit_arrivals(0, 64));
        let out = alloc.ingest(&Batch {
            arrivals: vec![],
            departures: (0..32).collect(),
        });
        assert_eq!(out.record.departures, 32);
        assert_eq!(out.record.resident, 32);
        assert_eq!(alloc.bin_state().total_load(), 32);
        // Unknown ids are ignored, not double-counted.
        let out = alloc.ingest(&Batch {
            arrivals: vec![],
            departures: vec![0, 1, 999],
        });
        assert_eq!(out.record.departures, 0);
    }

    #[test]
    fn weighted_balls_contribute_weight() {
        let mut alloc = StreamAllocator::new(4, 2, PolicyKind::BatchedTwoChoice);
        let out = alloc.ingest(&Batch {
            arrivals: vec![Ball::weighted(0, 10), Ball::weighted(1, 3)],
            departures: vec![],
        });
        assert_eq!(out.record.arrival_weight, 13);
        assert_eq!(alloc.bin_state().total_load(), 13);
        alloc.ingest(&Batch {
            arrivals: vec![],
            departures: vec![0],
        });
        assert_eq!(alloc.bin_state().total_load(), 3);
    }

    #[test]
    fn metrics_sink_sees_batches_without_perturbing_placements() {
        let run = |sink: Option<Arc<EngineMetrics>>| {
            let mut alloc = StreamAllocator::new(32, 5, PolicyKind::BatchedTwoChoice);
            if let Some(s) = &sink {
                alloc = alloc.with_metrics(s.clone());
            }
            let mut all = Vec::new();
            for t in 0..4u64 {
                all.extend(alloc.ingest(&Batch::unit_arrivals(t * 100, 100)).placements);
            }
            all
        };
        let bare = run(None);
        let sink = Arc::new(EngineMetrics::new());
        let observed = run(Some(sink.clone()));
        assert_eq!(bare, observed, "sink must not perturb placements");
        let report = sink.report();
        assert_eq!(report.batches, 4);
        assert_eq!(report.batch_arrivals, 400);
        assert!(report.batch_nanos > 0, "attached sink must be timed");
    }

    #[test]
    fn shard_touches_cover_all_placements() {
        let mut alloc = StreamAllocator::new(64, 9, PolicyKind::OneChoice).with_shards(4);
        let out = alloc.ingest(&Batch::unit_arrivals(0, 500));
        assert_eq!(out.record.shard_touches.len(), 4);
        assert_eq!(out.record.shard_touches.iter().sum::<u64>(), 500);
    }

    #[test]
    fn domain_faults_redirect_off_failed_domains() {
        let plan = FaultPlan::new(0xFA01).with_shard_failures(8, 0.4);
        let mut alloc =
            StreamAllocator::new(64, 11, PolicyKind::BatchedTwoChoice).with_faults(plan);
        let mut saw_fault_batch = false;
        for t in 0..8u64 {
            let mask = plan.failed_domains(t);
            let out = alloc.ingest(&Batch::unit_arrivals(t * 1000, 640));
            assert_eq!(out.record.failed_domains, u64::from(mask.count_ones()));
            if mask != 0 {
                saw_fault_batch = true;
                for &bin in &out.placements {
                    assert_eq!(
                        (mask >> plan.domain_of(bin, 64)) & 1,
                        0,
                        "placement {bin} landed in a failed domain"
                    );
                }
            } else {
                assert_eq!(out.record.fault_redirects, 0);
            }
        }
        assert!(saw_fault_batch, "0.4 over 8 domains × 8 batches must fire");
    }

    #[test]
    fn faulted_placements_identical_across_shard_counts() {
        let plan = FaultPlan::new(7).with_shard_failures(4, 0.5);
        let run = |shards: usize| {
            let mut alloc = StreamAllocator::new(32, 3, PolicyKind::BatchedTwoChoice)
                .with_shards(shards)
                .with_faults(plan);
            let mut all = Vec::new();
            for t in 0..6u64 {
                all.extend(alloc.ingest(&Batch::unit_arrivals(t * 100, 100)).placements);
            }
            all
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn unfaulted_batches_report_zero_fault_fields() {
        let mut alloc = StreamAllocator::new(16, 4, PolicyKind::TwoChoice);
        let out = alloc.ingest(&Batch::unit_arrivals(0, 200));
        assert_eq!(out.record.failed_domains, 0);
        assert_eq!(out.record.fault_redirects, 0);
    }

    #[test]
    #[should_panic(expected = "reshard")]
    fn resharding_after_ingestion_panics() {
        let mut alloc = StreamAllocator::new(8, 0, PolicyKind::OneChoice);
        alloc.ingest(&Batch::unit_arrivals(0, 8));
        let _ = alloc.with_shards(2);
    }
}
