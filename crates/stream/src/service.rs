//! The production service facade: a long-lived replay loop around
//! [`StreamAllocator`].
//!
//! [`ReplayService`] owns the allocator on a dedicated worker thread and
//! feeds it through a **bounded** ingestion queue — the shape of the
//! simulator-with-a-thread-pool exemplar the repo's service design
//! follows: submission handle in front, liveness owned by the worker,
//! graceful drain at the end.
//!
//! * **Backpressure, never drop**: the queue is a rendezvous
//!   [`sync_channel`] of configurable capacity. A full queue *blocks* the
//!   submitter until the worker catches up; no ball is ever dropped or
//!   reordered (single FIFO consumer), so service-path placements are
//!   bit-identical to calling [`StreamAllocator::ingest`] directly.
//! * **Pipelined admission**: while the worker resolves batch `k` (on the
//!   global pool, for parallel snapshot policies), the driver thread is
//!   already gathering batch `k+1` from the [`Workload`] generator — the
//!   queue capacity is the pipeline depth.
//! * **Latency accounting**: each submitted batch carries its enqueue
//!   instant; when its placements land, the elapsed time is charged to
//!   every ball of the batch in a log₂ [`LatencyHistogram`]. Every
//!   `checkpoint_every` batches the window closes into a
//!   [`ServiceRecord`] (p50/p99/p999/max latency, gap, window wall time)
//!   delivered to the allocator's [`MetricsSink`](pba_core::MetricsSink)
//!   via `on_service`.
//! * **Snapshot at a checkpoint**: [`ServiceConfig::snapshot_at`] makes
//!   the worker serialize the allocator right after the named batch —
//!   between batches, so the captured state is exactly what the next
//!   batch would have seen. Restoring it and replaying the remaining
//!   batches reproduces the uninterrupted run bit for bit.
//! * **Graceful drain**: dropping the submission side closes the queue;
//!   the worker flushes every queued batch, closes the final partial
//!   checkpoint window, and hands back the allocator plus a
//!   [`ServiceReport`].
//!
//! The latency clock is always read — a latency service is *for*
//! measurement — but clocks never influence placement, so determinism is
//! untouched.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use pba_core::{ServiceMeta, ServiceRecord};

use crate::batch::Batch;
use crate::hist::LatencyHistogram;
use crate::workload::Workload;
use crate::StreamAllocator;

/// Shape of a [`ReplayService`] session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Bounded ingestion-queue capacity (≥ 1). Submitters block when the
    /// queue is full — backpressure, never load shedding. Also the
    /// admission pipeline depth.
    pub queue_capacity: usize,
    /// Batches per checkpoint window (≥ 1); each window closes into one
    /// [`ServiceRecord`].
    pub checkpoint_every: u64,
    /// Take a state snapshot right after this many batches have been
    /// ingested (`Some(k)` → between batch `k-1` and batch `k`,
    /// 1-indexed by count). The bytes land in [`ServiceReport::snapshot`].
    pub snapshot_at: Option<u64>,
    /// Keep every batch's placement vector in the report (tests; costs
    /// memory proportional to the replay).
    pub keep_placements: bool,
    /// Target replay rate in balls/sec carried in [`ServiceMeta`] for
    /// observability (`0.0` = unthrottled). Pacing itself is the
    /// *driver's* job — see [`replay`].
    pub rate: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 4,
            checkpoint_every: 16,
            snapshot_at: None,
            keep_placements: false,
            rate: 0.0,
        }
    }
}

impl ServiceConfig {
    /// Set the bounded queue capacity (pipeline depth).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Set the checkpoint window length in batches.
    pub fn with_checkpoint_every(mut self, batches: u64) -> Self {
        self.checkpoint_every = batches;
        self
    }

    /// Snapshot the allocator after `batches` ingested batches.
    pub fn with_snapshot_at(mut self, batches: u64) -> Self {
        self.snapshot_at = Some(batches);
        self
    }

    /// Retain per-batch placement vectors in the report.
    pub fn with_placements(mut self) -> Self {
        self.keep_placements = true;
        self
    }

    /// Record the target replay rate (balls/sec) in the session meta.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }
}

/// Everything a drained service session hands back.
#[derive(Debug, Default)]
pub struct ServiceReport {
    /// One record per closed checkpoint window, in order (the last one
    /// may cover a partial window flushed at drain).
    pub checkpoints: Vec<ServiceRecord>,
    /// Placement-latency histogram over the whole session.
    pub total: LatencyHistogram,
    /// Batches ingested.
    pub batches: u64,
    /// Balls placed.
    pub balls: u64,
    /// Arrivals redirected away from failed domains, summed over the
    /// session (the allocator reports these per batch only).
    pub fault_redirects: u64,
    /// Batches that saw at least one failed domain.
    pub degraded_batches: u64,
    /// `(batches ingested when taken, bytes)` of the state snapshot, when
    /// [`ServiceConfig::snapshot_at`] was set and reached.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Per-batch placements (only with [`ServiceConfig::keep_placements`]).
    pub placements: Vec<Vec<u32>>,
    /// Wall-clock nanoseconds from service start to drain.
    pub wall_nanos: u64,
}

/// One queued unit of work: the batch plus its enqueue instant.
struct Job {
    batch: Batch,
    enqueued: Instant,
}

/// A running replay service. Construct with [`start`](Self::start),
/// submit batches (blocking on backpressure), then [`drain`](Self::drain)
/// to get the allocator and the session report back.
///
/// # Examples
///
/// ```
/// use pba_stream::{Batch, PolicyKind, ReplayService, ServiceConfig, StreamAllocator};
///
/// let alloc = StreamAllocator::new(64, 42, PolicyKind::BatchedTwoChoice);
/// let service = ReplayService::start(alloc, ServiceConfig::default().with_checkpoint_every(2));
/// for t in 0..4u64 {
///     service.submit(Batch::unit_arrivals(t * 128, 128));
/// }
/// let (alloc, report) = service.drain();
/// assert_eq!(report.batches, 4);
/// assert_eq!(report.balls, 512);
/// assert_eq!(alloc.resident(), 512);
/// assert_eq!(report.checkpoints.len(), 2);
/// ```
pub struct ReplayService {
    tx: Option<SyncSender<Job>>,
    worker: Option<JoinHandle<(StreamAllocator, ServiceReport)>>,
}

impl ReplayService {
    /// Move `alloc` onto a dedicated worker thread behind a bounded
    /// queue. Checkpoint records go to the allocator's metrics sink (if
    /// any) through [`MetricsSink::on_service`].
    ///
    /// [`MetricsSink::on_service`]: pba_core::MetricsSink::on_service
    pub fn start(alloc: StreamAllocator, cfg: ServiceConfig) -> Self {
        assert!(cfg.queue_capacity >= 1, "queue needs capacity for a batch");
        assert!(cfg.checkpoint_every >= 1, "checkpoint window must be ≥ 1");
        let (tx, rx) = sync_channel::<Job>(cfg.queue_capacity);
        let worker = thread::Builder::new()
            .name("pba-serve".into())
            .spawn(move || worker_loop(alloc, rx, cfg))
            .expect("spawn service worker");
        Self {
            tx: Some(tx),
            worker: Some(worker),
        }
    }

    /// Submit one batch, blocking while the queue is full (backpressure).
    /// Batches resolve strictly in submission order.
    ///
    /// # Panics
    ///
    /// Panics if the worker died (its panic is the root cause; drain
    /// would surface it too).
    pub fn submit(&self, batch: Batch) {
        let job = Job {
            batch,
            enqueued: Instant::now(),
        };
        self.tx
            .as_ref()
            .expect("submission side already closed")
            .send(job)
            .expect("service worker died mid-session");
    }

    /// Close the queue, let the worker flush every in-flight batch and
    /// the final partial checkpoint window, and hand back the allocator
    /// with the session report.
    pub fn drain(mut self) -> (StreamAllocator, ServiceReport) {
        drop(self.tx.take());
        self.worker
            .take()
            .expect("drain is called once")
            .join()
            .expect("service worker panicked")
    }
}

impl Drop for ReplayService {
    /// Dropping without [`drain`](Self::drain) still shuts down cleanly:
    /// close the queue, join the worker, discard the report.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The open checkpoint window: everything its [`ServiceRecord`] reports
/// that the allocator does not know.
struct Window {
    checkpoint: u64,
    latency: LatencyHistogram,
    batches: u64,
    balls: u64,
    snapshot_bytes: u64,
    start: Instant,
}

impl Window {
    fn open(checkpoint: u64) -> Self {
        Window {
            checkpoint,
            latency: LatencyHistogram::new(),
            batches: 0,
            balls: 0,
            snapshot_bytes: 0,
            start: Instant::now(),
        }
    }

    /// Close the window into its record, hand the record to the sink and
    /// the report, and open the next window.
    fn close(&mut self, alloc: &StreamAllocator, meta: &ServiceMeta, report: &mut ServiceReport) {
        let record = ServiceRecord {
            checkpoint: self.checkpoint,
            batches: self.batches,
            balls: self.balls,
            resident: alloc.resident(),
            max_load: alloc.bin_state().max_load(),
            gap: alloc.bin_state().gap(),
            p50_nanos: self.latency.p50(),
            p99_nanos: self.latency.p99(),
            p999_nanos: self.latency.p999(),
            max_nanos: self.latency.max(),
            wall_nanos: self.start.elapsed().as_nanos() as u64,
            snapshot_bytes: self.snapshot_bytes,
        };
        if let Some(sink) = &alloc.metrics {
            sink.on_service(meta, &record);
        }
        report.checkpoints.push(record);
        *self = Window::open(self.checkpoint + 1);
    }
}

fn worker_loop(
    mut alloc: StreamAllocator,
    rx: Receiver<Job>,
    cfg: ServiceConfig,
) -> (StreamAllocator, ServiceReport) {
    let stream_meta = alloc.meta();
    let meta = ServiceMeta {
        bins: stream_meta.bins,
        seed: stream_meta.seed,
        policy: stream_meta.policy,
        queue: cfg.queue_capacity,
        rate: cfg.rate,
    };

    let started = Instant::now();
    let mut report = ServiceReport::default();
    let mut window = Window::open(0);

    while let Ok(job) = rx.recv() {
        let out = alloc.ingest(&job.batch);
        let latency = job.enqueued.elapsed().as_nanos() as u64;
        let balls = out.record.arrivals;
        window.latency.record_n(latency, balls);
        report.total.record_n(latency, balls);
        report.batches += 1;
        report.balls += balls;
        report.fault_redirects += out.record.fault_redirects;
        if out.record.failed_domains > 0 {
            report.degraded_batches += 1;
        }
        window.batches += 1;
        window.balls += balls;
        if cfg.keep_placements {
            report.placements.push(out.placements);
        }

        // Checkpoint the state *between* batches: what the snapshot holds
        // is exactly what the next batch would have decided against.
        if cfg.snapshot_at == Some(report.batches) {
            let bytes = alloc.snapshot();
            window.snapshot_bytes = bytes.len() as u64;
            report.snapshot = Some((report.batches, bytes));
        }

        if window.batches == cfg.checkpoint_every {
            window.close(&alloc, &meta, &mut report);
        }
    }

    // Queue closed: every submitted batch has been flushed. Close the
    // final partial window so no latency sample is silently lost.
    if window.batches > 0 {
        window.close(&alloc, &meta, &mut report);
    }
    report.wall_nanos = started.elapsed().as_nanos() as u64;
    (alloc, report)
}

/// Replay `batches` [`Workload`] batches through a service session,
/// pacing submissions toward [`ServiceConfig::rate`] balls/sec (0 =
/// unthrottled), and drain.
///
/// This is the pipelined driver: batch `k+1` is generated on the calling
/// thread while the worker resolves batch `k`. Pacing only delays
/// *submission*; placements are a pure function of the workload and the
/// allocator state, so the replay is bit-identical at every rate.
pub fn replay(
    alloc: StreamAllocator,
    traffic: &mut Workload,
    batches: u64,
    cfg: ServiceConfig,
) -> (StreamAllocator, ServiceReport) {
    let service = ReplayService::start(alloc, cfg);
    let start = Instant::now();
    let mut submitted_balls = 0u64;
    for _ in 0..batches {
        let batch = traffic.next_batch();
        if cfg.rate > 0.0 {
            // Submit batch t no earlier than its schedule under the
            // target rate; sleeping here (not in the worker) keeps the
            // queue the pipeline, not the throttle.
            let due = Duration::from_secs_f64(submitted_balls as f64 / cfg.rate);
            let elapsed = start.elapsed();
            if due > elapsed {
                thread::sleep(due - elapsed);
            }
        }
        submitted_balls += batch.arrivals.len() as u64;
        service.submit(batch);
    }
    service.drain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, WorkloadCfg};
    use pba_core::EngineMetrics;
    use std::sync::Arc;

    #[test]
    fn service_placements_match_direct_ingest() {
        let run_direct = || {
            let mut alloc = StreamAllocator::new(64, 5, PolicyKind::BatchedTwoChoice);
            let mut traffic = Workload::new(WorkloadCfg::uniform(256), 5);
            (0..6)
                .map(|_| alloc.ingest(&traffic.next_batch()).placements)
                .collect::<Vec<_>>()
        };
        let alloc = StreamAllocator::new(64, 5, PolicyKind::BatchedTwoChoice);
        let mut traffic = Workload::new(WorkloadCfg::uniform(256), 5);
        let (_, report) = replay(
            alloc,
            &mut traffic,
            6,
            ServiceConfig::default().with_placements(),
        );
        assert_eq!(report.placements, run_direct());
    }

    #[test]
    fn checkpoints_cover_every_batch_and_report_quantiles() {
        let sink = Arc::new(EngineMetrics::new());
        let alloc = StreamAllocator::new(32, 9, PolicyKind::OneChoice).with_metrics(sink.clone());
        let mut traffic = Workload::new(WorkloadCfg::uniform(100), 9);
        let cfg = ServiceConfig::default().with_checkpoint_every(3);
        let (_, report) = replay(alloc, &mut traffic, 7, cfg);

        // 3 + 3 + 1 (partial window flushed at drain).
        assert_eq!(report.checkpoints.len(), 3);
        let batches: u64 = report.checkpoints.iter().map(|c| c.batches).sum();
        assert_eq!(batches, 7);
        let balls: u64 = report.checkpoints.iter().map(|c| c.balls).sum();
        assert_eq!(balls, 700);
        assert_eq!(report.total.count(), 700);
        for (i, c) in report.checkpoints.iter().enumerate() {
            assert_eq!(c.checkpoint, i as u64);
            assert!(c.p50_nanos <= c.p99_nanos, "checkpoint {i}");
            assert!(c.p99_nanos <= c.p999_nanos, "checkpoint {i}");
            assert!(c.p999_nanos <= c.max_nanos, "checkpoint {i}");
            assert!(c.max_nanos > 0, "latencies are really measured");
        }
        let r = sink.report();
        assert_eq!(r.service_checkpoints, 3);
        assert_eq!(r.service_balls, 700);
        assert_eq!(r.batches, 7, "batch events still flow to the sink");
    }

    #[test]
    fn snapshot_at_lands_in_report_and_window_record() {
        let alloc = StreamAllocator::new(16, 1, PolicyKind::Threshold);
        let mut traffic = Workload::new(WorkloadCfg::uniform(64), 1);
        let cfg = ServiceConfig::default()
            .with_checkpoint_every(2)
            .with_snapshot_at(4);
        let (_, report) = replay(alloc, &mut traffic, 6, cfg);
        let (at, bytes) = report.snapshot.as_ref().expect("snapshot taken");
        assert_eq!(*at, 4);
        let restored = StreamAllocator::restore(bytes).expect("snapshot restores");
        assert_eq!(restored.batches(), 4);
        // The snapshot was taken in the second window (batches 3..4).
        assert_eq!(report.checkpoints[1].snapshot_bytes, bytes.len() as u64);
        assert_eq!(report.checkpoints[0].snapshot_bytes, 0);
    }

    #[test]
    fn rate_limited_replay_is_still_bit_identical() {
        let run = |rate: f64| {
            let alloc = StreamAllocator::new(32, 3, PolicyKind::BatchedTwoChoice);
            let mut traffic = Workload::new(WorkloadCfg::uniform(64).with_churn(0.5), 3);
            let cfg = ServiceConfig::default().with_placements().with_rate(rate);
            let (alloc, report) = replay(alloc, &mut traffic, 4, cfg);
            (alloc.bin_state().load_vector(), report.placements)
        };
        assert_eq!(run(0.0), run(50_000.0));
    }

    #[test]
    fn dropping_without_drain_shuts_down_cleanly() {
        let alloc = StreamAllocator::new(8, 0, PolicyKind::OneChoice);
        let service = ReplayService::start(alloc, ServiceConfig::default());
        service.submit(Batch::unit_arrivals(0, 16));
        drop(service);
    }
}
