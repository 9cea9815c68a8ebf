//! Steady-state allocation discipline, enforced by a counting global
//! allocator.
//!
//! The engine's contract after the unified-executor refactor: once the
//! per-lane scratch arenas and claim table are warm (round 0, plus one
//! round of slack: each of the two survivor lists is reserved to its
//! round's survivors in round 0 or 1, and the active set only shrinks),
//! a parallel round performs **zero** heap allocations — gather, scan,
//! grant and resolve all run in reused storage, and the pool's job slot
//! dispatch is allocation-free. The streaming allocator is softer: a
//! batch builds its placement and pair vectors fresh, but the count is
//! small and bounded, and the resident map stops growing under steady
//! churn.
//!
//! Everything lives in one `#[test]` so the counter is never polluted by
//! a concurrently running sibling test in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pba::core::{RoundRecord, RoundTiming, RunMeta};
use pba::prelude::*;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every acquisition.
struct CountingAlloc;

// SAFETY: all four methods forward verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter side effect touches no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: ptr/layout come from a prior `alloc` through this same
        // forwarding wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a prior `alloc` through this same
        // forwarding wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Records the global allocation counter at the end of every round into
/// pre-reserved storage (so the recording itself never allocates).
struct AllocSnapshots {
    snaps: Mutex<Vec<u64>>,
}

impl AllocSnapshots {
    fn new() -> Self {
        Self {
            snaps: Mutex::new(Vec::with_capacity(64)),
        }
    }
}

impl MetricsSink for AllocSnapshots {
    fn on_round(&self, _meta: &RunMeta, _record: &RoundRecord, _timing: &RoundTiming) {
        let mut snaps = self.snaps.lock().unwrap();
        assert!(snaps.len() < snaps.capacity(), "snapshot storage too small");
        snaps.push(ALLOCS.load(Ordering::Relaxed));
    }
}

#[test]
fn parallel_rounds_and_stream_batches_stay_allocation_free() {
    engine_rounds_allocate_nothing_after_warmup();
    stream_batches_allocate_a_bounded_amount();
    latency_histogram_record_path_allocates_nothing();
}

/// Engine half: a multi-round collision run on a 5-lane executor, with
/// the chunk geometry lowered so an 8192-ball instance genuinely fans
/// out. Rounds 0 and 1 may allocate (scratch arenas, capacity growth);
/// every later round must allocate exactly nothing.
fn engine_rounds_allocate_nothing_after_warmup() {
    let spec = ProblemSpec::new(1 << 13, 1 << 13).unwrap();
    let sink = Arc::new(AllocSnapshots::new());
    let cfg = RunConfig::seeded(7)
        .with_executor(ExecutorKind::ParallelWith(4))
        .with_chunk_plan(ChunkPlan::new(512, 1024))
        .with_trace(false)
        .with_metrics(sink.clone());
    let out = Simulator::new(spec, cfg).run(Collision::new(spec)).unwrap();
    assert_eq!(out.load_stats().total(), 1 << 13);

    let snaps = sink.snaps.lock().unwrap();
    assert!(
        snaps.len() >= 4,
        "need several rounds to observe a steady state, got {}",
        snaps.len()
    );
    for r in 2..snaps.len() {
        assert_eq!(
            snaps[r],
            snaps[r - 1],
            "round {r} allocated {} time(s); steady-state rounds must not \
             touch the heap",
            snaps[r] - snaps[r - 1]
        );
    }
}

/// Stream half: steady churn (every batch's arrivals depart in the next
/// batch) through the parallel snapshot path. Each batch builds a few
/// bounded vectors, so the per-batch count must be small and flat — no
/// per-arrival allocations, no unbounded resident-map growth.
fn stream_batches_allocate_a_bounded_amount() {
    const B: u64 = 16 * 1024; // ≥ the allocator's 8 Ki parallel cutoff
    const BATCHES: u64 = 8;

    let mut alloc = StreamAllocator::new(512, 11, PolicyKind::BatchedTwoChoice).parallel();

    // Pre-build every batch so test-side construction never counts.
    let batches: Vec<Batch> = (0..BATCHES)
        .map(|t| {
            let mut b = Batch::unit_arrivals(t * B, B);
            if t > 0 {
                b.departures = ((t - 1) * B..t * B).collect();
            }
            b
        })
        .collect();

    let mut per_batch = Vec::with_capacity(BATCHES as usize);
    for batch in &batches {
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = alloc.ingest(batch);
        assert_eq!(out.placements.len(), B as usize);
        per_batch.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    assert_eq!(alloc.resident(), B, "steady churn keeps residency flat");

    // Batches 0–1 warm the resident map and the global pool; after that
    // each batch may build its handful of output vectors but nothing
    // proportional to the arrival count.
    for (t, &count) in per_batch.iter().enumerate().skip(2) {
        assert!(
            count <= 64,
            "batch {t} allocated {count} times; expected a small bounded \
             number (placement/pair/touch vectors only)"
        );
    }
}

/// Histogram half: the service records one latency per placed ball, so
/// the record path sits on the hot loop and must never touch the heap —
/// the histogram is a fixed `[u64; 64]` with scalar side state. Quantile
/// reads and merges are allocation-free too.
fn latency_histogram_record_path_allocates_nothing() {
    let mut hist = LatencyHistogram::new();
    let mut other = LatencyHistogram::new();
    other.record(123);

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        hist.record(i.wrapping_mul(0x9E37_79B9) % (1 << 30));
    }
    hist.record_n(42, 1_000_000);
    hist.merge(&other);
    let q = hist.p50() + hist.p99() + hist.p999() + hist.max();
    let after = ALLOCS.load(Ordering::Relaxed);
    assert!(q > 0, "quantiles over recorded data are positive");
    assert_eq!(
        after - before,
        0,
        "latency histogram record/merge/quantile path must not allocate"
    );
}
