//! # `pba-stream` — online batched balls-into-bins allocation
//!
//! The one-shot crates answer "place `m` balls, report the gap, exit".
//! This crate is the online counterpart: a long-lived [`StreamAllocator`]
//! that ingests [`Batch`]es of weighted arrivals and departures (churn)
//! against one persistent vector of bin loads — the balls-into-bins
//! abstraction of a request router that never stops receiving traffic. It
//! reproduces the *batched* model of Los & Sauerwald ("Balanced
//! Allocations in Batches"): all balls of a batch decide from the same
//! stale load snapshot, so the two-choice gap grows with the batch size
//! `b` — the price of parallel placement decisions. The batch is the
//! parallelism: its decisions read only the batch-start loads, so they
//! fan out over [`pba_par::ThreadPool`] lanes, and their weights land
//! through relaxed atomic adds on the same vector
//! ([`pba_par::as_atomic_u64`]).
//!
//! ## Pieces
//!
//! * [`StreamAllocator`] — ingestion, resident-ball tracking, metrics;
//!   its `Vec<u64>` of loads shares load accounting with the engine via
//!   [`pba_core::BinState`].
//! * Policies ([`PlacementPolicy`]): [`OneChoice`], [`TwoChoice`] (live
//!   loads, sequential), [`BatchedTwoChoice`] (stale snapshot, parallel),
//!   and [`Threshold`] (the heavy-case undershoot schedule of
//!   `pba-protocols`, refreshed per batch).
//! * [`Workload`] — deterministic synthetic traffic: uniform, Zipf-skewed
//!   weights, bursts; churn; weighted balls ([`WeightDist`]).
//! * [`ReplayService`] — the production facade: a worker thread owning the
//!   allocator behind a bounded backpressure queue, with per-checkpoint
//!   latency percentiles ([`LatencyHistogram`]) and graceful drain.
//! * [`ingest`] — socket ingestion: [`IngestFrame`]s carry real traffic
//!   to a listening allocator over the binary wire codec
//!   ([`pba_core::wire`]), bit-identical to in-process ingestion.
//! * Snapshot/restore ([`StreamAllocator::snapshot`] /
//!   [`StreamAllocator::restore`]) — the full allocator state to framed,
//!   checksummed bytes; a restored session continues bit-identically.
//!
//! ## Determinism
//!
//! Arrival `i` of batch `t` owns the counter-based stream
//! `arrival_stream(seed, t, i)`; snapshot policies decide from
//! batch-start loads only, and load updates are commutative atomic adds.
//! Placements are therefore identical across lane counts and
//! sequential-vs-parallel ingestion, and the cluster's shard worker
//! processes (`pba-cluster`) reproduce the same loads at every worker
//! count — verified by the equivalence tests in `tests/`.
//!
//! ## Example
//!
//! ```
//! use pba_stream::{PolicyKind, StreamAllocator, Workload, WorkloadCfg};
//!
//! let n = 256;
//! let mut alloc = StreamAllocator::new(n, 42, PolicyKind::BatchedTwoChoice);
//! let mut traffic = Workload::new(WorkloadCfg::uniform(4 * n as u64), 42);
//! for _ in 0..8 {
//!     alloc.ingest(&traffic.next_batch());
//! }
//! let gap = alloc.bin_state().gap();
//! assert!(gap <= 10, "batched two-choice gap {gap} out of range");
//! ```

pub mod allocator;
pub mod batch;
pub mod hist;
pub mod ingest;
pub mod policy;
pub mod service;
pub mod snapshot;
pub mod workload;

pub use allocator::StreamAllocator;
pub use batch::{Ball, Batch, BatchOutcome};
pub use hist::LatencyHistogram;
pub use ingest::{IngestFrame, IngestSummary};
pub use policy::{BatchedTwoChoice, OneChoice, PlacementPolicy, PolicyKind, Threshold, TwoChoice};
pub use service::{replay, ReplayService, ServiceConfig, ServiceReport};
pub use workload::{WeightDist, Workload, WorkloadCfg, WorkloadKind};

use pba_core::SplitMix64;

/// The random stream owned by arrival `index` of batch `batch`.
///
/// The streaming analogue of [`pba_core::ball_stream`]: stateless, so any
/// lane can regenerate any arrival's draws, with a distinct salt so
/// streams never collide with the engine's per-round streams.
#[inline]
pub(crate) fn arrival_stream(seed: u64, batch: u64, index: u64) -> SplitMix64 {
    let a = SplitMix64::mix(seed ^ 0xB5297A4D3F84D5B5 ^ batch.wrapping_mul(0xA24BAED4963EE407));
    let b = SplitMix64::mix(a ^ index.wrapping_mul(0x9FB21C651E98DF25));
    SplitMix64::new(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::rng::Rand64;

    #[test]
    fn arrival_streams_are_reproducible_and_distinct() {
        let mut a = arrival_stream(1, 5, 10);
        let mut b = arrival_stream(1, 5, 10);
        let mut c = arrival_stream(1, 5, 11);
        let mut d = arrival_stream(1, 6, 10);
        let x = a.next_u64();
        assert_eq!(x, b.next_u64());
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn arrival_stream_first_draw_is_roughly_uniform() {
        let n = 32u32;
        let mut counts = vec![0u32; n as usize];
        for i in 0..64_000u64 {
            let mut s = arrival_stream(9, 3, i);
            counts[s.below(n) as usize] += 1;
        }
        let expected = 64_000.0 / n as f64;
        for &c in &counts {
            assert!((c as f64 - expected).abs() / expected < 0.1, "count {c}");
        }
    }
}
