//! Sharded concurrent bin state: `ShardedLoads`.
//!
//! The streaming allocator keeps bin loads alive across batches, so unlike
//! the one-shot engine it cannot hand a single `&mut Vec` to one executor
//! invocation and forget it. Instead the `n` bins are range-partitioned
//! into `s` shards, each shard owning a contiguous `Vec<u64>` of loads.
//! During parallel batch application every pool task reinterprets the
//! shard vectors as atomic slices (via [`pba_par::as_atomic_u64`]) and
//! applies one chunk of placements with relaxed `fetch_add`s — commutative,
//! so the resulting loads are identical for **any** shard count and any
//! lane interleaving. A [`pba_par::ShardedCounters`] alongside tallies how
//! many placements landed in each shard's range: the per-batch
//! shard-contention signal reported through metrics.

use pba_core::{Backend, BinState};
use pba_par::{as_atomic_u64, CachePadded, Chunking, ShardedCounters};
use std::sync::atomic::Ordering;

/// Per-bin `u64` loads, range-partitioned into shards.
///
/// Bin `b` lives in shard `b * s / n` (balanced ranges); lookups go
/// through [`Self::locate`]. Implements [`BinState`], so gap/max-load
/// accounting is shared with the one-shot engine.
#[derive(Debug, Clone)]
pub(crate) struct ShardedLoads {
    bins: u32,
    /// Cumulative start bin of each shard, plus a final `bins` sentinel.
    starts: Vec<u32>,
    /// One contiguous load vector per shard, each header on its own cache
    /// line so concurrent lanes applying to adjacent shards never
    /// false-share the shard metadata.
    shards: Vec<CachePadded<Vec<u64>>>,
}

impl ShardedLoads {
    /// All-zero loads for `bins` bins split into `shards` ranges.
    ///
    /// `shards` is clamped to `[1, bins]` — an empty shard would make the
    /// atomic view vacuous and the contention signal misleading.
    pub(crate) fn new(bins: u32, shards: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        let s = shards.clamp(1, bins as usize);
        let starts: Vec<u32> = (0..=s)
            .map(|i| ((i as u64 * bins as u64) / s as u64) as u32)
            .collect();
        let shard_vecs = starts
            .windows(2)
            .map(|w| CachePadded::new(vec![0u64; (w[1] - w[0]) as usize]))
            .collect();
        Self {
            bins,
            starts,
            shards: shard_vecs,
        }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `bin`, and the bin's offset within it.
    #[inline]
    pub(crate) fn locate(&self, bin: u32) -> (usize, usize) {
        debug_assert!(bin < self.bins);
        let s = (bin as u64 * self.shards.len() as u64 / self.bins as u64) as usize;
        // Balanced ranges make the multiplicative guess exact or off by
        // one; correct against the start table.
        let s = if bin < self.starts[s] {
            s - 1
        } else if bin >= self.starts[s + 1] {
            s + 1
        } else {
            s
        };
        (s, (bin - self.starts[s]) as usize)
    }

    /// Add `weight` to `bin` (single-threaded ingestion path).
    #[inline]
    pub(crate) fn add(&mut self, bin: u32, weight: u64) {
        let (s, i) = self.locate(bin);
        self.shards[s][i] += weight;
    }

    /// Remove `weight` from `bin` (departures; saturating guards against
    /// a corrupted resident map ever underflowing a bin).
    #[inline]
    pub(crate) fn sub(&mut self, bin: u32, weight: u64) {
        let (s, i) = self.locate(bin);
        self.shards[s][i] = self.shards[s][i].saturating_sub(weight);
    }

    /// Apply a batch of `(bin, weight)` placements on the given backend,
    /// one task per chunk of `chunking` (a partition of
    /// `0..placements.len()`).
    ///
    /// On [`Backend::Pool`] chunks run concurrently, adding through atomic
    /// views of the shard vectors; on [`Backend::Serial`] the same loop
    /// runs inline on the calling thread. `touches` (when sized to
    /// [`Self::shards`]) receives one count per placement keyed by the
    /// *owning shard* — the contention distribution. Additions are
    /// relaxed `fetch_add`s, so the final loads are identical for any
    /// backend, chunking, lane count or shard count.
    pub(crate) fn apply(
        &mut self,
        backend: Backend<'_>,
        chunking: Chunking,
        placements: &[(u32, u64)],
        touches: &ShardedCounters,
    ) {
        assert_eq!(
            chunking.len(),
            placements.len(),
            "chunking must cover the batch"
        );
        let starts = &self.starts;
        let bins = self.bins;
        let shards = self.shards.len();
        let views: Vec<&[std::sync::atomic::AtomicU64]> =
            self.shards.iter_mut().map(|v| as_atomic_u64(v)).collect();
        backend.run(chunking.chunks(), |ci| {
            for &(bin, weight) in &placements[chunking.range(ci)] {
                let mut s = (bin as u64 * shards as u64 / bins as u64) as usize;
                if bin < starts[s] {
                    s -= 1;
                } else if bin >= starts[s + 1] {
                    s += 1;
                }
                views[s][(bin - starts[s]) as usize].fetch_add(weight, Ordering::Relaxed);
                touches.add(s, 1);
            }
        });
    }
}

impl BinState for ShardedLoads {
    #[inline]
    fn bins(&self) -> u32 {
        self.bins
    }

    #[inline]
    fn load(&self, bin: u32) -> u64 {
        let (s, i) = self.locate(bin);
        self.shards[s][i]
    }

    fn total_load(&self) -> u64 {
        self.shards.iter().map(|v| v.iter().sum::<u64>()).sum()
    }

    fn max_load(&self) -> u64 {
        self.shards
            .iter()
            .filter_map(|v| v.iter().copied().max())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_par::ThreadPool;

    #[test]
    fn locate_is_a_bijection() {
        for shards in [1usize, 2, 3, 8, 13] {
            let loads = ShardedLoads::new(100, shards);
            let mut seen = std::collections::HashSet::new();
            for bin in 0..100 {
                let (s, i) = loads.locate(bin);
                assert!(s < loads.shards(), "bin {bin} shard {s}");
                assert!(i < loads.shards[s].len());
                assert!(seen.insert((s, i)), "bin {bin} collided");
            }
        }
    }

    #[test]
    fn add_sub_roundtrip_across_shard_counts() {
        for shards in [1usize, 2, 8] {
            let mut loads = ShardedLoads::new(64, shards);
            loads.add(0, 5);
            loads.add(63, 7);
            loads.add(31, 1);
            loads.sub(63, 3);
            assert_eq!(loads.load(0), 5);
            assert_eq!(loads.load(63), 4);
            assert_eq!(loads.load(31), 1);
            assert_eq!(loads.total_load(), 10);
            assert_eq!(loads.max_load(), 5);
        }
    }

    #[test]
    fn sub_saturates() {
        let mut loads = ShardedLoads::new(4, 2);
        loads.add(1, 2);
        loads.sub(1, 10);
        assert_eq!(loads.load(1), 0);
    }

    #[test]
    fn shard_count_clamped_to_bins() {
        let loads = ShardedLoads::new(3, 16);
        assert_eq!(loads.shards(), 3);
        let loads = ShardedLoads::new(3, 0);
        assert_eq!(loads.shards(), 1);
    }

    #[test]
    fn parallel_apply_matches_sequential() {
        let pool = ThreadPool::new(3);
        let placements: Vec<(u32, u64)> = (0..10_000u32)
            .map(|i| (i % 97, 1 + (i % 3) as u64))
            .collect();
        let mut seq = ShardedLoads::new(97, 4);
        let mut par = ShardedLoads::new(97, 4);
        let t_seq = ShardedCounters::new(4);
        let t_par = ShardedCounters::new(4);
        let (serial, pooled) = (Backend::Serial, Backend::Pool(&pool));
        seq.apply(
            serial,
            serial.chunking(placements.len(), 1),
            &placements,
            &t_seq,
        );
        par.apply(
            pooled,
            pooled.chunking(placements.len(), 64),
            &placements,
            &t_par,
        );
        assert_eq!(seq.load_vector(), par.load_vector());
        assert_eq!(t_seq.values(), t_par.values());
        assert_eq!(t_seq.total(), 10_000);
    }
}
