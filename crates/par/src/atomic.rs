//! Atomic views over plain integer slices, and sharded counters.
//!
//! The engine keeps bin loads and slot counters as plain `Vec<u32>` so the
//! sequential executor pays no atomic cost; the parallel executor
//! reinterprets the same storage as `&[AtomicU32]` for the duration of a
//! round. This is sound because the integer and atomic types have identical
//! layout and the caller holds the unique `&mut` borrow.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// View a mutable `u32` slice as a slice of atomics.
///
/// Layout-compatible per the standard library's guarantee that
/// `AtomicU32` has the same in-memory representation as `u32`.
#[inline]
pub fn as_atomic_u32(data: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: AtomicU32 has the same size and alignment as u32 and the
    // exclusive borrow is handed off to the returned shared-atomic view.
    unsafe { &*(data as *mut [u32] as *const [AtomicU32]) }
}

/// View a mutable `u64` slice as a slice of atomics.
#[inline]
pub fn as_atomic_u64(data: &mut [u64]) -> &[AtomicU64] {
    // SAFETY: as `as_atomic_u32`.
    unsafe { &*(data as *mut [u64] as *const [AtomicU64]) }
}

/// A `T` padded out to its own cache line (64-byte aligned).
///
/// Lane-owned state laid out contiguously (per-lane counters, per-shard
/// load arrays) otherwise shares cache lines at shard boundaries, and
/// concurrent writers false-share: every store invalidates the neighbor
/// lane's line. Wrapping each element in `CachePadded` gives every shard
/// its own line. Access the inner value through `Deref`/`DerefMut` — the
/// wrapper is transparent at use sites.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> CachePadded<T> {
    /// Wrap `value` in its own cache line.
    #[inline]
    pub const fn new(value: T) -> Self {
        CachePadded(value)
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T> From<T> for CachePadded<T> {
    #[inline]
    fn from(value: T) -> Self {
        CachePadded(value)
    }
}

/// Per-shard `u64` counters merged on demand.
///
/// Useful when contention on a single atomic would serialize workers:
/// each lane increments its own cache-line-padded shard and the total is
/// computed once per round.
pub struct ShardedCounters {
    shards: Vec<CachePadded<AtomicU64>>,
}

impl ShardedCounters {
    /// Create counters with one shard per execution lane.
    pub fn new(lanes: usize) -> Self {
        Self {
            shards: (0..lanes.max(1))
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Add `v` to shard `lane % shards`.
    #[inline]
    pub fn add(&self, lane: usize, v: u64) {
        self.shards[lane % self.shards.len()]
            .0
            .fetch_add(v, Ordering::Relaxed);
    }

    /// Sum across all shards.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Snapshot of each shard's count, in lane order.
    ///
    /// The per-shard spread is the contention signal streaming metrics
    /// report: a hot shard means its lane applied most of the placements.
    pub fn values(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;

    #[test]
    fn atomic_u32_view_roundtrips() {
        let mut v = vec![0u32; 100];
        {
            let a = as_atomic_u32(&mut v);
            for (i, slot) in a.iter().enumerate() {
                slot.store(i as u32, Ordering::Relaxed);
            }
        }
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn atomic_view_concurrent_increments() {
        let pool = ThreadPool::new(4);
        let mut v = vec![0u32; 13];
        {
            let a = as_atomic_u32(&mut v);
            pool.run_indexed(130_000, |i| {
                a[i % 13].fetch_add(1, Ordering::Relaxed);
            });
        }
        assert!(v.iter().all(|&c| c == 10_000));
    }

    #[test]
    fn atomic_u64_view() {
        let mut v = vec![5u64; 4];
        {
            let a = as_atomic_u64(&mut v);
            a[2].fetch_add(37, Ordering::Relaxed);
        }
        assert_eq!(v, vec![5, 5, 42, 5]);
    }

    #[test]
    fn cache_padded_is_line_aligned_and_transparent() {
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 64);
        assert_eq!(std::mem::align_of::<CachePadded<Vec<u64>>>(), 64);
        let mut p = CachePadded::new(vec![1u64, 2, 3]);
        p.push(4); // DerefMut
        assert_eq!(p.len(), 4); // Deref
        assert_eq!(p.0, vec![1, 2, 3, 4]);
        // Adjacent elements land on distinct cache lines.
        let pair = [CachePadded::new(0u8), CachePadded::new(1u8)];
        let a = &pair[0] as *const _ as usize;
        let b = &pair[1] as *const _ as usize;
        assert!(b - a >= 64);
    }

    #[test]
    fn sharded_counters_total() {
        let c = ShardedCounters::new(4);
        for lane in 0..8 {
            c.add(lane, 10);
        }
        assert_eq!(c.total(), 80);
        assert_eq!(c.values(), vec![20, 20, 20, 20]);
    }

    #[test]
    fn sharded_counters_zero_lanes_clamped() {
        let c = ShardedCounters::new(0);
        c.add(5, 3);
        assert_eq!(c.total(), 3);
        assert_eq!(c.values(), vec![3]);
    }
}
