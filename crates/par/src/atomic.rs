//! Atomic views over plain integer slices.
//!
//! The engine keeps bin loads and slot counters as plain `Vec<u32>` so the
//! sequential executor pays no atomic cost; the parallel executor
//! reinterprets the same storage as `&[AtomicU32]` for the duration of a
//! round, and the stream allocator's parallel ingestion views its one
//! `Vec<u64>` of loads as `&[AtomicU64]` for the duration of a batch. This
//! is sound because the integer and atomic types have identical layout and
//! the caller holds the unique `&mut` borrow.

use std::sync::atomic::{AtomicU32, AtomicU64};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ThreadPool;
    use std::sync::atomic::Ordering;

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
}
