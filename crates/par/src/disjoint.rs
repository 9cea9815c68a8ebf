//! Disjoint per-slot mutable access to a slice from concurrent tasks.
//!
//! The engine's parallel phases hand each task a disjoint set of *item
//! indices* (balls, bins, chunk slots) and let every task write its own
//! items' slots in several parallel arrays. Rust's borrow checker cannot
//! see that the index sets are disjoint, so this module provides the one
//! audited escape hatch: [`DisjointIndexMut`] erases a `&mut [T]` into a
//! shareable handle whose `index_mut` (one slot) and `slice_mut` (one
//! contiguous range) are `unsafe` with exactly one proof obligation — *no
//! two concurrent tasks touch the same index*.
//!
//! [`DisjointClaims`] backs that obligation with a runtime check in debug
//! builds: each task claims every item index it owns once per epoch, and a
//! double claim aborts the test run. Release builds compile the claim
//! table away entirely, so the check costs nothing in benchmarks.

use std::marker::PhantomData;
use std::ops::Range;

#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU32, Ordering};

/// A shareable view of a mutable slice that hands out `&mut` access to
/// individual slots, for use by concurrent tasks with provably disjoint
/// index sets.
///
/// The handle borrows the slice for `'a`, so the underlying storage cannot
/// be moved, resized, or otherwise aliased while tasks hold the view. All
/// aliasing discipline is concentrated in [`DisjointIndexMut::index_mut`]
/// and [`DisjointIndexMut::slice_mut`].
pub struct DisjointIndexMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the handle is only a pointer + length over a uniquely borrowed
// slice; sending or sharing it across threads is sound because every
// dereference goes through `index_mut` or `slice_mut`, whose contracts
// require disjoint indices across concurrent users. `T: Send` is required
// because a task on another thread obtains `&mut T` (i.e. ownership-like
// access) to slots.
unsafe impl<T: Send> Send for DisjointIndexMut<'_, T> {}
// SAFETY: as above — `&DisjointIndexMut` only enables `index_mut` and
// `slice_mut`, which are themselves `unsafe` with a disjointness contract.
unsafe impl<T: Send> Sync for DisjointIndexMut<'_, T> {}

impl<'a, T> DisjointIndexMut<'a, T> {
    /// Wrap a uniquely borrowed slice.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Mutable access to slot `index`.
    ///
    /// # Safety
    ///
    /// Callers must guarantee that no two concurrently running tasks call
    /// `index_mut` with the same `index` (and that the caller does not hold
    /// another reference to the same slot). In the engine this is
    /// discharged by partitioning item indices over chunks and verified in
    /// debug builds by [`DisjointClaims`]. Out-of-bounds indices are
    /// rejected in all builds.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the whole point: disjoint &mut from a shared handle
    pub unsafe fn index_mut(&self, index: usize) -> &mut T {
        assert!(index < self.len, "DisjointIndexMut: index out of bounds");
        // SAFETY: `ptr` covers `len` initialized slots of a live `&mut`
        // borrow; `index` is in bounds (checked above) and the caller
        // guarantees no concurrent access to this slot.
        unsafe { &mut *self.ptr.add(index) }
    }

    /// Mutable access to the contiguous slots in `range`.
    ///
    /// # Safety
    ///
    /// The same one-task-per-slot contract as [`index_mut`]: callers must
    /// guarantee that no two concurrently running tasks obtain overlapping
    /// ranges (or a slot inside `range` through [`index_mut`]), and that
    /// the caller holds no other reference into `range`. In the engine
    /// this is discharged by handing each chunk of one
    /// [`Chunking`](crate::Chunking) to exactly one task. A range with
    /// `start > end` or `end > len` is rejected in all builds.
    ///
    /// [`index_mut`]: DisjointIndexMut::index_mut
    #[inline]
    #[allow(clippy::mut_from_ref)] // as `index_mut`: disjoint &mut from a shared handle
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "DisjointIndexMut: range {range:?} out of bounds for length {}",
            self.len
        );
        // SAFETY: `ptr` covers `len` initialized slots of a live `&mut`
        // borrow; `range` lies within them (checked above) and the caller
        // guarantees no concurrent access to any slot in it.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// Debug-build verifier for the "one task per item index" invariant behind
/// [`DisjointIndexMut`].
///
/// The owner allocates one claim table up front (so steady-state rounds
/// stay allocation-free even in debug builds), calls [`begin`] once per
/// round/epoch, and every task calls [`claim`] for each item index it is
/// about to mutate. Claiming the same index twice within an epoch panics in
/// debug builds; in release builds the whole type is a zero-sized no-op.
///
/// [`begin`]: DisjointClaims::begin
/// [`claim`]: DisjointClaims::claim
pub struct DisjointClaims {
    #[cfg(debug_assertions)]
    epoch: u32,
    #[cfg(debug_assertions)]
    slots: Vec<AtomicU32>,
}

impl DisjointClaims {
    /// Build a claim table for `len` item indices.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn new(len: usize) -> Self {
        Self {
            #[cfg(debug_assertions)]
            epoch: 0,
            #[cfg(debug_assertions)]
            slots: (0..len).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Start a new epoch; prior claims are forgotten.
    pub fn begin(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.epoch = self.epoch.wrapping_add(1);
            // Epoch 0 is the table's initial value; skip it so stale slots
            // can never collide with a live epoch after wraparound.
            if self.epoch == 0 {
                self.epoch = 1;
                for slot in &self.slots {
                    slot.store(0, Ordering::Relaxed);
                }
            }
        }
    }

    /// Record that the calling task owns `index` for the current epoch.
    ///
    /// Panics (debug builds only) if another claim for `index` was already
    /// made this epoch — i.e. two tasks would mutate the same slot.
    #[inline]
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub fn claim(&self, index: usize) {
        #[cfg(debug_assertions)]
        {
            let prev = self.slots[index].swap(self.epoch, Ordering::Relaxed);
            assert_ne!(
                prev, self.epoch,
                "DisjointIndexMut invariant violated: index {index} claimed twice in one epoch"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Chunking, ThreadPool};

    #[test]
    fn disjoint_writes_land() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 10_000];
        let chunking = Chunking::new(data.len(), 128, 16);
        let view = DisjointIndexMut::new(&mut data);
        pool.run_indexed(chunking.chunks(), |ci| {
            for i in chunking.range(ci) {
                // SAFETY: chunk ranges partition 0..len disjointly.
                unsafe {
                    *view.index_mut(i) = i as u64 * 3;
                }
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
        }
    }

    #[test]
    fn disjoint_range_writes_land() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0u64; 10_000];
        let chunking = Chunking::new(data.len(), 128, 16);
        let view = DisjointIndexMut::new(&mut data);
        pool.run_indexed(chunking.chunks(), |ci| {
            let range = chunking.range(ci);
            // SAFETY: chunk ranges partition 0..len disjointly.
            let slots = unsafe { view.slice_mut(range.clone()) };
            for (slot, i) in slots.iter_mut().zip(range) {
                *slot = i as u64 * 3;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as u64 * 3);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_is_rejected_in_all_builds() {
        let mut data = vec![0u8; 4];
        let view = DisjointIndexMut::new(&mut data);
        // SAFETY: single-threaded access; the call must panic on bounds.
        unsafe {
            *view.index_mut(4) = 1;
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_range_is_rejected_in_all_builds() {
        let mut data = vec![0u8; 4];
        let view = DisjointIndexMut::new(&mut data);
        // SAFETY: single-threaded access; the call must panic on bounds.
        let slots = unsafe { view.slice_mut(2..5) };
        slots.fill(1);
    }

    #[test]
    fn claims_allow_one_claim_per_epoch() {
        let mut claims = DisjointClaims::new(8);
        claims.begin();
        for i in 0..8 {
            claims.claim(i);
        }
        claims.begin();
        for i in 0..8 {
            claims.claim(i); // fresh epoch: fine again
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "claimed twice")]
    fn double_claim_panics_in_debug() {
        let mut claims = DisjointClaims::new(4);
        claims.begin();
        claims.claim(2);
        claims.claim(2);
    }

    #[test]
    fn chunk_ranges_partition_for_claims() {
        let claims = {
            let mut c = DisjointClaims::new(1000);
            c.begin();
            c
        };
        let chunking = Chunking::new(1000, 64, 7);
        for ci in 0..chunking.chunks() {
            for i in chunking.range(ci) {
                claims.claim(i);
            }
        }
    }
}
