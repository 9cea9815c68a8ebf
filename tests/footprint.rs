//! Memory footprint guard, enforced by a byte-counting global allocator.
//!
//! An engine run's heap is its page-fault bill: every fresh 4 KiB page it
//! touches costs a minor fault, and at m = n = 2^22 the faults cost a
//! large share of the run (DESIGN.md §13). This pins the peak live heap
//! of a sequential collision run at m = n = 2^16 to a budget: the
//! current layout (4 bytes of fixed-choice state per ball, about 52
//! bytes per ball-and-bin pair in all) plus 10%. A layout that grows the
//! per-ball or per-bin state past that fails here before it shows up as
//! faults in the benchmark.
//!
//! Everything lives in one `#[test]` so the counters are never polluted
//! by a concurrently running sibling test in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use pba::prelude::*;
use pba::protocols::run_by_name;

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Forwards to the system allocator, counting live bytes and their peak.
struct ByteCountingAlloc;

// SAFETY: all four methods forward verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the counter side effects touch no
// allocator state.
unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            shrink(layout.size() - new_size);
        }
        // SAFETY: ptr/layout come from a prior `alloc` through this same
        // forwarding wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: ptr/layout come from a prior `alloc` through this same
        // forwarding wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: ByteCountingAlloc = ByteCountingAlloc;

#[test]
fn sequential_collision_peak_heap_stays_within_budget() {
    // Measured at 3,425,952 B in a debug build (release builds skip the
    // 256 KiB claim table), plus 10%. The earlier layout, which stored
    // each ball's fixed choices in 36 bytes, peaked at 5,523,104 B.
    const BUDGET: usize = 3_770_000;
    let spec = ProblemSpec::new(1 << 16, 1 << 16).unwrap();
    let cfg = RunConfig::seeded(5);
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run_by_name("collision", spec, cfg).unwrap().unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(out.is_complete());
    assert!(
        peak <= BUDGET,
        "peak live heap {peak} B exceeds the {BUDGET} B budget ({:.1} B per ball)",
        peak as f64 / spec.balls() as f64
    );
}
