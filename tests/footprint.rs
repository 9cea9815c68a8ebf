//! Memory footprint guard, enforced by a byte-counting global allocator.
//!
//! An engine run's heap is its page-fault bill: every fresh 4 KiB page it
//! touches costs a minor fault, and at m = n = 2^22 the faults cost a
//! large share of the run (DESIGN.md §13). This pins the peak live heap
//! of two sequential runs to a budget each, the current layout plus 10%:
//! a collision run at m = n = 2^16 (4 bytes of fixed-choice state per
//! ball, about 41 bytes per ball-and-bin pair in all), and a heavily
//! loaded threshold-heavy run at m = 2^18, n = 2^10, where the per-ball
//! scratch dominates and round 0 commits most balls. A layout that grows
//! the per-ball or per-bin state past that fails here before it shows up
//! as faults in the benchmark; so do an id list of all m balls and a
//! buffer of 4 bytes per commit, which the heavy run cannot absorb.
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

/// The peak live heap of a complete sequential run of `name` at `spec`,
/// asserted to stay within `budget` bytes.
fn assert_peak_within(name: &str, spec: ProblemSpec, budget: usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = run_by_name(name, spec, RunConfig::seeded(5))
        .unwrap()
        .unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(out.is_complete(), "{name} left balls unplaced");
    assert!(
        peak <= budget,
        "{name} at {spec}: peak live heap {peak} B exceeds the {budget} B budget \
         ({:.1} B per ball)",
        peak as f64 / spec.balls() as f64
    );
}

#[test]
fn sequential_collision_peak_heap_stays_within_budget() {
    // Measured at 2,705,100 B in a debug build (release builds skip the
    // 256 KiB claim table), plus 10%. The layout with a round-0 id list
    // and 4-byte degrees peaked at 3,425,952 B, and the one before it,
    // which stored each ball's fixed choices in 36 bytes, at 5,523,104 B.
    assert_peak_within(
        "collision",
        ProblemSpec::new(1 << 16, 1 << 16).unwrap(),
        2_976_000,
    );
    // Measured at 2,866,368 B in a debug build, plus 10%: 11 B per
    // ball. The round-0 id list, a survivor buffer of m ids and 4-byte
    // degrees peaked at 5,532,544 B; a second 4 B per commit would add
    // about 1 MiB.
    assert_peak_within(
        "threshold-heavy",
        ProblemSpec::new(1 << 18, 1 << 10).unwrap(),
        3_154_000,
    );
}
