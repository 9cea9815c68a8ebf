//! Shared load accounting: the [`BinState`] trait.
//!
//! Both execution regimes of the workspace keep per-bin load totals and
//! answer the same questions about them — how full is bin `b`, what is the
//! maximum load, how far above the optimum `⌈total/bins⌉` does it sit (the
//! papers' *gap*). The one-shot engine stores loads as a plain `Vec<u32>`
//! ([`crate::sim::RunOutcome::loads`]); the streaming allocator
//! (`pba-stream`) keeps weighted `u64` loads in a plain `Vec<u64>`.
//! This trait is the accounting surface they share: implement `bins` +
//! `load` and the derived statistics come for free, defined in exactly one
//! place.
//!
//! Loads are reported as `u64` so weighted (streaming) and unit (one-shot)
//! balls share the same signatures; unit-ball implementations simply widen.

/// Read access to a per-bin load vector, with derived statistics.
///
/// Object-safe: observers can hold a `&dyn BinState` without caring
/// whether the backing store is the engine's `u32` loads or the stream
/// allocator's `u64` loads.
pub trait BinState {
    /// Number of bins.
    fn bins(&self) -> u32;

    /// Current load of `bin` (total ball weight; unit balls count 1 each).
    fn load(&self, bin: u32) -> u64;

    /// Sum of all bin loads.
    fn total_load(&self) -> u64 {
        (0..self.bins()).map(|b| self.load(b)).sum()
    }

    /// Maximum load over all bins (0 for zero bins).
    fn max_load(&self) -> u64 {
        (0..self.bins()).map(|b| self.load(b)).max().unwrap_or(0)
    }

    /// The optimum achievable maximum load `⌈total/bins⌉`.
    fn ceil_avg_load(&self) -> u64 {
        let n = self.bins();
        if n == 0 {
            return 0;
        }
        self.total_load().div_ceil(n as u64)
    }

    /// Gap above the optimum: `max − ⌈total/bins⌉`, saturating at zero.
    ///
    /// The headline quantity of the literature; zero means a perfectly
    /// balanced allocation of whatever has been placed so far.
    fn gap(&self) -> u64 {
        self.max_load().saturating_sub(self.ceil_avg_load())
    }

    /// Materialize the loads as a dense vector.
    fn load_vector(&self) -> Vec<u64> {
        (0..self.bins()).map(|b| self.load(b)).collect()
    }
}

impl BinState for [u32] {
    #[inline]
    fn bins(&self) -> u32 {
        self.len() as u32
    }

    #[inline]
    fn load(&self, bin: u32) -> u64 {
        self[bin as usize] as u64
    }

    fn total_load(&self) -> u64 {
        self.iter().map(|&l| l as u64).sum()
    }

    fn max_load(&self) -> u64 {
        self.iter().copied().max().unwrap_or(0) as u64
    }
}

impl BinState for [u64] {
    #[inline]
    fn bins(&self) -> u32 {
        self.len() as u32
    }

    #[inline]
    fn load(&self, bin: u32) -> u64 {
        self[bin as usize]
    }

    fn total_load(&self) -> u64 {
        self.iter().sum()
    }

    fn max_load(&self) -> u64 {
        self.iter().copied().max().unwrap_or(0)
    }
}

// Unsized slice types cannot back a `&dyn BinState`; the `Vec` impls
// delegate so owned load vectors can be handed out as trait objects.
impl BinState for Vec<u32> {
    #[inline]
    fn bins(&self) -> u32 {
        self.as_slice().bins()
    }

    #[inline]
    fn load(&self, bin: u32) -> u64 {
        self.as_slice().load(bin)
    }

    fn total_load(&self) -> u64 {
        self.as_slice().total_load()
    }

    fn max_load(&self) -> u64 {
        BinState::max_load(self.as_slice())
    }
}

impl BinState for Vec<u64> {
    #[inline]
    fn bins(&self) -> u32 {
        self.as_slice().bins()
    }

    #[inline]
    fn load(&self, bin: u32) -> u64 {
        self.as_slice().load(bin)
    }

    fn total_load(&self) -> u64 {
        self.as_slice().total_load()
    }

    fn max_load(&self) -> u64 {
        BinState::max_load(self.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_slice_accounting() {
        let loads: &[u32] = &[1, 2, 3, 4];
        assert_eq!(loads.bins(), 4);
        assert_eq!(loads.load(2), 3);
        assert_eq!(loads.total_load(), 10);
        assert_eq!(loads.max_load(), 4);
        // total 10 over 4 bins → opt 3; max 4 → gap 1.
        assert_eq!(loads.ceil_avg_load(), 3);
        assert_eq!(loads.gap(), 1);
        assert_eq!(loads.load_vector(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn u64_slice_accounting_matches_u32() {
        let a: &[u32] = &[7, 0, 5];
        let b: &[u64] = &[7, 0, 5];
        assert_eq!(a.total_load(), b.total_load());
        assert_eq!(a.max_load(), b.max_load());
        assert_eq!(a.gap(), b.gap());
    }

    #[test]
    fn balanced_gap_is_zero() {
        let loads: &[u64] = &[5, 5, 5];
        assert_eq!(loads.gap(), 0);
    }

    #[test]
    fn underfull_gap_saturates() {
        let loads: &[u32] = &[0, 0, 1];
        assert_eq!(loads.gap(), 0);
    }

    #[test]
    fn empty_slice_is_harmless() {
        let loads: &[u64] = &[];
        assert_eq!(loads.bins(), 0);
        assert_eq!(loads.total_load(), 0);
        assert_eq!(loads.max_load(), 0);
        assert_eq!(loads.gap(), 0);
    }

    #[test]
    fn object_safety() {
        let loads: Vec<u32> = vec![2, 9];
        let dyn_state: &dyn BinState = &loads;
        assert_eq!(dyn_state.max_load(), 9);
        assert_eq!(dyn_state.gap(), 3);
    }
}
