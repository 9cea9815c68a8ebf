//! Fixed-bucket log₂ latency histogram: [`LatencyHistogram`].
//!
//! The replay service charges every ball a placement latency (queue entry
//! → batch resolved) and needs p50/p99/p999 per checkpoint without
//! per-sample storage. A log₂ histogram fits: 64 buckets, bucket `b`
//! holding values with `⌊log₂ v⌋ = b` (bucket 0 also holds 0), so the
//! whole state is one flat `[u64; 64]` — recording is a shift, a bucket
//! increment, and min/max bookkeeping, and **touches no heap** (enforced
//! by the counting-allocator test in `tests/alloc_steady_state.rs`).
//!
//! Quantiles resolve to the lower edge of the bucket containing the
//! requested rank, clamped to the observed `[min, max]` — exact whenever
//! the bucket holds a single distinct value (and in particular on any
//! all-equal input), and within a factor 2 otherwise, which is ample for
//! latency percentiles spanning nanoseconds to seconds.
//!
//! Merging histograms adds counts bucket-wise, so merge is associative
//! and commutative and a sharded recorder can combine per-lane histograms
//! into the same totals any single-threaded recorder would have seen.

/// Number of log₂ buckets (one per possible `⌊log₂ v⌋` of a `u64`).
pub(crate) const BUCKETS: usize = 64;

/// A fixed-bucket log₂ histogram of `u64` samples (typically nanoseconds).
///
/// # Examples
///
/// ```
/// use pba_stream::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [100u64, 100, 100, 100_000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), 100); // single-valued bucket → exact
/// assert_eq!(h.max(), 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket holding `v`: `⌊log₂ v⌋`, with 0 and 1 sharing bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros()) as usize
    }
}

/// Lower edge of bucket `b` (the value a quantile in `b` resolves to,
/// before min/max clamping).
#[inline]
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample. Allocation-free.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of the same value in O(1) — the service charges
    /// one batch latency to every ball of the batch. Allocation-free.
    #[inline]
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[bucket_of(v)] += n;
        self.count += n;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), resolved to the lower edge of the
    /// bucket containing rank `⌈q·count⌉` and clamped to the observed
    /// `[min, max]`. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median (`quantile(0.50)`).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile (`quantile(0.99)`).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (`quantile(0.999)`).
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold `other` into `self`. Associative and commutative: merging
    /// per-lane histograms in any order yields the same totals.
    pub fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::rng::{Rand64, SplitMix64};

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn quantiles_are_exact_on_known_inputs() {
        // One distinct value per bucket → every quantile is exact.
        let mut h = LatencyHistogram::new();
        for (v, n) in [(1u64, 50u64), (2, 25), (4, 15), (8, 9), (16, 1)] {
            h.record_n(v, n);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.p50(), 1);
        assert_eq!(h.quantile(0.51), 2);
        assert_eq!(h.quantile(0.75), 2);
        assert_eq!(h.quantile(0.76), 4);
        assert_eq!(h.p99(), 8);
        assert_eq!(h.p999(), 16);
        assert_eq!(h.quantile(1.0), 16);

        // All-equal input: exact at every quantile regardless of value.
        let mut h = LatencyHistogram::new();
        h.record_n(12_345, 1000);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 12_345, "q={q}");
        }
    }

    #[test]
    fn quantile_error_is_within_one_bucket() {
        // Mixed values inside buckets: the estimate must stay within the
        // sample's bucket, i.e. within a factor 2 below the true value.
        let mut h = LatencyHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = 1 + rng.next_u64() % 1_000_000;
            samples.push(v);
            h.record(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = samples[rank - 1];
            let est = h.quantile(q);
            assert!(est <= truth, "q={q}: estimate {est} above truth {truth}");
            assert!(
                est > truth / 2,
                "q={q}: estimate {est} below bucket of truth {truth}"
            );
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p999(), 0);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let mut h = LatencyHistogram::new();
        let mut rng = SplitMix64::new(9);
        for _ in 0..2_000 {
            h.record(1 + rng.next_u64() % 100_000);
        }
        let mut prev = 0u64;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile fell at q={}: {prev} -> {v}", i);
            prev = v;
        }
    }

    /// Property: merge is associative and commutative, and merging equals
    /// recording the concatenated sample stream. Seeded cases in the
    /// workspace's hand-rolled property style.
    #[test]
    fn property_merge_is_associative_commutative_and_faithful() {
        for case in 0..32u64 {
            let mut rng = SplitMix64::new(0x41A7_0000 ^ case);
            let parts: Vec<Vec<u64>> = (0..3)
                .map(|_| {
                    (0..rng.below(200))
                        .map(|_| rng.next_u64() % 1_000_000)
                        .collect()
                })
                .collect();
            let hist = |vals: &[u64]| {
                let mut h = LatencyHistogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let [a, b, c] = [hist(&parts[0]), hist(&parts[1]), hist(&parts[2])];

            // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            let mut bc = b;
            bc.merge(&c);
            let mut right = a;
            right.merge(&bc);
            assert_eq!(left, right, "case {case}: associativity");

            // a ⊔ b == b ⊔ a
            let mut ab = a;
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba, "case {case}: commutativity");

            // merge == one histogram over the concatenation
            let all: Vec<u64> = parts.iter().flatten().copied().collect();
            assert_eq!(left, hist(&all), "case {case}: faithfulness");
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record_n(777, 500);
        a.record_n(3, 0); // no-op
        for _ in 0..500 {
            b.record(777);
        }
        assert_eq!(a, b);
    }
}
