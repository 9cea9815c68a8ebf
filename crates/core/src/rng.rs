//! Deterministic, splittable randomness.
//!
//! Parallel balls-into-bins simulation needs randomness that is
//! *reproducible regardless of scheduling*: ball `b`'s choices in round `r`
//! must not depend on which thread processes it or in what order. We get
//! this with **counter-based streams**: the tuple `(seed, round, ball)` is
//! mixed through SplitMix64's finalizer into the initial state of a small
//! per-ball generator. Streams for distinct tuples are statistically
//! independent for our purposes, and any thread can regenerate any ball's
//! stream from scratch.
//!
//! The one generator is [`SplitMix64`]: 64-bit state, passes BigCrush,
//! one multiply-xor-shift per output. It implements the minimal
//! [`Rand64`] trait with unbiased bounded sampling (Lemire's
//! widening-multiply rejection method).

/// Minimal random-source trait used across the workspace.
pub trait Rand64 {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Next 32 uniformly random bits.
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform sample from `0..bound` without modulo bias
    /// (Lemire's method). `bound` must be nonzero.
    #[inline]
    fn below(&mut self, bound: u32) -> u32 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        // Widening multiply; reject the short initial interval that would
        // bias low values.
        let mut x = self.next_u32();
        let mut m = (x as u64) * (bound as u64);
        let mut low = m as u32;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u32();
                m = (x as u64) * (bound as u64);
                low = m as u32;
            }
        }
        (m >> 32) as u32
    }

    /// Uniform sample from `0..bound` for 64-bit bounds.
    #[inline]
    fn below_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        if bound <= u32::MAX as u64 {
            return self.below(bound as u32) as u64;
        }
        // 128-bit Lemire.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    #[inline]
    fn bernoulli(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }
}

/// SplitMix64: tiny, fast, statistically strong 64-bit generator.
///
/// Reference: Steele, Lea, Flood, “Fast splittable pseudorandom number
/// generators” (OOPSLA 2014); constants from Vigna's public-domain
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Construct from a raw state value.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The SplitMix64 output/finalizer function, usable standalone as a
    /// high-quality 64→64-bit mixer.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

impl Rand64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

/// A round's worth of per-ball streams with the round-level mix hoisted.
///
/// [`ball_stream`] chains two SplitMix64 finalizer applications: one over
/// `(seed, round)`, one over `(that, ball)`. The first is constant across
/// every ball of a round, so the gather kernel builds one `RoundStreams`
/// per round and derives each ball's stream with a **single** mix — the
/// batched-draw fast path. Bit-identical to calling [`ball_stream`] per
/// ball by construction (and pinned by a test below).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RoundStreams {
    /// `mix(seed ^ round·C)` — the round-level half of [`ball_stream`].
    round_key: u64,
}

impl RoundStreams {
    /// Hoist the round-level mix for `(seed, round)`.
    #[inline]
    pub(crate) fn new(seed: u64, round: u32) -> Self {
        Self {
            round_key: SplitMix64::mix(seed ^ (round as u64).wrapping_mul(0xA24BAED4963EE407)),
        }
    }

    /// The stream for `ball` this round: one mix over the hoisted key.
    #[inline]
    pub(crate) fn ball(&self, ball: u64) -> SplitMix64 {
        SplitMix64::new(SplitMix64::mix(
            self.round_key ^ ball.wrapping_mul(0x9FB21C651E98DF25),
        ))
    }
}

/// Derive the per-ball random stream for `(seed, round, ball)`.
///
/// This is the engine's source of ball randomness: stateless, so any
/// executor lane can compute any ball's choices, and independent across
/// rounds so adaptive protocols cannot "peek" at future randomness (the
/// obliviousness assumption of the papers' threshold-algorithm class).
/// Two mixing applications keep distinct (round, ball) pairs from
/// colliding through simple additive structure; batch callers hoist the
/// first through `RoundStreams`.
#[inline]
pub fn ball_stream(seed: u64, round: u32, ball: u64) -> SplitMix64 {
    RoundStreams::new(seed, round).ball(ball)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 0 from Vigna's splitmix64.c.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220A8397B1DCDAF);
        assert_eq!(r.next_u64(), 0x6E789E6AA1B965F4);
        assert_eq!(r.next_u64(), 0x06C45D188009454F);
    }

    #[test]
    fn below_is_in_range_and_covers_values() {
        let mut r = SplitMix64::new(42);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_u64_handles_large_bounds() {
        let mut r = SplitMix64::new(9);
        let bound = (1u64 << 40) + 12345;
        for _ in 0..1000 {
            assert!(r.below_u64(bound) < bound);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut r = SplitMix64::new(1);
        let bound = 10u32;
        let trials = 200_000;
        let mut counts = [0u32; 10];
        for _ in 0..trials {
            counts[r.below(bound) as usize] += 1;
        }
        let expected = trials as f64 / bound as f64;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "value {v}: count {c} deviates {dev:.3}");
        }
    }

    #[test]
    fn unit_f64_in_half_open_interval() {
        let mut r = SplitMix64::new(5);
        for _ in 0..10_000 {
            let x = r.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_matches_probability() {
        let mut r = SplitMix64::new(77);
        let hits = (0..100_000).filter(|_| r.bernoulli(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "frac {frac}");
    }

    #[test]
    fn ball_streams_differ_across_balls_and_rounds() {
        let mut a = ball_stream(1, 0, 0);
        let mut b = ball_stream(1, 0, 1);
        let mut c = ball_stream(1, 1, 0);
        let (x, y, z) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_ne!(x, y);
        assert_ne!(x, z);
        assert_ne!(y, z);
    }

    #[test]
    fn ball_streams_are_reproducible() {
        let mut a = ball_stream(99, 3, 12345);
        let mut b = ball_stream(99, 3, 12345);
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ball_stream_choices_are_roughly_uniform_over_bins() {
        // The property the engine actually relies on: across balls, the
        // first draw of each ball's stream is uniform over bins.
        let n = 64u32;
        let balls = 256_000u64;
        let mut counts = vec![0u32; n as usize];
        for ball in 0..balls {
            let mut s = ball_stream(7, 2, ball);
            counts[s.below(n) as usize] += 1;
        }
        let expected = balls as f64 / n as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "count {c} vs expected {expected}");
        }
    }

    #[test]
    fn round_streams_match_ball_stream_exactly() {
        // The hoisted-round fast path must be bit-identical to the
        // historical two-mix formula (spelled out here as the reference,
        // since `ball_stream` itself now delegates to `RoundStreams`) —
        // every golden load pin in the repo depends on this layout.
        for seed in [0u64, 1, 42, u64::MAX, 0x9E3779B97F4A7C15] {
            for round in [0u32, 1, 7, 4096, u32::MAX] {
                let streams = RoundStreams::new(seed, round);
                for ball in [0u64, 1, 12345, u64::MAX] {
                    let a = SplitMix64::mix(seed ^ (round as u64).wrapping_mul(0xA24BAED4963EE407));
                    let b = SplitMix64::mix(a ^ ball.wrapping_mul(0x9FB21C651E98DF25));
                    let mut reference = SplitMix64::new(b);
                    let mut hoisted = streams.ball(ball);
                    let mut delegated = ball_stream(seed, round, ball);
                    for _ in 0..4 {
                        let want = reference.next_u64();
                        assert_eq!(want, hoisted.next_u64());
                        assert_eq!(want, delegated.next_u64());
                    }
                }
            }
        }
    }
}
