//! Problem specification: `m` balls into `n` bins.

use crate::error::{CoreError, Result};

/// Engine-wide cap on ball count: ball ids are `u64` but request buffers
/// index balls with `u32` per round, so at most `2^32 - 1` balls.
pub(crate) const MAX_BALLS: u64 = u32::MAX as u64;

/// An instance of the balls-into-bins problem.
///
/// Immutable and `Copy`; every run, statistic and experiment references one.
///
/// # Examples
///
/// ```
/// use pba_core::ProblemSpec;
///
/// let spec = ProblemSpec::new(1_000_000, 1_000).unwrap();
/// assert_eq!(spec.average_load(), 1000.0);
/// assert_eq!(spec.ceil_avg(), 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProblemSpec {
    m: u64,
    n: u32,
}

impl ProblemSpec {
    /// Create a spec with `m` balls and `n` bins.
    ///
    /// # Errors
    ///
    /// Rejects `m == 0`, `n == 0`, and `m > 2^32 - 1` (the engine's
    /// per-round ball index width).
    pub fn new(m: u64, n: u32) -> Result<Self> {
        if m == 0 {
            return Err(CoreError::InvalidSpec {
                reason: "m must be positive".into(),
            });
        }
        if n == 0 {
            return Err(CoreError::InvalidSpec {
                reason: "n must be positive".into(),
            });
        }
        if m > MAX_BALLS {
            return Err(CoreError::InvalidSpec {
                reason: format!("m = {m} exceeds engine cap {MAX_BALLS}"),
            });
        }
        Ok(Self { m, n })
    }

    /// Number of balls.
    #[inline]
    pub fn balls(&self) -> u64 {
        self.m
    }

    /// Number of bins.
    #[inline]
    pub fn bins(&self) -> u32 {
        self.n
    }

    /// Average load `m / n` as a float.
    #[inline]
    pub fn average_load(&self) -> f64 {
        self.m as f64 / self.n as f64
    }

    /// `⌈m / n⌉` — the optimum achievable maximum load.
    #[inline]
    pub fn ceil_avg(&self) -> u32 {
        self.m.div_ceil(self.n as u64).min(u32::MAX as u64) as u32
    }

    /// `⌊m / n⌋`.
    #[inline]
    pub fn floor_avg(&self) -> u64 {
        self.m / self.n as u64
    }
}

impl std::fmt::Display for ProblemSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} balls into {} bins (m/n = {:.3})",
            self.m,
            self.n,
            self.average_load()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_spec_roundtrips() {
        let s = ProblemSpec::new(100, 10).unwrap();
        assert_eq!(s.balls(), 100);
        assert_eq!(s.bins(), 10);
        assert_eq!(s.average_load(), 10.0);
    }

    #[test]
    fn zero_balls_rejected() {
        assert!(matches!(
            ProblemSpec::new(0, 10),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn zero_bins_rejected() {
        assert!(matches!(
            ProblemSpec::new(10, 0),
            Err(CoreError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn oversized_m_rejected() {
        assert!(ProblemSpec::new(MAX_BALLS + 1, 10).is_err());
        assert!(ProblemSpec::new(MAX_BALLS, 10).is_ok());
    }

    #[test]
    fn ceil_and_floor_avg() {
        let s = ProblemSpec::new(10, 3).unwrap();
        assert_eq!(s.ceil_avg(), 4);
        assert_eq!(s.floor_avg(), 3);
        let t = ProblemSpec::new(9, 3).unwrap();
        assert_eq!(t.ceil_avg(), 3);
        assert_eq!(t.floor_avg(), 3);
    }

    #[test]
    fn display_mentions_sizes() {
        let s = ProblemSpec::new(100, 10).unwrap().to_string();
        assert!(s.contains("100"));
        assert!(s.contains("10"));
    }
}
