//! Deterministic synthetic workloads: arrival patterns, churn, weights.
//!
//! A [`Workload`] turns a seed and a [`WorkloadCfg`] into a reproducible
//! sequence of [`Batch`]es. Three arrival patterns cover the regimes the
//! streaming experiments and the `pba-run stream` CLI exercise:
//!
//! * **uniform** — every batch carries exactly `batch` arrivals;
//! * **zipf** — same arrival counts, but ball weights are Zipf-skewed
//!   (a few heavy balls dominate, the request-size skew of real routers);
//! * **burst** — every `period`-th batch is `factor`× oversized, the
//!   bursty-traffic stress for threshold policies.
//!
//! Churn departs `⌊churn · arrivals⌋` uniformly random resident balls per
//! batch; `churn = 1.0` holds the resident population steady (E16's
//! equal-rate regime).

use pba_core::rng::{Rand64, SplitMix64};

use crate::batch::{Ball, Batch};

/// Weight distribution for arriving balls.
///
/// [`mean`](Self::mean) and [`variance`](Self::variance) are exact, so
/// the weighted-balls experiment (E17) can put the theory axis (weight
/// variance) next to the measured gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightDist {
    /// Every ball weighs exactly `w`.
    Constant(u64),
    /// Uniform on `lo..=hi`.
    UniformRange {
        /// Smallest weight.
        lo: u64,
        /// Largest weight.
        hi: u64,
    },
    /// Weight `hi` with probability `p`, else `lo` — the two-point family
    /// sweeps variance at fixed mean.
    TwoPoint {
        /// Common weight.
        lo: u64,
        /// Rare heavy weight.
        hi: u64,
        /// Probability of the heavy weight.
        p: f64,
    },
    /// Zipf on `1..=max` with exponent `s`: `P(w) ∝ w^{-s}`.
    Zipf {
        /// Skew exponent (larger = less skewed toward heavy weights).
        s: f64,
        /// Largest weight.
        max: u64,
    },
}

impl WeightDist {
    /// Draw one weight.
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            WeightDist::Constant(w) => w,
            WeightDist::UniformRange { lo, hi } => lo + rng.below_u64(hi - lo + 1),
            WeightDist::TwoPoint { lo, hi, p } => {
                if rng.bernoulli(p) {
                    hi
                } else {
                    lo
                }
            }
            WeightDist::Zipf { s, max } => {
                // Inverse-CDF over the (small) support; workload weights
                // are request-size classes, not open-ended values.
                let total: f64 = (1..=max).map(|w| (w as f64).powf(-s)).sum();
                let mut u = rng.unit_f64() * total;
                for w in 1..max {
                    u -= (w as f64).powf(-s);
                    if u < 0.0 {
                        return w;
                    }
                }
                max
            }
        }
    }

    /// Exact mean weight.
    pub fn mean(&self) -> f64 {
        match *self {
            WeightDist::Constant(w) => w as f64,
            WeightDist::UniformRange { lo, hi } => (lo + hi) as f64 / 2.0,
            WeightDist::TwoPoint { lo, hi, p } => lo as f64 * (1.0 - p) + hi as f64 * p,
            WeightDist::Zipf { s, max } => {
                let total: f64 = (1..=max).map(|w| (w as f64).powf(-s)).sum();
                (1..=max)
                    .map(|w| w as f64 * (w as f64).powf(-s))
                    .sum::<f64>()
                    / total
            }
        }
    }

    /// Exact variance of the weight.
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        let second = match *self {
            WeightDist::Constant(w) => (w as f64) * (w as f64),
            WeightDist::UniformRange { lo, hi } => {
                let k = (hi - lo + 1) as f64;
                (lo..=hi).map(|w| (w as f64) * (w as f64)).sum::<f64>() / k
            }
            WeightDist::TwoPoint { lo, hi, p } => {
                (lo as f64).powi(2) * (1.0 - p) + (hi as f64).powi(2) * p
            }
            WeightDist::Zipf { s, max } => {
                let total: f64 = (1..=max).map(|w| (w as f64).powf(-s)).sum();
                (1..=max)
                    .map(|w| (w as f64).powi(2) * (w as f64).powf(-s))
                    .sum::<f64>()
                    / total
            }
        };
        (second - mean * mean).max(0.0)
    }
}

/// Arrival pattern across batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// Constant batch size, weights from the configured distribution.
    Uniform,
    /// Constant batch size with Zipf(`s`)-skewed weights on `1..=max`
    /// (overrides the configured weight distribution).
    Zipf {
        /// Skew exponent.
        s: f64,
        /// Largest weight.
        max: u64,
    },
    /// Every `period`-th batch carries `factor`× the base arrivals.
    Burst {
        /// Batches between bursts.
        period: u64,
        /// Arrival multiplier on burst batches.
        factor: u64,
    },
}

/// Full workload description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadCfg {
    /// Arrival pattern.
    pub kind: WorkloadKind,
    /// Base arrivals per batch.
    pub batch: u64,
    /// Departures per arrival (`0.0` = pure growth, `1.0` = steady state).
    pub churn: f64,
    /// Ball weight distribution (uniform/burst kinds; zipf overrides).
    pub weights: WeightDist,
}

impl WorkloadCfg {
    /// Unit-weight, no-churn workload of constant `batch`-sized batches.
    pub fn uniform(batch: u64) -> Self {
        Self {
            kind: WorkloadKind::Uniform,
            batch,
            churn: 0.0,
            weights: WeightDist::Constant(1),
        }
    }

    /// Set the churn rate.
    pub fn with_churn(mut self, churn: f64) -> Self {
        assert!((0.0..=1.0).contains(&churn), "churn must be in [0,1]");
        self.churn = churn;
        self
    }

    /// Set the weight distribution.
    pub fn with_weights(mut self, weights: WeightDist) -> Self {
        self.weights = weights;
        self
    }
}

/// Deterministic batch generator.
///
/// Batch `t` draws all its randomness (weights, departure picks) from the
/// counter-based stream `(seed, t)`, so a workload replayed from the same
/// seed yields byte-identical batches regardless of what the consumer
/// does between calls.
#[derive(Debug, Clone)]
pub struct Workload {
    cfg: WorkloadCfg,
    seed: u64,
    next_id: u64,
    batch_seq: u64,
    /// Ids of balls currently resident (arrival order, perturbed by
    /// departure swap-removes — deterministic either way).
    live: Vec<u64>,
}

impl Workload {
    /// A workload from `cfg` with its own random stream.
    pub fn new(cfg: WorkloadCfg, seed: u64) -> Self {
        assert!(cfg.batch > 0, "empty batches make no progress");
        Self {
            cfg,
            seed,
            next_id: 0,
            batch_seq: 0,
            live: Vec::new(),
        }
    }

    /// Change the churn rate mid-stream (e.g. after a warmup phase).
    pub fn set_churn(&mut self, churn: f64) {
        assert!((0.0..=1.0).contains(&churn));
        self.cfg.churn = churn;
    }

    /// Generate the next batch.
    pub fn next_batch(&mut self) -> Batch {
        let mut rng = batch_stream(self.seed, self.batch_seq);

        let arrivals_count = match self.cfg.kind {
            WorkloadKind::Burst { period, factor }
                if self.batch_seq.is_multiple_of(period.max(1)) =>
            {
                self.cfg.batch * factor.max(1)
            }
            _ => self.cfg.batch,
        };

        let departures_count =
            ((self.cfg.churn * arrivals_count as f64) as u64).min(self.live.len() as u64);
        let departures: Vec<u64> = (0..departures_count)
            .map(|_| {
                let idx = rng.below_u64(self.live.len() as u64) as usize;
                self.live.swap_remove(idx)
            })
            .collect();

        let arrivals: Vec<Ball> = (0..arrivals_count)
            .map(|_| {
                let weight = match self.cfg.kind {
                    WorkloadKind::Zipf { s, max } => WeightDist::Zipf { s, max }.sample(&mut rng),
                    _ => self.cfg.weights.sample(&mut rng),
                }
                .max(1);
                let id = self.next_id;
                self.next_id += 1;
                self.live.push(id);
                Ball { id, weight }
            })
            .collect();

        self.batch_seq += 1;
        Batch {
            arrivals,
            departures,
        }
    }
}

/// Counter-based per-batch workload stream (mirrors the engine's
/// `ball_stream`, keyed by batch instead of round and with a distinct
/// salt so workload draws never collide with placement draws).
fn batch_stream(seed: u64, batch: u64) -> SplitMix64 {
    let a = SplitMix64::mix(seed ^ 0x8CB92BA72F3D8DD7 ^ batch.wrapping_mul(0xA24BAED4963EE407));
    SplitMix64::new(SplitMix64::mix(a))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_is_byte_identical() {
        let cfg = WorkloadCfg::uniform(100)
            .with_churn(0.5)
            .with_weights(WeightDist::UniformRange { lo: 1, hi: 4 });
        let mut a = Workload::new(cfg, 11);
        let mut b = Workload::new(cfg, 11);
        for _ in 0..10 {
            assert_eq!(a.next_batch(), b.next_batch());
        }
    }

    #[test]
    fn churn_one_reaches_steady_state() {
        let mut w = Workload::new(WorkloadCfg::uniform(50).with_churn(1.0), 3);
        // First batch has nothing to depart; afterwards arrivals == departures.
        let first = w.next_batch();
        assert_eq!(first.departures.len(), 0);
        for _ in 0..5 {
            let b = w.next_batch();
            assert_eq!(b.arrivals.len(), 50);
            assert_eq!(b.departures.len(), 50);
        }
        assert_eq!(w.live.len(), 50);
    }

    #[test]
    fn burst_batches_are_oversized() {
        let cfg = WorkloadCfg {
            kind: WorkloadKind::Burst {
                period: 4,
                factor: 8,
            },
            batch: 10,
            churn: 0.0,
            weights: WeightDist::Constant(1),
        };
        let mut w = Workload::new(cfg, 1);
        let sizes: Vec<usize> = (0..8).map(|_| w.next_batch().arrivals.len()).collect();
        assert_eq!(sizes, vec![80, 10, 10, 10, 80, 10, 10, 10]);
    }

    #[test]
    fn zipf_weights_are_skewed_small() {
        let mut w = Workload::new(
            WorkloadCfg {
                kind: WorkloadKind::Zipf { s: 1.5, max: 32 },
                batch: 2000,
                churn: 0.0,
                weights: WeightDist::Constant(1),
            },
            7,
        );
        let batch = w.next_batch();
        let ones = batch.arrivals.iter().filter(|b| b.weight == 1).count();
        // Zipf(1.5) puts well over a third of the mass on weight 1.
        assert!(ones > 800, "ones = {ones}");
        assert!(batch.arrivals.iter().any(|b| b.weight > 4));
    }

    #[test]
    fn weight_dist_moments_are_exact() {
        let c = WeightDist::Constant(3);
        assert_eq!(c.mean(), 3.0);
        assert_eq!(c.variance(), 0.0);

        let u = WeightDist::UniformRange { lo: 1, hi: 3 };
        assert!((u.mean() - 2.0).abs() < 1e-12);
        assert!((u.variance() - 2.0 / 3.0).abs() < 1e-12);

        let t = WeightDist::TwoPoint {
            lo: 1,
            hi: 10,
            p: 0.1,
        };
        assert!((t.mean() - 1.9).abs() < 1e-12);
        // E[X^2] = 0.9 + 10 = 10.9; Var = 10.9 − 3.61 = 7.29.
        assert!((t.variance() - 7.29).abs() < 1e-12);
    }

    #[test]
    fn two_point_empirical_mean_matches() {
        let d = WeightDist::TwoPoint {
            lo: 1,
            hi: 10,
            p: 0.1,
        };
        let mut rng = SplitMix64::new(5);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| d.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - d.mean()).abs() < 0.05, "mean {mean}");
    }
}
