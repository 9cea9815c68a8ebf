//! Batch ingestion vocabulary: [`Ball`], [`Batch`], [`BatchOutcome`].

use pba_core::BatchRecord;

/// One arriving ball: a caller-assigned identity and a weight.
///
/// Identities let a later batch depart the ball; unit-weight workloads set
/// `weight = 1` and recover the classic unweighted model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ball {
    /// Caller-assigned identity, unique among resident balls.
    pub id: u64,
    /// Ball weight (load contributed to its bin); must be ≥ 1.
    pub weight: u64,
}

impl Ball {
    /// A unit-weight ball.
    pub(crate) fn unit(id: u64) -> Self {
        Self { id, weight: 1 }
    }
}

/// One unit of streaming work: balls arriving plus resident balls leaving.
///
/// Departures are applied *before* arrivals: a batch models one scheduling
/// epoch in which freed capacity is visible to the placement decisions of
/// the same epoch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    /// Balls arriving in this batch.
    pub arrivals: Vec<Ball>,
    /// Identities of resident balls departing in this batch.
    pub departures: Vec<u64>,
}

impl Batch {
    /// A batch of `count` fresh unit balls with ids `first_id..`.
    pub fn unit_arrivals(first_id: u64, count: u64) -> Self {
        Self {
            arrivals: (0..count).map(|i| Ball::unit(first_id + i)).collect(),
            departures: Vec::new(),
        }
    }
}

/// Result of ingesting one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Chosen bin per arrival, in arrival order.
    pub placements: Vec<u32>,
    /// The per-batch statistics (also delivered to any attached sink).
    pub record: BatchRecord,
}
