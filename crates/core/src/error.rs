//! Error types for model validation and engine execution.

use std::fmt;

/// Result alias used throughout `pba-core`.
pub type Result<T> = std::result::Result<T, CoreError>;

/// Errors raised by model validation and the simulation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The problem specification is invalid (zero balls or bins, or sizes
    /// exceeding the engine's index width).
    InvalidSpec {
        /// Human-readable reason.
        reason: String,
    },
    /// A protocol emitted a bin index outside `0..n`.
    BinOutOfRange {
        /// Offending bin index.
        bin: u64,
        /// Number of bins in the spec.
        n: u64,
        /// Round in which it happened.
        round: u32,
    },
    /// The protocol hit its round budget with balls still unallocated.
    ///
    /// Randomized protocols carry a safety cap (well above their w.h.p.
    /// round bound); exceeding it is reported rather than looping forever.
    RoundBudgetExhausted {
        /// Rounds executed.
        rounds: u32,
        /// Balls still unallocated.
        unallocated: u64,
    },
    /// The live bins cannot hold the run: the protocol caps every bin's
    /// load for the whole run ([`crate::protocol::RoundProtocol::load_cap`]),
    /// and the bins that crash faults leave live hold fewer load units
    /// under that cap than the run must place. Raised before round 0.
    Infeasible {
        /// Bins not crashed.
        live_bins: u64,
        /// The protocol's per-bin load cap.
        cap: u32,
        /// Load units the run must place: replicas × m.
        needed: u64,
    },
    /// A protocol declared failure via [`crate::protocol::Flow::Abort`].
    ProtocolAborted {
        /// Protocol-provided reason.
        reason: String,
        /// Round at which the protocol aborted.
        round: u32,
    },
    /// A cluster transport failed: a shard process died unexpectedly,
    /// sent a malformed wire frame, or disagreed with the orchestrator's
    /// state (checksum mismatch). Raised by `pba-cluster` through the
    /// [`GrantDelegate`](crate::delegate::GrantDelegate) seam.
    ClusterTransport {
        /// Shard the failure was observed on.
        shard: u32,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// The in-engine invariant checker (`RunConfig::with_validation`)
    /// caught a round that broke an engine invariant: ball conservation,
    /// bin-capacity respect, monotone commitment, or fault-redirect
    /// legality.
    InvariantViolation {
        /// Round in which the invariant broke.
        round: u32,
        /// Which invariant family failed (e.g. `"ball-conservation"`).
        invariant: &'static str,
        /// Human-readable description of the violation.
        detail: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidSpec { reason } => write!(f, "invalid problem spec: {reason}"),
            CoreError::BinOutOfRange { bin, n, round } => {
                write!(
                    f,
                    "protocol chose bin {bin} outside 0..{n} in round {round}"
                )
            }
            CoreError::RoundBudgetExhausted {
                rounds,
                unallocated,
            } => write!(
                f,
                "round budget exhausted after {rounds} rounds with {unallocated} balls unallocated"
            ),
            CoreError::Infeasible {
                live_bins,
                cap,
                needed,
            } => write!(
                f,
                "infeasible run: {live_bins} live bins × load cap {cap} = {} load units, \
                 fewer than the {needed} to place",
                live_bins * u64::from(*cap)
            ),
            CoreError::ProtocolAborted { reason, round } => {
                write!(f, "protocol aborted in round {round}: {reason}")
            }
            CoreError::ClusterTransport { shard, detail } => {
                write!(f, "cluster transport failure on shard {shard}: {detail}")
            }
            CoreError::InvariantViolation {
                round,
                invariant,
                detail,
            } => {
                write!(
                    f,
                    "engine invariant '{invariant}' violated in round {round}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::BinOutOfRange {
            bin: 9,
            n: 4,
            round: 2,
        };
        let s = e.to_string();
        assert!(s.contains("bin 9"));
        assert!(s.contains("0..4"));
        assert!(s.contains("round 2"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = CoreError::RoundBudgetExhausted {
            rounds: 5,
            unallocated: 3,
        };
        let b = CoreError::RoundBudgetExhausted {
            rounds: 5,
            unallocated: 3,
        };
        assert_eq!(a, b);
    }
}
