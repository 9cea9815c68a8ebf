//! Final allocation: loads, optional per-ball assignment, verification.

use crate::load::LoadStats;
use crate::model::ProblemSpec;

/// A completed allocation of balls to bins.
///
/// The load vector is always present. The per-ball assignment is optional
/// (it costs `O(m)` memory and is only needed when a caller wants to route
/// actual items, e.g. the DHT example).
#[derive(Debug, Clone)]
pub struct Allocation {
    spec: ProblemSpec,
    loads: Vec<u32>,
    assignment: Option<Vec<u32>>,
    /// Load units one ball contributes (see
    /// [`crate::protocol::RoundProtocol::replicas`]); 1 for unit balls.
    replicas: u32,
}

/// A structural defect found by [`Allocation::verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationDefect {
    /// Load vector length differs from `n`.
    WrongBinCount { expected: u32, found: usize },
    /// Loads do not sum to `m`.
    WrongTotal { expected: u64, found: u64 },
    /// Assignment length differs from `m`.
    WrongBallCount { expected: u64, found: usize },
    /// A ball is assigned to a bin outside `0..n`.
    AssignmentOutOfRange { ball: u64, bin: u32 },
    /// Assignment-derived loads disagree with the load vector.
    InconsistentLoads {
        bin: u32,
        from_assignment: u32,
        recorded: u32,
    },
}

impl Allocation {
    /// Build an allocation from parts. Use [`Allocation::verify`] to check
    /// structural invariants.
    pub fn new(spec: ProblemSpec, loads: Vec<u32>, assignment: Option<Vec<u32>>) -> Self {
        Self {
            spec,
            loads,
            assignment,
            replicas: 1,
        }
    }

    /// Declare that each ball contributes `replicas` load units (k-slot
    /// requests): loads must sum to `replicas × m`, and the per-ball
    /// assignment records only the *primary* bin, so the per-bin
    /// consistency check relaxes to "primaries never exceed the load".
    /// Clamped to at least 1.
    pub(crate) fn with_replicas(mut self, replicas: u32) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Load units one ball contributes (1 for unit balls).
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// Bin of `ball`, if the assignment was tracked.
    pub fn bin_of(&self, ball: u64) -> Option<u32> {
        self.assignment
            .as_ref()
            .and_then(|a| a.get(ball as usize).copied())
    }

    /// Summary statistics of the load vector.
    pub fn load_stats(&self) -> LoadStats {
        LoadStats::from_loads(&self.loads)
    }

    /// Check every structural invariant, returning all defects found.
    ///
    /// A well-formed allocation has: `n` loads summing to `replicas × m`;
    /// if the assignment is present, `m` entries, all in range, and
    /// recomputing loads from it reproduces the load vector exactly for
    /// unit balls — for k-slot requests (`replicas > 1`) the assignment
    /// records only each ball's primary bin, so the per-bin check relaxes
    /// to "primaries never exceed the recorded load".
    pub fn verify(&self) -> Vec<AllocationDefect> {
        let mut defects = Vec::new();
        let n = self.spec.bins();
        let m = self.spec.balls();

        if self.loads.len() != n as usize {
            defects.push(AllocationDefect::WrongBinCount {
                expected: n,
                found: self.loads.len(),
            });
            return defects; // everything below indexes by bin
        }
        let expected_total = m * self.replicas as u64;
        let total: u64 = self.loads.iter().map(|&l| l as u64).sum();
        if total != expected_total {
            defects.push(AllocationDefect::WrongTotal {
                expected: expected_total,
                found: total,
            });
        }
        if let Some(assignment) = &self.assignment {
            if assignment.len() != m as usize {
                defects.push(AllocationDefect::WrongBallCount {
                    expected: m,
                    found: assignment.len(),
                });
            }
            let mut derived = vec![0u32; n as usize];
            for (ball, &bin) in assignment.iter().enumerate() {
                if bin >= n {
                    defects.push(AllocationDefect::AssignmentOutOfRange {
                        ball: ball as u64,
                        bin,
                    });
                } else {
                    derived[bin as usize] += 1;
                }
            }
            for (bin, (&d, &r)) in derived.iter().zip(&self.loads).enumerate() {
                if (self.replicas == 1 && d != r) || d > r {
                    defects.push(AllocationDefect::InconsistentLoads {
                        bin: bin as u32,
                        from_assignment: d,
                        recorded: r,
                    });
                }
            }
        }
        defects
    }

    /// True when [`Allocation::verify`] finds no defects.
    pub fn is_well_formed(&self) -> bool {
        self.verify().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(m: u64, n: u32) -> ProblemSpec {
        ProblemSpec::new(m, n).unwrap()
    }

    #[test]
    fn well_formed_allocation_passes() {
        let a = Allocation::new(spec(5, 3), vec![2, 2, 1], Some(vec![0, 0, 1, 1, 2]));
        assert!(a.is_well_formed());
        assert_eq!(a.bin_of(2), Some(1));
        assert_eq!(a.load_stats().max(), 2);
    }

    #[test]
    fn wrong_total_detected() {
        let a = Allocation::new(spec(5, 3), vec![2, 2, 2], None);
        let d = a.verify();
        assert!(d.contains(&AllocationDefect::WrongTotal {
            expected: 5,
            found: 6
        }));
    }

    #[test]
    fn wrong_bin_count_detected() {
        let a = Allocation::new(spec(5, 3), vec![5], None);
        assert!(matches!(
            a.verify()[0],
            AllocationDefect::WrongBinCount { .. }
        ));
    }

    #[test]
    fn out_of_range_assignment_detected() {
        let a = Allocation::new(spec(2, 2), vec![1, 1], Some(vec![0, 7]));
        let d = a.verify();
        assert!(d.iter().any(|x| matches!(
            x,
            AllocationDefect::AssignmentOutOfRange { ball: 1, bin: 7 }
        )));
    }

    #[test]
    fn inconsistent_loads_detected() {
        let a = Allocation::new(spec(2, 2), vec![2, 0], Some(vec![0, 1]));
        let d = a.verify();
        assert!(d
            .iter()
            .any(|x| matches!(x, AllocationDefect::InconsistentLoads { .. })));
    }

    #[test]
    fn k_replica_allocation_expects_k_times_m_units() {
        // m = 3 balls × k = 2 replicas = 6 load units; the assignment
        // records primaries only, which never exceed the bin's load.
        let a = Allocation::new(spec(3, 3), vec![3, 2, 1], Some(vec![0, 0, 1])).with_replicas(2);
        assert_eq!(a.replicas(), 2);
        assert!(a.is_well_formed(), "{:?}", a.verify());
        // Unit total (= m) is a defect once replicas = 2 is declared.
        let short = Allocation::new(spec(3, 3), vec![1, 1, 1], None).with_replicas(2);
        assert!(short.verify().contains(&AllocationDefect::WrongTotal {
            expected: 6,
            found: 3
        }));
    }

    #[test]
    fn k_replica_primaries_exceeding_load_detected() {
        // Both balls claim bin 0 as primary but bin 0 holds one unit.
        let a = Allocation::new(spec(2, 2), vec![1, 3], Some(vec![0, 0])).with_replicas(2);
        assert!(a
            .verify()
            .iter()
            .any(|x| matches!(x, AllocationDefect::InconsistentLoads { bin: 0, .. })));
    }

    #[test]
    fn assignment_absent_is_fine() {
        let a = Allocation::new(spec(4, 2), vec![2, 2], None);
        assert!(a.is_well_formed());
        assert_eq!(a.bin_of(0), None);
    }
}
