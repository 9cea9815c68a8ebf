//! Snapshot/restore of the full [`StreamAllocator`] state.
//!
//! The replay service checkpoints a live allocator to bytes
//! ([`StreamAllocator::snapshot`]) and later rebuilds it
//! ([`StreamAllocator::restore`]) — in the same process or another one.
//! The format rides on the framed envelope of [`pba_core::wire`] (magic
//! `PBAS`, version 1, FNV-1a checksum), so it works in the default
//! zero-dependency build.
//!
//! ## What is captured
//!
//! Everything placement decisions depend on: bin count, session seed,
//! policy kind **and its internal mutable state** (the threshold policy's
//! undershoot recurrence, persisted bit-exactly), shard geometry,
//! per-bin loads, the resident-ball map, and the batch sequence number.
//! Arrival randomness is counter-based (`arrival_stream(seed, batch,
//! index)`), so `(seed, batch_seq)` fully determines every future draw —
//! a restored session continues placing **bit-identically** to the
//! uninterrupted one.
//!
//! ## What is deliberately not captured
//!
//! Runtime configuration: metrics sinks, parallel ingestion, and the
//! fault plan. The first two never affect placements;
//! the fault plan does, but it is *configuration* (derived from the CLI
//! `--faults` spec), not evolved state — its per-batch decisions are a
//! pure function of `(plan seed, batch)`, so a caller re-arming the same
//! plan via [`StreamAllocator::with_faults`] gets identical redirects
//! from `batch_seq` onward. Restore therefore returns a sequential,
//! sink-less allocator; re-apply builder methods as needed.
//!
//! ## Canonical bytes
//!
//! The resident map is serialized sorted by ball id, so two allocators in
//! the same state produce byte-identical snapshots — which makes
//! snapshot equality a usable state-equality oracle in tests.

use std::collections::HashMap;

use pba_core::wire::{WireError, WireReader, WireWriter};
use pba_core::BinState;

use crate::allocator::StreamAllocator;
use crate::loads::ShardedLoads;
use crate::policy::PolicyKind;

/// Magic tag of a streaming-allocator snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"PBAS";

/// Format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;

impl StreamAllocator {
    /// Serialize the complete allocator state to a framed, checksummed
    /// byte vector. See the module docs for the exact coverage.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = WireWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.u32(self.bins);
        w.u64(self.seed);
        w.str(self.policy.name());
        w.u32(self.loads.shards() as u32);
        w.u64(self.batch_seq);
        for bin in 0..self.bins {
            w.u64(self.loads.load(bin));
        }
        // Sorted by id: canonical bytes for any HashMap iteration order.
        let mut resident: Vec<(u64, u32, u64)> = self
            .resident
            .iter()
            .map(|(&id, &(bin, weight))| (id, bin, weight))
            .collect();
        resident.sort_unstable();
        w.u64(resident.len() as u64);
        for (id, bin, weight) in resident {
            w.u64(id);
            w.u32(bin);
            w.u64(weight);
        }
        w.bytes(&self.policy.state_snapshot());
        w.finish()
    }

    /// Rebuild an allocator from [`snapshot`](Self::snapshot) bytes.
    ///
    /// The restored allocator ingests sequentially with no metrics sink
    /// and no fault plan — re-apply [`parallel`](Self::parallel) /
    /// [`with_metrics`](Self::with_metrics) /
    /// [`with_faults`](Self::with_faults) as needed (none of which
    /// perturb placements except a *different* fault plan). Decoding
    /// validates structure, checksum, and the load/resident-weight
    /// conservation invariant before returning.
    pub fn restore(bytes: &[u8]) -> Result<Self, WireError> {
        let malformed = |why: String| WireError::Malformed(why);
        let mut r = WireReader::framed(bytes, SNAPSHOT_MAGIC, SNAPSHOT_VERSION)?;
        let bins = r.u32()?;
        if bins == 0 {
            return Err(malformed("zero bins".into()));
        }
        let seed = r.u64()?;
        let policy_name = r.str()?;
        let kind = PolicyKind::parse(policy_name)
            .ok_or_else(|| malformed(format!("unknown policy '{policy_name}'")))?;
        let shards = r.u32()?;
        if shards == 0 || shards > bins {
            return Err(malformed(format!(
                "shard count {shards} out of [1, {bins}]"
            )));
        }
        let batch_seq = r.u64()?;

        let mut loads = ShardedLoads::new(bins, shards as usize);
        let mut total: u64 = 0;
        for bin in 0..bins {
            let load = r.u64()?;
            total = total
                .checked_add(load)
                .ok_or_else(|| malformed("total load overflows u64".into()))?;
            loads.add(bin, load);
        }

        let count = r.u64()?;
        // A hostile length prefix must not pre-allocate unboundedly; the
        // per-entry reads hit `Truncated` long before 2^16 real entries
        // could be faked in a short buffer.
        let mut resident: HashMap<u64, (u32, u64)> =
            HashMap::with_capacity(count.min(1 << 16) as usize);
        let mut resident_weight: u64 = 0;
        for _ in 0..count {
            let id = r.u64()?;
            let bin = r.u32()?;
            let weight = r.u64()?;
            if bin >= bins {
                return Err(malformed(format!(
                    "resident ball {id} in bin {bin} >= {bins}"
                )));
            }
            resident_weight = resident_weight
                .checked_add(weight)
                .ok_or_else(|| malformed("resident weight overflows u64".into()))?;
            if resident.insert(id, (bin, weight)).is_some() {
                return Err(malformed(format!("duplicate resident ball id {id}")));
            }
        }
        if resident_weight != total {
            return Err(malformed(format!(
                "conservation violated: resident weight {resident_weight} != total load {total}"
            )));
        }

        let state = r.bytes()?.to_vec();
        r.finish()?;

        let mut policy = kind.build(bins);
        policy.state_restore(&state).map_err(WireError::Malformed)?;

        Ok(StreamAllocator {
            bins,
            seed,
            policy,
            loads,
            resident,
            batch_seq,
            metrics: None,
            parallel: false,
            faults: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Batch, Workload, WorkloadCfg};
    use pba_core::FaultPlan;

    fn seeded_alloc(kind: PolicyKind, batches: u64) -> StreamAllocator {
        let mut alloc = StreamAllocator::new(48, 9, kind).with_shards(3);
        let mut traffic = Workload::new(WorkloadCfg::uniform(96).with_churn(0.5), 17);
        for _ in 0..batches {
            alloc.ingest(&traffic.next_batch());
        }
        alloc
    }

    #[test]
    fn roundtrip_restores_loads_resident_and_sequence() {
        for kind in PolicyKind::ALL {
            let alloc = seeded_alloc(kind, 5);
            let restored = StreamAllocator::restore(&alloc.snapshot()).expect("restores");
            assert_eq!(restored.bins(), alloc.bins());
            assert_eq!(restored.batches(), alloc.batches());
            assert_eq!(restored.resident(), alloc.resident());
            assert_eq!(
                restored.bin_state().load_vector(),
                alloc.bin_state().load_vector(),
                "{kind:?}"
            );
            assert_eq!(restored.resident, alloc.resident);
        }
    }

    #[test]
    fn restored_allocator_continues_bit_identically() {
        for kind in PolicyKind::ALL {
            let mut original = seeded_alloc(kind, 5);
            let mut restored = StreamAllocator::restore(&original.snapshot()).expect("restores");
            let mut traffic_a = Workload::new(WorkloadCfg::uniform(96).with_churn(0.5), 17);
            let mut traffic_b = traffic_a.clone();
            // Fast-forward both workloads past the already-ingested prefix.
            for _ in 0..5 {
                traffic_a.next_batch();
                traffic_b.next_batch();
            }
            for t in 0..4 {
                let a = original.ingest(&traffic_a.next_batch());
                let b = restored.ingest(&traffic_b.next_batch());
                assert_eq!(a.placements, b.placements, "{kind:?} batch {t}");
                assert_eq!(a.record, b.record, "{kind:?} batch {t}");
            }
        }
    }

    #[test]
    fn snapshot_bytes_are_canonical() {
        // Same ingestion history → byte-identical snapshots, even though
        // the resident HashMap iterates in arbitrary order.
        let a = seeded_alloc(PolicyKind::Threshold, 6);
        let b = seeded_alloc(PolicyKind::Threshold, 6);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn refaulted_restore_matches_uninterrupted_faulted_run() {
        let plan = FaultPlan::new(0xFA11).with_shard_failures(4, 0.4);
        let run = |resume_at: Option<u64>| {
            let mut traffic = Workload::new(WorkloadCfg::uniform(64), 23);
            let mut alloc = StreamAllocator::new(32, 7, PolicyKind::BatchedTwoChoice)
                .with_shards(2)
                .with_faults(plan);
            let mut placements = Vec::new();
            for t in 0..8u64 {
                if resume_at == Some(t) {
                    alloc = StreamAllocator::restore(&alloc.snapshot())
                        .expect("restores")
                        .with_faults(plan);
                }
                placements.push(alloc.ingest(&traffic.next_batch()).placements);
            }
            placements
        };
        let uninterrupted = run(None);
        for checkpoint in [1, 4, 7] {
            assert_eq!(
                uninterrupted,
                run(Some(checkpoint)),
                "resume at {checkpoint}"
            );
        }
    }

    #[test]
    fn empty_allocator_roundtrips() {
        let alloc = StreamAllocator::new(8, 1, PolicyKind::OneChoice);
        let restored = StreamAllocator::restore(&alloc.snapshot()).unwrap();
        assert_eq!(restored.batches(), 0);
        assert_eq!(restored.resident(), 0);
        assert_eq!(restored.bin_state().total_load(), 0);
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let mut alloc = seeded_alloc(PolicyKind::BatchedTwoChoice, 3);
        let good = alloc.snapshot();

        // Any bit flip trips the checksum.
        let mut bad = good.clone();
        bad[10] ^= 0x40;
        assert!(StreamAllocator::restore(&bad).is_err());

        // Truncation at every prefix length is detected.
        assert!(StreamAllocator::restore(&good[..good.len() - 1]).is_err());
        assert!(StreamAllocator::restore(&[]).is_err());

        // A conservation violation is rejected even with a valid frame:
        // hand-build a snapshot whose loads do not match its residents.
        let mut w = WireWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.u32(2); // bins
        w.u64(0); // seed
        w.str("one-choice");
        w.u32(1); // shards
        w.u64(1); // batch_seq
        w.u64(5); // bin 0 load
        w.u64(0); // bin 1 load
        w.u64(0); // resident count (weight 0 != total 5)
        w.bytes(&[]);
        let err = match StreamAllocator::restore(&w.finish()) {
            Ok(_) => panic!("conservation violation must be rejected"),
            Err(err) => err,
        };
        assert!(
            err.to_string().contains("conservation"),
            "unexpected error: {err}"
        );

        // The good bytes still restore and the original still ingests.
        assert!(StreamAllocator::restore(&good).is_ok());
        alloc.ingest(&Batch::unit_arrivals(u64::MAX / 2, 10));
    }
}
