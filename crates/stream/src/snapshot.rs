//! Snapshot/restore of the full [`StreamAllocator`] state.
//!
//! The replay service checkpoints a live allocator to bytes
//! ([`StreamAllocator::snapshot`]) and later rebuilds it
//! ([`StreamAllocator::restore`]) — in the same process or another one.
//! The format rides on the framed envelope of [`pba_core::wire`] (magic
//! `PBAS`, version 2, FNV-1a checksum), so it works in the default
//! zero-dependency build. Version 2 dropped version 1's shard-count
//! field; a version 1 file is refused by the envelope's version check.
//!
//! ## What is captured
//!
//! Everything placement decisions depend on: bin count, session seed,
//! policy kind **and its internal mutable state** (the threshold policy's
//! undershoot recurrence, persisted bit-exactly), per-bin loads, the
//! resident-ball map, and the batch sequence number.
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
//! ## Validated for meaning
//!
//! A checksum only proves the bytes arrived as written. Restore also
//! checks what they say before it builds anything: the claimed bin count
//! must fit the bytes left (so a short file cannot make it reserve
//! gigabytes), every resident ball must sit in a real bin, ids must be
//! unique, and each bin's load must equal the weight of the residents
//! filed under it — conservation per bin, not only in total, so no
//! departure can strand load in a bin its ball was never in.
//!
//! ## Canonical bytes
//!
//! The resident map is serialized sorted by ball id, so two allocators in
//! the same state produce byte-identical snapshots — which makes
//! snapshot equality a usable state-equality oracle in tests.

use std::collections::HashMap;

use pba_core::wire::{WireError, WireReader, WireWriter};

use crate::allocator::StreamAllocator;
use crate::policy::PolicyKind;

/// Magic tag of a streaming-allocator snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 4] = *b"PBAS";

/// Format version this build writes and reads.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

impl StreamAllocator {
    /// Serialize the complete allocator state to a framed, checksummed
    /// byte vector. See the module docs for the exact coverage.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = WireWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.u32(self.bins);
        w.u64(self.seed);
        w.str(self.policy.name());
        w.u64(self.batch_seq);
        for &load in &self.loads {
            w.u64(load);
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
    /// validates structure and checksum, then meaning (see the module
    /// docs), before returning.
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
        let batch_seq = r.u64()?;

        // Reserve by the bytes left, not by the claimed bin count: a short
        // file claiming 2^32 - 1 bins fails here instead of allocating.
        let load_bytes = u64::from(bins) * 8;
        if load_bytes > r.remaining() as u64 {
            return Err(WireError::Truncated {
                wanted: usize::try_from(load_bytes).unwrap_or(usize::MAX),
                left: r.remaining(),
            });
        }
        let mut loads = Vec::with_capacity(bins as usize);
        let mut total: u64 = 0;
        for _ in 0..bins {
            let load = r.u64()?;
            // Every later total (`BinState::total_load`) must fit a u64.
            total = total
                .checked_add(load)
                .ok_or_else(|| malformed("total load overflows u64".into()))?;
            loads.push(load);
        }

        let count = r.u64()?;
        // A hostile length prefix must not pre-allocate unboundedly; the
        // per-entry reads hit `Truncated` long before 2^16 real entries
        // could be faked in a short buffer.
        let mut resident: HashMap<u64, (u32, u64)> =
            HashMap::with_capacity(count.min(1 << 16) as usize);
        // The weight filed under each bin, checked against its load below.
        let mut filed = vec![0u64; bins as usize];
        for _ in 0..count {
            let id = r.u64()?;
            let bin = r.u32()?;
            let weight = r.u64()?;
            if bin >= bins {
                return Err(malformed(format!(
                    "resident ball {id} in bin {bin} >= {bins}"
                )));
            }
            let slot = &mut filed[bin as usize];
            *slot = slot
                .checked_add(weight)
                .ok_or_else(|| malformed("resident weight overflows u64".into()))?;
            if resident.insert(id, (bin, weight)).is_some() {
                return Err(malformed(format!("duplicate resident ball id {id}")));
            }
        }
        if let Some(bin) = (0..bins as usize).find(|&b| filed[b] != loads[b]) {
            return Err(malformed(format!(
                "conservation violated in bin {bin}: resident weight {} != load {}",
                filed[bin], loads[bin]
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
        let mut alloc = StreamAllocator::new(48, 9, kind);
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
            assert_eq!(restored.bin_state().bins(), alloc.bin_state().bins());
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
            let mut alloc =
                StreamAllocator::new(32, 7, PolicyKind::BatchedTwoChoice).with_faults(plan);
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

        // Checksum-valid frames whose content is wrong are rejected too.
        let frame = |bins: u32, body: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::framed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
            w.u32(bins);
            w.u64(0); // seed
            w.str("one-choice");
            w.u64(1); // batch_seq
            body(&mut w);
            w.finish()
        };
        let rejected = |bytes: &[u8]| match StreamAllocator::restore(bytes) {
            Ok(_) => panic!("hostile snapshot restored"),
            Err(err) => err.to_string(),
        };

        // Loads that do not match the residents' total.
        let err = rejected(&frame(2, &|w| {
            w.u64(5); // bin 0 load
            w.u64(0); // bin 1 load
            w.u64(0); // resident count (weight 0 != load 5)
            w.bytes(&[]);
        }));
        assert!(err.contains("conservation"), "unexpected error: {err}");

        // The right total in the wrong bin: ball 7 is filed under bin 0
        // while bin 1 holds its load, so departing it would strand a unit.
        let err = rejected(&frame(2, &|w| {
            w.u64(0); // bin 0 load
            w.u64(1); // bin 1 load
            w.u64(1); // resident count
            w.u64(7); // id
            w.u32(0); // bin
            w.u64(1); // weight
            w.bytes(&[]);
        }));
        assert_eq!(
            err,
            "malformed frame: conservation violated in bin 0: resident weight 1 != load 0"
        );

        // A bin count the bytes cannot hold is refused before anything is
        // reserved for it.
        let huge = frame(u32::MAX, &|_| {});
        assert_eq!(huge.len(), 54);
        assert_eq!(
            rejected(&huge),
            "frame truncated: needed 34359738360 bytes, 0 left"
        );

        // Version 1 carried a shard count after the policy name; this build
        // refuses the whole format.
        let mut w = WireWriter::framed(SNAPSHOT_MAGIC, 1);
        w.u32(2);
        w.u64(0);
        w.str("one-choice");
        w.u32(1); // shards
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.u64(0);
        w.bytes(&[]);
        assert_eq!(
            rejected(&w.finish()),
            "unsupported frame version 1 (this build reads version 2)"
        );

        // The good bytes still restore and the original still ingests.
        assert!(StreamAllocator::restore(&good).is_ok());
        alloc.ingest(&Batch::unit_arrivals(u64::MAX / 2, 10));
    }
}
