//! Integration: the multi-process cluster mode is **bit-identical** to
//! the single-process paths — same final loads, rounds, message counts,
//! and fault decisions for every shard count — and its chaos harness
//! (really killing a shard worker) lands on exactly the loads of the
//! in-process dead-domain run. Shards here are worker threads over
//! in-memory pipes speaking the same wire protocol as child processes;
//! `crates/runner/tests/cluster_cli.rs` covers the real-process
//! transport end to end.

use pba::cluster::wire::{Frame, LoadList, PairBuf, PairList};
use pba::cluster::ClusterConfig;
use pba::core::wire::WireWriter;
use pba::prelude::*;

const SEED: u64 = 1105;

fn single_process(protocol: &str, spec: ProblemSpec, faults: Option<FaultPlan>) -> RunOutcome {
    let mut cfg = RunConfig::seeded(SEED).with_validation(true);
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    pba::protocols::run_by_name(protocol, spec, cfg)
        .expect("registry name")
        .expect("run succeeds")
}

#[test]
fn engine_cluster_is_bit_identical_across_shard_counts() {
    let spec = ProblemSpec::new(1 << 11, 1 << 7).unwrap();
    for protocol in ["collision", "parallel-two-choice"] {
        let single = single_process(protocol, spec, None);
        for shards in [1u32, 2, 4] {
            let out = ClusterConfig::engine(protocol, spec, SEED)
                .with_shards(shards)
                .with_validation(true)
                .run_local()
                .unwrap();
            let run = out.run.expect("engine outcome");
            assert_eq!(
                run.loads, single.loads,
                "{protocol} loads at {shards} shards"
            );
            assert_eq!(run.rounds, single.rounds, "{protocol} rounds");
            assert_eq!(run.messages, single.messages, "{protocol} messages");
            assert_eq!(
                run.per_bin_received, single.per_bin_received,
                "{protocol} per-bin message counts at {shards} shards"
            );
            assert_eq!(
                run.trace.as_ref().unwrap().records(),
                single.trace.as_ref().unwrap().records(),
                "{protocol} round records at {shards} shards"
            );
            assert_eq!(run.placed, single.placed);
            assert_eq!(run.unallocated, single.unallocated);
        }
    }
}

#[test]
fn engine_cluster_reproduces_fault_decisions() {
    // Crashed bins and dropped requests are drawn from the fault stream;
    // the distributed grant waves must land on the same decisions.
    let spec = ProblemSpec::new(1 << 11, 1 << 7).unwrap();
    let plan = FaultPlan::new(17)
        .with_crashed_bins(0.08)
        .with_drop_prob(0.05);
    let single = single_process("collision", spec, Some(plan));
    let single_faults = single.faults.expect("fault stats recorded");
    for shards in [2u32, 4] {
        let out = ClusterConfig::engine("collision", spec, SEED)
            .with_shards(shards)
            .with_faults(plan)
            .with_validation(true)
            .run_local()
            .unwrap();
        let run = out.run.expect("engine outcome");
        assert_eq!(run.loads, single.loads, "faulted loads at {shards} shards");
        assert_eq!(run.rounds, single.rounds);
        assert_eq!(run.messages, single.messages);
        assert_eq!(
            run.per_bin_received, single.per_bin_received,
            "faulted per-bin message counts at {shards} shards"
        );
        assert_eq!(
            run.trace.as_ref().unwrap().records(),
            single.trace.as_ref().unwrap().records(),
            "faulted round records at {shards} shards"
        );
        let faults = run.faults.expect("fault stats recorded");
        assert_eq!(faults, single_faults, "fault decisions at {shards} shards");
    }
}

/// The orchestrator's stream mirror drives the workload off the run seed
/// (no salt); the in-process reference must be built the same way.
fn stream_reference(
    policy: PolicyKind,
    bins: u32,
    cfg: WorkloadCfg,
    batches: u64,
    faults: Option<FaultPlan>,
) -> Vec<u64> {
    let mut alloc = StreamAllocator::new(bins, SEED, policy);
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }
    let mut traffic = Workload::new(cfg, SEED);
    for _ in 0..batches {
        alloc.ingest(&traffic.next_batch());
    }
    alloc.bin_state().load_vector()
}

#[test]
fn stream_cluster_is_bit_identical_across_shard_counts() {
    let (bins, batches) = (96u32, 5u64);
    for policy in [PolicyKind::OneChoice, PolicyKind::BatchedTwoChoice] {
        let cfg = WorkloadCfg::uniform(4 * u64::from(bins)).with_churn(0.25);
        let want = stream_reference(policy, bins, cfg, batches, None);
        for shards in [1u32, 2, 4] {
            let out = ClusterConfig::stream(policy, bins, SEED, batches, 1)
                .with_workload(cfg)
                .with_shards(shards)
                .run_local()
                .unwrap();
            assert_eq!(out.loads, want, "{} at {shards} shards", policy.name());
            assert_eq!(out.batches, batches);
        }
    }
}

#[test]
fn killed_shard_matches_in_process_dead_domain_run() {
    // The chaos harness really kills shard 1's worker before batch 2; the
    // surviving placements must equal an in-process run whose fault plan
    // declares domain 1 dead from batch 2 — the redirect is the same
    // pure function either way.
    let (bins, shards, batches) = (64u32, 4u32, 6u64);
    let (kill_shard, kill_batch) = (1u32, 2u64);
    let plan = FaultPlan::new(SEED)
        .with_shard_failures(shards, 0.0)
        .with_dead_domain(kill_shard, kill_batch);
    let cfg = WorkloadCfg::uniform(2 * u64::from(bins));
    let want = stream_reference(PolicyKind::BatchedTwoChoice, bins, cfg, batches, Some(plan));

    let out = ClusterConfig::stream(PolicyKind::BatchedTwoChoice, bins, SEED, batches, 1)
        .with_workload(cfg)
        .with_shards(shards)
        .with_kill(kill_shard, kill_batch)
        .run_local()
        .unwrap();
    assert_eq!(
        out.loads, want,
        "killed-shard loads diverge from dead-domain run"
    );
    let rec = &out.shard_records[kill_shard as usize];
    assert!(rec.killed, "the scheduled kill must be recorded");
    assert!(
        out.shard_records
            .iter()
            .filter(|r| r.shard != kill_shard)
            .all(|r| !r.killed),
        "only the scheduled shard dies"
    );
    // The dead domain owns bins the mirror stopped placing into after the
    // kill; its range must have received strictly less than a full share.
    let lo = pba::cluster::shard_lo(kill_shard, bins, shards) as usize;
    let hi = pba::cluster::shard_lo(kill_shard + 1, bins, shards) as usize;
    let dead: u64 = want[lo..hi].iter().sum();
    let total: u64 = want.iter().sum();
    assert!(
        dead * u64::from(shards) < total,
        "dead domain absorbed a full share: {dead} of {total}"
    );
}

#[test]
fn misbehaving_worker_surfaces_a_clear_error() {
    // A worker that answers the hello with garbage: the orchestrator
    // must fail with a transport error naming the shard and the problem,
    // not hang or panic.
    let dir = std::env::temp_dir().join(format!("pba-bad-worker-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let exe = dir.join("bad-worker.sh");
    std::fs::write(&exe, "#!/bin/sh\necho 'not a wire frame'\ncat >/dev/null\n").unwrap();
    // Sandbox-friendly chmod via std: mark the script executable.
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
    }
    let spec = ProblemSpec::new(64, 16).unwrap();
    let err = ClusterConfig::engine("collision", spec, 1)
        .with_shards(2)
        .with_worker_exe(exe)
        .run_process()
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("cluster transport failure") && err.contains("unreadable reply"),
        "expected a malformed-frame transport error, got: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn huge_seeds_round_trip_exactly_on_both_codecs() {
    // Seeds above 2^53 do not fit a JSON double; the wire must carry the
    // native u64 exactly, giving the same run as a single process.
    let seed = (1u64 << 60) + 3_141_592_653;
    let spec = ProblemSpec::new(1 << 10, 1 << 6).unwrap();
    let single = pba::protocols::run_by_name(
        "collision",
        spec,
        RunConfig::seeded(seed).with_validation(true),
    )
    .expect("registry name")
    .expect("run succeeds");
    let out = ClusterConfig::engine("collision", spec, seed)
        .with_shards(2)
        .run_local()
        .unwrap();
    let run = out.run.expect("engine outcome");
    assert_eq!(run.loads, single.loads, "loads");
    assert_eq!(run.rounds, single.rounds, "rounds");
    // And the frame itself is exact: a hello through the codec keeps
    // every bit of the seed.
    let hello = Frame::Hello(pba::cluster::Hello {
        mode: "engine".into(),
        shard: 0,
        shards: 1,
        lo: 0,
        hi: 16,
        n: 16,
        m: 64,
        seed: u64::MAX - 12,
        workload: "collision".into(),
        straggle_prob: 0.0,
        straggle_us: 0,
        fault_seed: (1 << 57) + 5,
    });
    assert_eq!(Frame::decode(&hello.encode()).unwrap(), hello);
}

/// Tiny deterministic generator for the corruption fuzzer.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// An explicit pair list that lives as long as the test.
fn pairs(list: &[(u32, u64)]) -> PairList<'static> {
    Box::leak(Box::new(list.iter().copied().collect::<PairBuf>())).list()
}

/// A representative frame vocabulary for the fuzzer: every direction of
/// the conversation, sparse lists, strings, and full-width integers.
fn fuzz_frames() -> Vec<Frame<'static>> {
    vec![
        Frame::Ready { shard: 3 },
        Frame::Grants {
            round: 9,
            active: 512,
            placed: 1024,
            counts: pairs(&[(1, 3), (17, 1), (200, 9)]),
            crashed: vec![4, 90],
        },
        Frame::GrantsOk {
            round: 9,
            accept: pairs(&[(1, 2), (200, 9)]),
            underloaded: 7,
            unfilled: 11,
        },
        Frame::CommitOk {
            round: 9,
            sum: u64::MAX - 3,
        },
        Frame::Delta {
            batch: 44,
            loads: pairs(&[(0, 5), (63, 2)]),
        },
        Frame::DeltaOk {
            batch: 44,
            total: 99,
            max: 12,
        },
        Frame::Loads {
            loads: LoadList::u64s(&[0, 3, u64::MAX >> 1, 2]),
        },
        Frame::Error {
            detail: "synthetic failure".into(),
        },
    ]
}

#[test]
fn mangled_frames_are_rejected_never_misread() {
    // Satellite guarantee: a corrupted frame (bit flip, truncation, or a
    // lying length header) must decode to a diagnostic error or to the
    // original frame (when the flip lands in redundant encoding space) —
    // never to a *different* valid frame. Seeded fuzz.
    let mut rng = XorShift(0xBADC_0FFE_E0DD_F00D);
    for frame in fuzz_frames() {
        // Flips, truncations, and length lies.
        let bytes = frame.encode();
        for _ in 0..400 {
            let mut mangled = bytes.clone();
            match rng.next() % 3 {
                0 => {
                    let bit = rng.next() as usize % (mangled.len() * 8);
                    mangled[bit / 8] ^= 1 << (bit % 8);
                }
                1 => {
                    let keep = rng.next() as usize % mangled.len();
                    mangled.truncate(keep);
                }
                _ => {
                    // Lie in the 4-byte length header (offset 2..6:
                    // magic, tag, then little-endian length).
                    let byte = 2 + rng.next() as usize % 4;
                    mangled[byte] = mangled[byte].wrapping_add(1 + (rng.next() % 255) as u8);
                }
            }
            if mangled == bytes {
                continue;
            }
            match Frame::decode(&mangled) {
                Err(err) => assert!(!err.is_empty(), "empty diagnostic for mangled frame"),
                Ok(decoded) => assert_eq!(
                    decoded, frame,
                    "corruption decoded to a different frame: {decoded:?}"
                ),
            }
        }
    }
}

#[test]
fn wire_totals_are_pinned() {
    // Frames and bytes, both directions and all shards, of a 4-shard
    // engine run and a 4-shard stream run: the conversation and its
    // encoding are fixed, so a codec change must leave both totals put.
    let spec = ProblemSpec::new(1 << 16, 1 << 12).unwrap();
    let out = ClusterConfig::engine("collision", spec, SEED)
        .with_shards(4)
        .run_local()
        .unwrap();
    assert_eq!(
        (out.total_frames(), out.total_bytes()),
        (56, 31_820),
        "engine wire totals"
    );
    let bins = 1000u32;
    let cfg = WorkloadCfg::uniform(4 * u64::from(bins)).with_churn(0.25);
    let out = ClusterConfig::stream(PolicyKind::BatchedTwoChoice, bins, SEED, 5, 1)
        .with_workload(cfg)
        .with_shards(4)
        .run_local()
        .unwrap();
    assert_eq!(
        (out.total_frames(), out.total_bytes()),
        (64, 11_346),
        "stream wire totals"
    );
}

#[test]
fn hostile_counts_are_a_decode_error() {
    // Checksum-valid frames whose counts claim more elements than their
    // payload holds: a 4-byte `loads` payload claiming 2^24 loads, and
    // lists of 2^40 pairs or ids in a few bytes. Each fails at its count,
    // naming it, before anything is reserved for the elements.
    let frame = |tag: u8, fields: &[u64]| {
        let mut w = WireWriter::message(tag);
        fields.iter().for_each(|&v| w.varint(v));
        w.finish()
    };
    let cases = [
        (frame(10, &[1 << 24]), "load count 16777216 exceeds"),
        (
            frame(4, &[0, 1 << 40, 0, 0]),
            "pair count 1099511627776 exceeds",
        ),
        (frame(5, &[0, 1 << 40]), "pair count 1099511627776 exceeds"),
        (
            frame(7, &[0, 1 << 40, 1]),
            "pair count 1099511627776 exceeds",
        ),
        (
            frame(3, &[0, 0, 0, 0, 1 << 40]),
            "id count 1099511627776 exceeds",
        ),
    ];
    for (bytes, want) in cases {
        match Frame::decode(&bytes) {
            Err(err) => assert!(err.contains(want), "{want}: {err}"),
            Ok(frame) => panic!("{want}: decoded to {frame:?}"),
        }
    }
    assert_eq!(frame(10, &[1 << 24]).len(), 4 + 14, "a 4-byte payload");
}

#[test]
fn codec_and_overlap_matrix_is_bit_identical() {
    // The binary codec over overlapped sends lands on the single-process
    // run for both the engine and the stream mirror.
    let spec = ProblemSpec::new(1 << 11, 1 << 7).unwrap();
    let single = single_process("collision", spec, None);
    let (bins, batches) = (96u32, 4u64);
    let cfg = WorkloadCfg::uniform(4 * u64::from(bins)).with_churn(0.2);
    let want = stream_reference(PolicyKind::BatchedTwoChoice, bins, cfg, batches, None);
    let out = ClusterConfig::engine("collision", spec, SEED)
        .with_shards(4)
        .run_local()
        .unwrap();
    let run = out.run.expect("engine outcome");
    assert_eq!(run.loads, single.loads, "engine loads");
    assert_eq!(run.rounds, single.rounds, "engine rounds");
    assert_eq!(run.messages, single.messages, "engine messages");

    let out = ClusterConfig::stream(PolicyKind::BatchedTwoChoice, bins, SEED, batches, 1)
        .with_workload(cfg)
        .with_shards(4)
        .run_local()
        .unwrap();
    assert_eq!(out.loads, want, "stream loads");
}
