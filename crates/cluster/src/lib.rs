//! # `pba-cluster` — multi-process cluster mode
//!
//! Distributes a balanced-allocation run over shard workers that own
//! disjoint, contiguous bin ranges and communicate over **real message
//! passing**: checksummed binary frames over stdin/stdout pipes (child
//! processes), TCP/Unix-domain sockets (pre-started `shard-worker
//! --listen` workers), or local socket pairs (threads). The papers'
//! synchronous-rounds model becomes literal: each round is a request
//! wave, a reply wave, and a commit wave, with a barrier at the
//! orchestrator between waves — and sends are overlapped: wave `k+1` is
//! serialized and written while the workers still chew on wave `k`,
//! without moving any barrier.
//!
//! * [`wire`] — the frame vocabulary and its binary codec (checksummed
//!   messages on [`pba_core::wire`], no external dependencies).
//! * [`transport`] — `ShardLink`, one shape for every worker (a reader,
//!   a writer and a thread, child or remote peer): wire accounting,
//!   overlapped sender threads, and real dead-link failure modes.
//! * [`worker`] — the shard side: [`worker::serve`] answers waves using
//!   the same [`grant_slice`](pba_core::exec::grant_slice) kernel the
//!   in-process engine runs.
//! * [`orchestrator`] — [`ClusterConfig`]: the builder that spawns
//!   shards, drives the waves through the engine's
//!   [`GrantDelegate`](pba_core::GrantDelegate) seam (engine mode) or an
//!   authoritative local mirror (stream mode), verifies checksums and
//!   drains, and emits `cluster` metrics events.
//!
//! ## Bit-identity
//!
//! A cluster run is **bit-identical** to the single-process run with the
//! same seed: same final loads, same rounds, same message counts, same
//! fault decisions, for every shard count. See the determinism argument
//! in the [`orchestrator`] docs; the equivalence is enforced by tests
//! and by per-wave checksums plus a drain verification on every run.
//!
//! ## Example
//!
//! ```
//! use pba_core::ProblemSpec;
//! use pba_cluster::ClusterConfig;
//!
//! let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
//! let out = ClusterConfig::engine("collision", spec, 7)
//!     .with_shards(2)
//!     .run_local()
//!     .unwrap();
//! assert!(out.total_frames() > 0);
//! assert!(out.run.unwrap().is_complete());
//! ```

pub mod orchestrator;
pub mod transport;
pub mod wire;
pub mod worker;

pub use orchestrator::{shard_lo, ClusterConfig, ClusterOutcome};
pub use wire::{Frame, Hello};
