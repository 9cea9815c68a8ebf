//! # `pba-par` — self-contained data-parallel substrate
//!
//! The balls-into-bins engine in `pba-core` is *round synchronous*: every
//! round consists of a handful of bulk array passes (gather requests, count
//! per-bin arrivals, decide capacities, resolve acceptances, commit). Each
//! pass is embarrassingly parallel over either balls or bins. This crate
//! provides exactly the primitives those passes need, built from scratch on
//! `std::thread` + `std::sync` (no rayon, no external dependencies):
//!
//! * [`ThreadPool`] — a fixed pool of workers with a panic-propagating,
//!   scope-like `run_indexed` entry point (the calling thread participates,
//!   so a pool of `t` threads yields `t + 1` lanes of execution).
//! * [`Chunking`] — the one deterministic split of an index range into
//!   near-equal chunks; `pba-core`'s `Backend` sizes it per pass and runs
//!   one pool task per chunk.
//! * [`DisjointIndexMut`] / [`DisjointClaims`] — the audited escape hatch
//!   for per-slot (or per-range) disjoint writes from concurrent tasks,
//!   with a debug-build one-task-per-index verifier.
//! * [`atomic`] — zero-copy reinterpretation of `&mut [u32]` / `&mut [u64]`
//!   as atomic slices.
//!
//! ## Determinism
//!
//! Chunk boundaries are derived only from the input length, the minimum
//! chunk size and the chunk cap — never from thread timing. A caller that
//! writes chunk-local outputs therefore produces bit-identical results
//! regardless of scheduling. The atomic read-modify-writes the workspace
//! does use (the stream allocator's load applies) are commutative, so
//! their final values do not depend on order either.

pub mod atomic;
pub mod chunk;
mod disjoint;
pub mod pool;

pub use atomic::{as_atomic_u32, as_atomic_u64};
pub use chunk::Chunking;
pub use disjoint::{DisjointClaims, DisjointIndexMut};
pub use pool::{global_pool, PoolStats, ThreadPool};
