//! The [`GrantDelegate`] seam: externalized bin-side grant decisions.
//!
//! In the papers' model the *bins* are independent agents: they see their
//! arrivals, decide how many to accept, and answer. Both executors run
//! that decision in [`crate::exec::grant_slice`], once per bin range: the
//! in-process engine over the chunks of its bin chunking, cluster mode
//! (`pba-cluster`) in shard processes owning disjoint bin ranges, whose
//! grant replies the orchestrator collects. This trait is the cut point:
//! when a delegate is attached (via
//! [`Simulator::run_mut_with_delegate`](crate::Simulator)), the engine
//! skips its local grant phase and asks the delegate, then reports the
//! committed round back so remote bin state can follow.
//!
//! ## Contract (bit-identity)
//!
//! A delegate must reproduce exactly what the local grant phase would
//! have computed:
//!
//! * For every bin `b` with `counts[b] > 0` **and** every crashed bin,
//!   write `accept[b] = grant.accept.min(counts[b])` (0 for crashed bins)
//!   into the dense `accept` array, which arrives zero-filled. Bins the
//!   delegate does not touch stay 0 — correct for bins with no arrivals.
//!   The engine counts `accept[b]` as the requests bin `b` accepted, so
//!   it must never exceed `counts[b]`: a delegate that relays grants from
//!   elsewhere rejects any that do.
//! * Return the `(underloaded_bins, unfilled_want)` totals with the
//!   crashed-bin adjustment already applied (a crashed bin contributes
//!   to neither; [`grant_slice`](crate::exec::grant_slice) computes
//!   exactly these totals for one bin range).
//! * Apply the protocol's `begin_round`/`after_round` state evolution on
//!   whatever protocol replicas it holds, in the same order the
//!   simulator does: `begin_round` before the grants of round `r`,
//!   `after_round` on [`round_commit`](GrantDelegate::round_commit).
//!
//! The engine's gather, rank scan, resolve, and fault machinery are
//! untouched — ball-side work (choices, redraws, backoff) stays with the
//! orchestrating process, exactly as ball agents stay with the client in
//! a distributed deployment.

use crate::error::Result;
use crate::protocol::RoundContext;
use crate::trace::RoundRecord;

/// External authority for the per-round grant phase.
///
/// Implemented by the cluster orchestrator (`pba-cluster`), which fans
/// the request wave out to shard processes and gathers their replies;
/// any other implementation must honor the module-level contract.
pub trait GrantDelegate {
    /// Decide this round's grants.
    ///
    /// `counts` is the dense per-bin arrival count; `crashed` lists the
    /// run-level crashed bins. `accept` arrives zero-filled and must be
    /// populated per the contract. Returns
    /// `(underloaded_bins, unfilled_want)`.
    fn round_grants(
        &mut self,
        ctx: &RoundContext,
        counts: &[u32],
        crashed: &[u32],
        accept: &mut [u32],
    ) -> Result<(u32, u64)>;

    /// The round resolved and committed: `record` is the finished
    /// [`RoundRecord`], `loads` the post-commit dense bin loads. The
    /// delegate propagates both to its replicas (and may verify them).
    fn round_commit(
        &mut self,
        ctx: &RoundContext,
        record: &RoundRecord,
        loads: &[u32],
    ) -> Result<()>;
}
