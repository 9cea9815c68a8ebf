//! Parallel round-synchronous protocols (implementations of
//! [`pba_core::RoundProtocol`]).

pub(crate) mod a_light;
pub(crate) mod adler_greedy;
pub mod asymmetric;
pub mod batched;
pub mod collision;
pub(crate) mod estimated_average;
pub(crate) mod fixed_threshold;
pub mod kd_choice;
pub(crate) mod parallel_two_choice;
pub(crate) mod single_choice;
pub(crate) mod stemann_heavy;
pub(crate) mod threshold_heavy;
pub mod trivial;
