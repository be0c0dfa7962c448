//! Indexed pool data structures shared by the FaaS simulator and the live
//! orchestrator.
//!
//! This crate holds the hot-path structures that replace the naive linear
//! scans in `faas-sim` and `faas-live`:
//!
//! * [`pool::PendingQueue`] — a FIFO of pending requests that supports an
//!   O(1) "pop the first request that is not cold-only" alongside plain
//!   FIFO pops.
//! * [`pool::FreeThreadPool`] — per-function set of containers with free
//!   threads, ordered so the "most-loaded non-saturated container, oldest
//!   id wins ties" pick is O(log n).
//! * [`pool::EvictionIndex`] — a lazy-deletion binary min-heap of eviction
//!   candidates with per-entry versions, so a memory-pressure round is
//!   O(victims · log n) instead of a full recompute-and-sort.
//! * [`pool::OrdF64`] — a total order over non-NaN `f64` priorities.
//! * [`hash::IdHasher`] — the one-multiply hasher of every map keyed by a
//!   container, worker or function id on a per-event path, these pools'
//!   own key maps included.
//!
//! The structures are generic over the id types so both substrates (the
//! discrete-event simulator and the wall-clock live runtime) share one
//! implementation and can be differentially tested against the retained
//! reference scans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no walk of a hash
// collection and no environment read (O1, E1), no lossy cast (C1), no
// printing (P1).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
        clippy::cast_precision_loss,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

pub mod hash;
pub mod pool;

pub use hash::{IdBuildHasher, IdHasher};
pub use pool::{EvictionIndex, FreeThreadPool, OrdF64, PendingQueue, RoundHeap};
