//! Indexed pool data structures on the FaaS simulator's hot paths.
//!
//! This crate holds the structures that replace the naive linear scans
//! of `faas-sim`'s orchestrator, which both the simulator and the live
//! drivers run:
//!
//! * [`pool::PendingQueue`] — a FIFO of pending requests that supports an
//!   O(1) "pop the first request that is not cold-only" alongside plain
//!   FIFO pops.
//! * [`pool::FreeThreadPool`] — per-function set of containers with free
//!   threads, ordered so the "most-loaded non-saturated container, oldest
//!   id wins ties" pick is O(log n).
//! * [`pool::RoundHeap`] — one REPLACE round's victims, from priorities
//!   evaluated once per round: integer keys in `total_cmp` order, a
//!   linear argmin for the first few pops and a binary heap after them.
//! * [`hash::IdHasher`] — the one-multiply hasher of every map keyed by a
//!   container, worker or function id on a per-event path, these pools'
//!   own key maps included.
//!
//! The structures are generic over the id types. `faas-sim` keeps the
//! scans they replace as its reference implementation
//! (`ScanMode::Reference`), and the differential oracle holds the two to
//! the same output.

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
pub use pool::{EvictionIndex, FreeThreadPool, PendingQueue, RoundHeap};
