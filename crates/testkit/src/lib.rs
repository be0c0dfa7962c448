//! # faas-testkit — hermetic test and measurement kit
//!
//! Everything the workspace needs to verify and measure itself without
//! reaching crates.io: the whole crate is plain `std`, so
//! `cargo build --offline` / `cargo test --offline` work on a machine
//! that has never seen a registry.
//!
//! Five subsystems:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256++ seeded via
//!   SplitMix64) with the uniform / normal / exponential / Pareto /
//!   Zipf helpers the synthetic trace generators need. Replaces `rand`.
//! * [`prop`] — a minimal property-testing runner: composable random
//!   inputs drawn from a recorded choice stream, configurable case
//!   counts, input shrinking by simplifying that stream, and
//!   failing-seed persistence to a `*.testkit-regressions` file.
//!   Replaces `proptest`.
//! * [`bench`](mod@bench) — a wall-clock micro-benchmark harness
//!   (warmup, fixed iteration budget, median/p95/throughput) that prints
//!   each lane and hands its statistics back to the target. Replaces
//!   `criterion`.
//! * [`par`] — an ordered, deterministic fork-join map over
//!   `std::thread::scope`, used to parallelize experiment sweeps while
//!   keeping result aggregation byte-identical to a sequential run.
//! * [`arrivals`] — seeded open-loop Poisson arrival schedules for load
//!   generators; the same seed always yields the byte-identical schedule.
//!
//! [`json`] is a tiny validating JSON reader: tests parse the Chrome
//! trace-event exports with it instead of serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod bench;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;

pub use arrivals::Arrivals;
pub use bench::{BenchStats, Harness};
pub use par::{default_jobs, par_map};
pub use prop::{Checker, Gen};
pub use rng::Rng;
