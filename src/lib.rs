//! # CIDRE — Concurrency-Informed Orchestration for Serverless Functions
//!
//! A from-scratch Rust reproduction of the ASPLOS 2025 paper
//! *Concurrency-Informed Orchestration for Serverless Functions*
//! (Liu, Cheng, Shen, Wang, Balaji): the CIDRE container-orchestration
//! policy, a discrete-event FaaS cluster simulator to run it on,
//! synthetic production-shaped workloads, every baseline the paper
//! compares against, and an experiment harness regenerating every table
//! and figure of the evaluation.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`trace`] — workload model, synthetic Azure/FC generators,
//!   transforms, statistics ([`faas_trace`]).
//! * [`sim`] — the discrete-event cluster simulator and policy traits
//!   ([`faas_sim`]).
//! * [`core`] — CIDRE itself: CIP eviction, BSS/CSS speculative scaling
//!   ([`cidre_core`]).
//! * [`policies`] — TTL, LRU, FaasCache, RainbowCake, IceBreaker,
//!   CodeCrunch, Flame, ENSURE, and the Offline oracle
//!   ([`faas_policies`]).
//! * [`live`] — a live mini-FaaS host (real threads and clocks) driven
//!   by the same policies, for validating the simulator
//!   ([`faas_live`]).
//! * [`metrics`] — CDFs, percentiles, sliding windows, tables
//!   ([`faas_metrics`]).
//! * [`obs`] — deterministic tracing: decision provenance, Chrome
//!   trace export, latency waterfalls ([`faas_obs`]).
//!
//! # Quickstart
//!
//! ```
//! use cidre::core::{cidre_stack, CidreConfig};
//! use cidre::policies::faascache_stack;
//! use cidre::sim::{run, SimConfig, StartClass};
//! use cidre::trace::gen;
//!
//! // A small Azure-shaped workload.
//! let trace = gen::azure(42).functions(20).minutes(1).build();
//! let config = SimConfig::default();
//!
//! let cidre = run(&trace, &config, cidre_stack(CidreConfig::default()));
//! let faascache = run(&trace, &config, faascache_stack());
//!
//! // CIDRE converts cold starts into (cheaper) delayed warm starts.
//! assert!(cidre.ratio(StartClass::Cold) <= faascache.ratio(StartClass::Cold));
//! ```
//!
//! See `README.md` for the architecture overview, `DESIGN.md` for the
//! system inventory and substitution notes, and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no printing (P1).
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use cidre_core as core;
pub use faas_live as live;
pub use faas_metrics as metrics;
pub use faas_obs as obs;
pub use faas_policies as policies;
pub use faas_sim as sim;
pub use faas_trace as trace;

/// Workspace version, matching every member crate.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_set() {
        assert!(!super::VERSION.is_empty());
    }
}
