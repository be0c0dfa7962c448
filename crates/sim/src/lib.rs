//! Discrete-event FaaS cluster simulator for the CIDRE reproduction.
//!
//! This crate stands in for the paper's OpenLambda deployment: a cluster
//! of workers hosting function containers with a memory-capacity
//! keep-alive cache, per-function request channels, and the
//! first-available-wins dispatch that realises speculative scaling
//! (see `DESIGN.md` §4 for the substitution argument).
//!
//! * [`run`] executes a [`faas_trace::Trace`] under a [`PolicyStack`]
//!   (a [`KeepAlive`] eviction policy, a [`Scaler`], and optionally a
//!   [`Prewarm`] policy) and produces a [`SimReport`].
//! * CIDRE itself and all baselines are implementations of these traits,
//!   living in the `cidre-core` and `faas-policies` crates.
//!
//! # Examples
//!
//! ```
//! use faas_sim::{run, baseline_lru_stack, SimConfig, StartClass};
//! use faas_trace::gen;
//!
//! let trace = gen::azure(7).functions(10).minutes(1).build();
//! let report = run(&trace, &SimConfig::default(), baseline_lru_stack());
//! assert_eq!(report.requests.len(), trace.len());
//! let covered = report.ratio(StartClass::Warm)
//!     + report.ratio(StartClass::Cold)
//!     + report.ratio(StartClass::DelayedWarm);
//! assert!((covered - 1.0).abs() < 1e-9);
//! ```

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

/// Emits a trace event only when the recorder is enabled, so building
/// the event (snapshots, provenance strings) costs nothing in untraced
/// runs: with [`faas_obs::NoopRecorder`] the `enabled()` test is a
/// constant `false` and the whole arm folds away (DESIGN.md §12).
macro_rules! obs {
    ($rec:expr, $ev:expr) => {
        if $rec.enabled() {
            let ev = $ev;
            $rec.record(ev);
        }
    };
}

mod cluster;
mod config;
mod container;
mod engine;
mod event;
mod fault;
mod ids;
mod ledger;
mod orchestrator;
mod policy;
pub mod reference;
mod report;
mod request;

pub use cluster::{ClusterState, Dispatch, FnRuntime, FnStats, PolicyCtx, Worker};
pub use config::{Placement, ScanMode, SimConfig};
pub use container::{Container, ContainerInfo, ContainerState};
pub use engine::{run, run_on_clock, run_traced};
pub use event::{Event, EventQueue};
/// The hasher of every id-keyed map on a per-event path, re-exported so
/// policy crates need no dependency on `faas-core` to name it.
pub use faas_core::{IdBuildHasher, IdHasher};
pub use fault::FaultPlan;
pub use ids::{ContainerId, RequestId, WorkerId};
pub use ledger::CostLedger;
pub use orchestrator::Orchestrator;
pub use policy::{
    AlwaysCold, KeepAlive, PolicyStack, Prewarm, PriorityDeps, ScaleDecision, Scaler, StartClass,
};
pub use report::{RequestRecord, SimReport};
pub use request::RequestInfo;

/// Reference LRU keep-alive: priority is the last-use time, so the
/// least-recently-used idle container is evicted first. This is the
/// paper's "LRU" baseline and the simulator's default keep-alive.
///
/// # Examples
///
/// ```
/// use faas_sim::{KeepAlive, LruKeepAlive};
/// assert_eq!(LruKeepAlive.name(), "lru");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LruKeepAlive;

impl KeepAlive for LruKeepAlive {
    fn name(&self) -> &str {
        "lru"
    }

    #[expect(
        clippy::cast_precision_loss,
        reason = "micro timestamps stay below 2^53 — exact in f64"
    )]
    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        container.last_used.as_micros() as f64
    }
}

/// Convenience: the classic baseline stack — LRU keep-alive with
/// always-cold scaling (no busy-container reuse).
pub fn baseline_lru_stack() -> PolicyStack {
    PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysCold))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_priority_orders_by_recency() {
        use faas_trace::{FunctionId, TimeDelta, TimePoint};
        let older = ContainerInfo {
            id: ContainerId(0),
            func: FunctionId(0),
            worker: WorkerId(0),
            mem_mb: 128,
            cold_start: TimeDelta::from_millis(10),
            created_at: TimePoint::ZERO,
            last_used: TimePoint::from_millis(5),
            served: 1,
            threads_in_use: 0,
            local_queue_len: 0,
        };
        let newer = ContainerInfo {
            last_used: TimePoint::from_millis(9),
            ..older
        };
        let cluster = ClusterState::new(&[100], std::iter::empty(), 1);
        let ctx = cluster.policy_ctx(TimePoint::from_millis(10));
        let lru = LruKeepAlive;
        assert!(lru.priority(&older, &ctx) < lru.priority(&newer, &ctx));
    }

    #[test]
    fn baseline_stack_labels() {
        assert_eq!(baseline_lru_stack().label(), "lru+cold");
    }
}
