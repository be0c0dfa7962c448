//! Baseline FaaS keep-alive and scaling policies the CIDRE paper
//! compares against (§4, "Compared Baselines").
//!
//! | Paper baseline | Here | Notes |
//! |---|---|---|
//! | TTL (OpenLambda default) | [`TtlKeepAlive`] | 10-minute expiry |
//! | LRU | [`faas_sim::LruKeepAlive`] | re-exported as [`LruKeepAlive`] |
//! | FaasCache (GDSF) | [`GdsfKeepAlive::faascache`] | Eq. 1 |
//! | FaasCache-C (§2.4 what-if) | [`GdsfKeepAlive::faascache_c`] | Eq. 2 |
//! | RainbowCake | [`RainbowCakeKeepAlive`] | layer-wise sharing, simplified |
//! | IceBreaker | [`IceBreakerKeepAlive`] + [`IceBreakerPrewarm`] | harmonic-mean predictor |
//! | CodeCrunch | [`CodeCrunchKeepAlive`] | compressed-image restarts |
//! | Flame | [`FlameKeepAlive`] | hot/cold rate classification |
//! | ENSURE | [`EnsureKeepAlive`] + [`EnsurePrewarm`] | burst-buffer autoscaling |
//! | Offline | [`OfflineKeepAlive`] + [`OracleScaler`] | Belady + future knowledge |
//! | Queue-length what-ifs (Figs. 5–7) | [`QueueLengthScaler`] | fixed per-container queues |
//!
//! Each module's documentation states exactly which aspects of the
//! original system are reproduced and which are simplified (the
//! simplifications are also catalogued in `DESIGN.md` §2).
//!
//! # Examples
//!
//! ```
//! use faas_policies::faascache_stack;
//! use faas_sim::{run, SimConfig};
//! use faas_trace::gen;
//!
//! let trace = gen::azure(3).functions(10).minutes(1).build();
//! let report = run(&trace, &SimConfig::default(), faascache_stack());
//! assert_eq!(report.requests.len(), trace.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// DESIGN.md §8, in library code outside tests: no walk of a hash
// collection and no environment read (O1, E1), no printing (P1).
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::iter_over_hash_type,
        clippy::print_stdout,
        clippy::print_stderr
    )
)]

mod classic;
mod codecrunch;
mod ensure;
mod flame;
mod gdsf;
mod icebreaker;
mod offline;
mod queue_length;
mod rainbowcake;
mod ttl;

pub use classic::LfuKeepAlive;
pub use codecrunch::CodeCrunchKeepAlive;
pub use ensure::{EnsureKeepAlive, EnsurePrewarm};
pub use flame::FlameKeepAlive;
pub use gdsf::GdsfKeepAlive;
pub use icebreaker::{IceBreakerKeepAlive, IceBreakerPrewarm};
pub use offline::{OfflineKeepAlive, OracleScaler};
pub use queue_length::QueueLengthScaler;
pub use rainbowcake::RainbowCakeKeepAlive;
pub use ttl::TtlKeepAlive;

pub use faas_sim::LruKeepAlive;

use faas_sim::{AlwaysCold, PolicyStack};
use faas_trace::Trace;

/// OpenLambda's default: 10-minute TTL keep-alive, always-cold scaling.
pub fn ttl_stack() -> PolicyStack {
    PolicyStack::new(
        Box::new(TtlKeepAlive::paper_default()),
        Box::new(AlwaysCold),
    )
}

/// TTL keep-alive with a caller-chosen expiry, always-cold scaling.
/// The expiry is the keep-warm-aggressiveness axis of the `pareto`
/// sweep: longer TTLs buy warm starts with idle GB-seconds.
pub fn ttl_stack_with(ttl: faas_trace::TimeDelta) -> PolicyStack {
    PolicyStack::new(Box::new(TtlKeepAlive::new(ttl)), Box::new(AlwaysCold))
}

/// LRU keep-alive, always-cold scaling.
pub fn lru_stack() -> PolicyStack {
    PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysCold))
}

/// LFU keep-alive, always-cold scaling (extra classic baseline).
pub fn lfu_stack() -> PolicyStack {
    PolicyStack::new(Box::new(LfuKeepAlive), Box::new(AlwaysCold))
}

/// GreedyDual keep-alive (cost-only GDSF), always-cold scaling (extra
/// classic baseline).
pub fn greedydual_stack() -> PolicyStack {
    PolicyStack::new(Box::new(GdsfKeepAlive::greedydual()), Box::new(AlwaysCold))
}

/// Vanilla FaasCache: GDSF keep-alive (Eq. 1), always-cold scaling.
pub fn faascache_stack() -> PolicyStack {
    PolicyStack::new(Box::new(GdsfKeepAlive::faascache()), Box::new(AlwaysCold))
}

/// FaasCache-C: the §2.4 concurrency-aware GDSF variant (Eq. 2).
pub fn faascache_c_stack() -> PolicyStack {
    PolicyStack::new(Box::new(GdsfKeepAlive::faascache_c()), Box::new(AlwaysCold))
}

/// Modified FaasCache with per-container queues of at most `limit`
/// requests (`None` = unbounded), the Figs. 5–7 what-if configuration.
pub fn faascache_queue_stack(limit: Option<usize>) -> PolicyStack {
    PolicyStack::new(
        Box::new(GdsfKeepAlive::faascache()),
        Box::new(QueueLengthScaler::new(limit)),
    )
}

/// RainbowCake: layer-wise keep-alive and sharing.
pub fn rainbowcake_stack() -> PolicyStack {
    PolicyStack::new(
        Box::new(RainbowCakeKeepAlive::paper_default()),
        Box::new(AlwaysCold),
    )
}

/// IceBreaker: cost-aware keep-alive plus predictive prewarming.
pub fn icebreaker_stack() -> PolicyStack {
    PolicyStack::new(Box::new(IceBreakerKeepAlive), Box::new(AlwaysCold))
        .with_prewarm(Box::new(IceBreakerPrewarm::new()))
}

/// CodeCrunch: compression-aware keep-alive.
pub fn codecrunch_stack() -> PolicyStack {
    PolicyStack::new(Box::new(CodeCrunchKeepAlive::new()), Box::new(AlwaysCold))
}

/// Flame: centralized hot/cold cache control.
pub fn flame_stack() -> PolicyStack {
    PolicyStack::new(Box::new(FlameKeepAlive), Box::new(AlwaysCold))
}

/// ENSURE: burst-buffer autoscaling with idle deactivation.
pub fn ensure_stack() -> PolicyStack {
    PolicyStack::new(Box::new(EnsureKeepAlive), Box::new(AlwaysCold))
        .with_prewarm(Box::new(EnsurePrewarm::new()))
}

/// Offline: Belady's MIN eviction plus oracle scaling, the upper bound.
/// Needs the trace that will be replayed.
pub fn offline_stack(trace: &Trace) -> PolicyStack {
    PolicyStack::new(
        Box::new(OfflineKeepAlive::new(trace)),
        Box::new(OracleScaler),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{run, SimConfig};
    use faas_trace::gen;

    #[test]
    fn all_stacks_complete_a_workload() {
        let trace = gen::azure(17).functions(15).minutes(1).build();
        let cfg = SimConfig::default().workers_mb(vec![8_192]);
        let stacks: Vec<PolicyStack> = vec![
            ttl_stack(),
            lru_stack(),
            faascache_stack(),
            faascache_c_stack(),
            faascache_queue_stack(Some(1)),
            rainbowcake_stack(),
            icebreaker_stack(),
            codecrunch_stack(),
            flame_stack(),
            ensure_stack(),
            offline_stack(&trace),
        ];
        for stack in stacks {
            let label = stack.label();
            let report = run(&trace, &cfg, stack);
            assert_eq!(
                report.requests.len(),
                trace.len(),
                "stack {label} dropped requests"
            );
        }
    }

    #[test]
    fn ttl_stack_with_sets_the_expiry() {
        use faas_trace::TimeDelta;
        // A one-second TTL must evict far more aggressively than the
        // 10-minute default on the same workload, trading warm hits
        // for a smaller resident set.
        let trace = gen::azure(17).functions(15).minutes(2).build();
        let cfg = SimConfig::default().workers_mb(vec![8_192]);
        let short = run(&trace, &cfg, ttl_stack_with(TimeDelta::from_secs(1)));
        let long = run(&trace, &cfg, ttl_stack_with(TimeDelta::from_minutes(10)));
        assert_eq!(ttl_stack_with(TimeDelta::from_secs(1)).label(), "ttl+cold");
        assert!(
            short.containers_evicted > long.containers_evicted,
            "short TTL evicted {} vs long {}",
            short.containers_evicted,
            long.containers_evicted
        );
    }

    #[test]
    fn stack_labels() {
        assert_eq!(ttl_stack().label(), "ttl+cold");
        assert_eq!(faascache_stack().label(), "faascache+cold");
        assert_eq!(faascache_c_stack().label(), "faascache-c+cold");
        assert_eq!(rainbowcake_stack().label(), "rainbowcake+cold");
        assert_eq!(icebreaker_stack().label(), "icebreaker+cold");
        assert_eq!(ensure_stack().label(), "ensure+cold");
    }
}
