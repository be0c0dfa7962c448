//! Flame-style centralized cache control (simplified).
//!
//! Flame (Yang et al., ASPLOS 2023) uses a globally centralized cache
//! manager that exploits workload skewness: it distinguishes hot
//! functions (high invocation rate) from cold ones and reclaims the cold
//! functions' containers first, keeping the hot working set resident.
//! Our single-cluster simulator already has a global view, so the
//! reproduction reduces to its eviction rule: priority is the function's
//! recent invocation rate, with per-container recency as tie-break.
//! The paper notes Flame "performs worse than CIDRE under high
//! concurrency and high load" because rate-based retention alone neither
//! reuses busy containers nor balances per-function container counts.

use faas_sim::{ContainerInfo, KeepAlive, PolicyCtx};

/// Flame keep-alive: hot/cold classification by invocation rate.
///
/// Priority is `rate_per_minute + recency_fraction`, where the recency
/// fraction is strictly below the rate granularity so it only breaks
/// ties among equally hot functions.
///
/// # Examples
///
/// ```
/// use faas_policies::FlameKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(FlameKeepAlive.name(), "flame");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FlameKeepAlive;

impl KeepAlive for FlameKeepAlive {
    fn name(&self) -> &str {
        "flame"
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        let rate = ctx.freq_per_minute(container.func);
        // Recency tie-break in (0, 1): fraction of the current time.
        let tiebreak = if ctx.now.as_micros() == 0 {
            0.0
        } else {
            container.last_used.as_micros() as f64 / (ctx.now.as_micros() as f64 + 1.0)
        };
        rate + tiebreak
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, ContainerId, WorkerId};
    use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

    #[test]
    fn cold_functions_evicted_before_hot() {
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "hot", 100, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "cold", 100, TimeDelta::from_millis(100)),
        ];
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        for _ in 0..50 {
            cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        }
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let hot = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        let cold = cl.begin_provision(FunctionId(1), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(hot, TimePoint::ZERO);
        cl.finish_provision(cold, TimePoint::ZERO);
        let ctx = cl.policy_ctx(TimePoint::from_secs(60));
        let flame = FlameKeepAlive;
        let ih = ContainerInfo::from(cl.container(hot).expect("live"));
        let ic = ContainerInfo::from(cl.container(cold).expect("live"));
        assert!(flame.priority(&ih, &ctx) > flame.priority(&ic, &ctx));
    }

    #[test]
    fn recency_breaks_ties_within_a_function() {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(100),
        )];
        let cl = ClusterState::new(&[100_000], profiles, 1);
        let ctx = cl.policy_ctx(TimePoint::from_secs(100));
        let flame = FlameKeepAlive;
        let mk = |used_s: u64| ContainerInfo {
            id: ContainerId(0),
            func: FunctionId(0),
            worker: WorkerId(0),
            mem_mb: 100,
            cold_start: TimeDelta::from_millis(100),
            created_at: TimePoint::ZERO,
            last_used: TimePoint::from_secs(used_s),
            served: 1,
            threads_in_use: 0,
            local_queue_len: 0,
        };
        assert!(flame.priority(&mk(90), &ctx) > flame.priority(&mk(10), &ctx));
        // Tie-break never dominates the rate term: it stays below 1.
        assert!(flame.priority(&mk(100), &ctx) - flame.priority(&mk(0), &ctx) <= 1.0);
    }
}
