//! Time-to-live keep-alive — OpenLambda's default policy.

use faas_sim::{ContainerId, ContainerInfo, KeepAlive, PolicyCtx};
use faas_trace::TimeDelta;

/// TTL keep-alive: every warm container expires a fixed interval after
/// its last use (10 minutes by default, the paper's OpenLambda setting).
/// Under memory pressure before expiry, the oldest-idle container is
/// evicted first (priority = last-use time).
///
/// # Examples
///
/// ```
/// use faas_policies::TtlKeepAlive;
/// use faas_sim::KeepAlive;
/// use faas_trace::TimeDelta;
///
/// let ttl = TtlKeepAlive::new(TimeDelta::from_minutes(10));
/// assert_eq!(ttl.name(), "ttl");
/// ```
#[derive(Debug, Clone)]
pub struct TtlKeepAlive {
    ttl: TimeDelta,
}

impl TtlKeepAlive {
    /// Creates the policy with the given expiration interval.
    pub fn new(ttl: TimeDelta) -> Self {
        Self { ttl }
    }

    /// The paper's default: 10 minutes.
    pub fn paper_default() -> Self {
        Self::new(TimeDelta::from_minutes(10))
    }
}

impl KeepAlive for TtlKeepAlive {
    fn name(&self) -> &str {
        "ttl"
    }

    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        container.last_used.as_micros() as f64
    }

    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        ctx.all_iter()
            .filter(|c| {
                c.threads_in_use == 0
                    && ctx.now.saturating_since(c.last_used) >= self.ttl
                    // Never expire a container younger than the TTL even
                    // if it has not served yet (last_used = creation).
                    && ctx.now.saturating_since(c.created_at) >= self.ttl
            })
            .map(|c| c.id)
            .collect()
    }

    fn explain(&self) -> Option<String> {
        Some(format!("ttl_us={}", self.ttl.as_micros()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, WorkerId};
    use faas_trace::{FunctionId, FunctionProfile, TimePoint};

    #[test]
    fn expires_idle_after_ttl() {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(50),
        )];
        let mut cl = ClusterState::new(&[1000], profiles, 1);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let mut ttl = TtlKeepAlive::new(TimeDelta::from_secs(60));

        let before = cl.policy_ctx(TimePoint::from_secs(30));
        assert!(ttl.expirations(&before).is_empty());

        let after = cl.policy_ctx(TimePoint::from_secs(61));
        assert_eq!(ttl.expirations(&after), vec![id]);
    }

    #[test]
    fn busy_containers_never_expire() {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(50),
        )];
        let mut cl = ClusterState::new(&[1000], profiles, 1);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::ZERO, TimePoint::ZERO);
        let mut ttl = TtlKeepAlive::new(TimeDelta::from_secs(1));
        let ctx = cl.policy_ctx(TimePoint::from_secs(100));
        assert!(ttl.expirations(&ctx).is_empty());
    }

    #[test]
    fn pressure_eviction_is_oldest_first() {
        let ttl = TtlKeepAlive::paper_default();
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(50),
        )];
        let cl = ClusterState::new(&[1000], profiles, 1);
        let ctx = cl.policy_ctx(TimePoint::from_secs(10));
        let mk = |ms: u64| ContainerInfo {
            id: ContainerId(0),
            func: FunctionId(0),
            worker: WorkerId(0),
            mem_mb: 100,
            cold_start: TimeDelta::from_millis(50),
            created_at: TimePoint::ZERO,
            last_used: TimePoint::from_millis(ms),
            served: 1,
            threads_in_use: 0,
            local_queue_len: 0,
        };
        assert!(ttl.priority(&mk(10), &ctx) < ttl.priority(&mk(20), &ctx));
    }
}
