//! ENSURE-style autoscaling (simplified re-implementation).
//!
//! ENSURE (Suresh et al., ACSOS 2020) scales each function's warm pool to
//! its observed demand plus a "burst buffer" of spare containers, and
//! deactivates containers that sit idle beyond a timeout. The CIDRE paper
//! observes that "proactively reserving additional containers under high
//! concurrency, especially with restricted global memory, can be
//! challenging" (§5.1) — the burst buffers compete with other functions'
//! working sets, which this reproduction captures directly: prewarmed
//! buffers are charged to the same memory pool the keep-alive cache uses.

use std::collections::HashMap;

use faas_sim::{ContainerId, ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx, Prewarm};
use faas_trace::{FunctionId, TimeDelta};

/// Idle timeout after which ENSURE deactivates a container.
const IDLE_TIMEOUT_SECS: u64 = 120;

/// Burst-buffer sizing factor: spare containers per sqrt of the
/// per-tick arrival rate (square-root staffing).
const BURST_FACTOR: f64 = 1.0;

/// Maximum prewarms per function per tick.
const MAX_PREWARM_PER_TICK: u32 = 2;

/// ENSURE keep-alive: LRU under pressure plus idle-timeout deactivation
/// of containers beyond the function's current demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnsureKeepAlive;

impl KeepAlive for EnsureKeepAlive {
    fn name(&self) -> &str {
        "ensure"
    }

    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        container.last_used.as_micros() as f64
    }

    fn priority_deps(&self) -> faas_sim::PriorityDeps {
        // LRU under pressure: last-use time is frozen while idle.
        faas_sim::PriorityDeps::ContainerLocal
    }

    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        let timeout = TimeDelta::from_secs(IDLE_TIMEOUT_SECS);
        ctx.all_iter()
            .filter(|c| {
                c.threads_in_use == 0
                    && ctx.now.saturating_since(c.last_used) >= timeout
                    && ctx.now.saturating_since(c.created_at) >= timeout
            })
            .map(|c| c.id)
            .collect()
    }
}

/// ENSURE's autoscaler (FnScale): tops each function's warm pool up to
/// `busy + ceil(BURST_FACTOR * sqrt(recent arrivals per tick))`.
///
/// # Examples
///
/// ```
/// use faas_policies::EnsurePrewarm;
/// use faas_sim::Prewarm;
/// assert_eq!(EnsurePrewarm::new().name(), "ensure-scale");
/// ```
#[derive(Debug, Default)]
pub struct EnsurePrewarm {
    last_counts: HashMap<FunctionId, u64, IdBuildHasher>,
}

impl EnsurePrewarm {
    /// Creates the autoscaler with empty rate history.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prewarm for EnsurePrewarm {
    fn name(&self) -> &str {
        "ensure-scale"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>) -> Vec<FunctionId> {
        let mut wants = Vec::new();
        for &func in ctx.functions() {
            let total = ctx.invocations(func);
            let last = self.last_counts.insert(func, total).unwrap_or(total);
            let rate = (total - last) as f64;
            if rate == 0.0 {
                continue;
            }
            let busy = ctx.saturated_count(func) as u32;
            let buffer = (BURST_FACTOR * rate.sqrt()).ceil() as u32;
            let desired = busy + buffer;
            let have = ctx.warm_count(func) + ctx.provisioning_count(func);
            if desired > have {
                let need = (desired - have).min(MAX_PREWARM_PER_TICK);
                for _ in 0..need {
                    wants.push(func);
                }
            }
        }
        wants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::ClusterState;
    use faas_trace::{FunctionProfile, TimePoint};

    fn harness() -> ClusterState {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(100),
        )];
        ClusterState::new(&[100_000], profiles, 1)
    }

    #[test]
    fn first_tick_establishes_baseline_without_prewarm() {
        let mut cl = harness();
        for _ in 0..9 {
            cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        }
        let mut pw = EnsurePrewarm::new();
        let ctx = cl.policy_ctx(TimePoint::from_secs(1));
        // First observation has no delta baseline: no prewarm.
        assert!(pw.on_tick(&ctx).is_empty());
    }

    #[test]
    fn burst_buffer_scales_with_sqrt_rate() {
        let mut cl = harness();
        let mut pw = EnsurePrewarm::new();
        let _ = pw.on_tick(&cl.policy_ctx(TimePoint::from_secs(1)));
        for _ in 0..9 {
            cl.note_arrival(FunctionId(0), TimePoint::from_secs(2));
        }
        let wants = pw.on_tick(&cl.policy_ctx(TimePoint::from_secs(2)));
        // rate 9 -> buffer ceil(sqrt(9)) = 3, capped at 2 per tick.
        assert_eq!(wants.len(), 2);
    }

    #[test]
    fn no_arrivals_no_prewarm() {
        let cl = harness();
        let mut pw = EnsurePrewarm::new();
        let _ = pw.on_tick(&cl.policy_ctx(TimePoint::from_secs(1)));
        assert!(pw
            .on_tick(&cl.policy_ctx(TimePoint::from_secs(2)))
            .is_empty());
    }

    #[test]
    fn deactivates_idle_containers() {
        let mut cl = harness();
        let id = cl.begin_provision(FunctionId(0), faas_sim::WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let mut ka = EnsureKeepAlive;
        let early = cl.policy_ctx(TimePoint::from_secs(60));
        assert!(ka.expirations(&early).is_empty());
        let late = cl.policy_ctx(TimePoint::from_secs(IDLE_TIMEOUT_SECS + 1));
        assert_eq!(ka.expirations(&late), vec![id]);
    }
}
