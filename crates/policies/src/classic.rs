//! Classic cache-eviction baselines beyond the paper's line-up: LFU and
//! GreedyDual. Useful reference points when studying how much of
//! FaasCache's GDSF advantage comes from frequency vs cost awareness.

use std::collections::HashMap;

use faas_sim::{ContainerId, ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx, PriorityDeps};

/// Least-frequently-used keep-alive: priority is the function's total
/// invocation count. Frequency without recency or cost awareness — the
/// classic failure mode is clinging to formerly-hot functions.
///
/// # Examples
///
/// ```
/// use faas_policies::LfuKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(LfuKeepAlive.name(), "lfu");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LfuKeepAlive;

impl KeepAlive for LfuKeepAlive {
    fn name(&self) -> &str {
        "lfu"
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        ctx.invocations(container.func) as f64
    }

    fn priority_deps(&self) -> PriorityDeps {
        // Invocation counts only grow, so cached priorities are
        // stale-low at worst.
        PriorityDeps::FunctionFreq
    }
}

/// GreedyDual keep-alive (Young, 1994): cost-aware aging without the
/// frequency term — `Priority = Clock + Cost(c)`, where the clock rises
/// to each evicted priority. GDSF (FaasCache) extends this with
/// frequency and size; comparing the two isolates those terms' value.
///
/// # Examples
///
/// ```
/// use faas_policies::GreedyDualKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(GreedyDualKeepAlive::new().name(), "greedydual");
/// ```
#[derive(Debug, Default)]
pub struct GreedyDualKeepAlive {
    clock: f64,
    base: HashMap<ContainerId, f64, IdBuildHasher>,
}

impl GreedyDualKeepAlive {
    /// Creates the policy with a zero clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current global clock.
    pub fn clock(&self) -> f64 {
        self.clock
    }
}

impl KeepAlive for GreedyDualKeepAlive {
    fn name(&self) -> &str {
        "greedydual"
    }

    fn on_reuse(&mut self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) {
        self.base.insert(container.id, self.clock);
    }

    fn on_admit(
        &mut self,
        container: &ContainerInfo,
        _evicted: &[ContainerInfo],
        _ctx: &PolicyCtx<'_>,
    ) {
        self.base.insert(container.id, self.clock);
    }

    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let p = self.priority(container, ctx);
        if p > self.clock {
            self.clock = p;
        }
        self.base.remove(&container.id);
    }

    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        self.base.get(&container.id).copied().unwrap_or(self.clock)
            + container.cold_start.as_millis_f64()
    }

    fn priority_deps(&self) -> PriorityDeps {
        // Every live container has a `base` entry (set on admission,
        // removed only on eviction), so its priority never reads the
        // moving clock and is frozen while idle.
        PriorityDeps::ContainerLocal
    }

    fn explain(&self) -> Option<String> {
        Some(format!("clock={:.3} bases={}", self.clock, self.base.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, WorkerId};
    use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};
    use std::collections::HashMap as Map;

    fn cluster() -> ClusterState {
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "hot", 100, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "dear", 100, TimeDelta::from_millis(900)),
        ];
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        for f in [0u32, 1] {
            let id = cl.begin_provision(FunctionId(f), WorkerId(0), TimePoint::ZERO, false);
            cl.finish_provision(id, TimePoint::ZERO);
        }
        cl
    }

    fn info(cl: &ClusterState, id: u64) -> ContainerInfo {
        ContainerInfo::from(cl.container(ContainerId(id)).expect("live"))
    }

    #[test]
    fn lfu_follows_invocation_counts() {
        let mut cl = cluster();
        for _ in 0..5 {
            cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        }
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let busy = Map::new();
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        let lfu = LfuKeepAlive;
        assert!(lfu.priority(&info(&cl, 0), &ctx) > lfu.priority(&info(&cl, 1), &ctx));
    }

    #[test]
    fn greedydual_prefers_costly_containers() {
        let cl = cluster();
        let busy = Map::new();
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        let gd = GreedyDualKeepAlive::new();
        // fn1's container cost 900 ms > fn0's 100 ms.
        assert!(gd.priority(&info(&cl, 1), &ctx) > gd.priority(&info(&cl, 0), &ctx));
    }

    #[test]
    fn greedydual_clock_ages_survivors() {
        let cl = cluster();
        let busy = Map::new();
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        let mut gd = GreedyDualKeepAlive::new();
        let cheap = info(&cl, 0);
        gd.on_evict(&cheap, &ctx);
        assert!((gd.clock() - 100.0).abs() < 1e-9);
        // A new admission starts from the raised clock.
        let other = info(&cl, 1);
        gd.on_admit(&other, &[], &ctx);
        assert!((gd.priority(&other, &ctx) - (100.0 + 900.0)).abs() < 1e-9);
    }

    #[test]
    fn full_runs_complete() {
        use faas_sim::{run, AlwaysCold, PolicyStack, SimConfig};
        let trace = faas_trace::gen::fc(5).functions(8).minutes(1).build();
        for stack in [
            PolicyStack::new(Box::new(LfuKeepAlive), Box::new(AlwaysCold)),
            PolicyStack::new(Box::new(GreedyDualKeepAlive::new()), Box::new(AlwaysCold)),
        ] {
            let report = run(&trace, &SimConfig::with_cache_gb(6), stack);
            assert_eq!(report.requests.len(), trace.len());
        }
    }
}
