//! FaasCache's GDSF keep-alive (Eq. 1) and its concurrency-aware variant
//! FaasCache-C (Eq. 2) from the paper's what-if study (§2.4).

use std::collections::HashMap;

use faas_sim::{ContainerId, ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx, PriorityDeps};

/// Greedy-Dual-Size-Frequency keep-alive as used by FaasCache:
///
/// ```text
/// Priority(c) = Clock + Freq(F(c)) * Cost(c) / Size(c)          (Eq. 1)
/// Priority(c) = Clock + Freq(F(c)) * Cost(c) / (Size(c) * K)    (Eq. 2)
/// ```
///
/// where `Freq` is the aggregate number of invocations the function has
/// received (a raw reuse count, unlike CIDRE's per-minute rate), `Cost`
/// the provisioning latency, `Size` the memory footprint, and — in the
/// FaasCache-C variant — `K` the number of warm containers currently
/// cached for the function. The clock is the classic GDSF global logical
/// clock: it rises to the priority of each evicted container, and
/// admitted/reused containers take the current clock as their base, which
/// ages out stale entries.
///
/// # Examples
///
/// ```
/// use faas_policies::GdsfKeepAlive;
/// use faas_sim::KeepAlive;
///
/// assert_eq!(GdsfKeepAlive::faascache().name(), "faascache");
/// assert_eq!(GdsfKeepAlive::faascache_c().name(), "faascache-c");
/// ```
#[derive(Debug, Default)]
pub struct GdsfKeepAlive {
    concurrency_aware: bool,
    clock: f64,
    base: HashMap<ContainerId, f64, IdBuildHasher>,
}

impl GdsfKeepAlive {
    /// Vanilla FaasCache (Eq. 1).
    pub fn faascache() -> Self {
        Self {
            concurrency_aware: false,
            clock: 0.0,
            base: HashMap::default(),
        }
    }

    /// FaasCache-C (Eq. 2): divides the frequency term by the function's
    /// warm-container count.
    pub fn faascache_c() -> Self {
        Self {
            concurrency_aware: true,
            clock: 0.0,
            base: HashMap::default(),
        }
    }

    /// The current global clock value.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    fn compute(&self, c: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        let freq = ctx.invocations(c.func) as f64;
        let cost_ms = c.cold_start.as_millis_f64();
        let size_mb = c.mem_mb.max(1) as f64;
        let k = if self.concurrency_aware {
            ctx.warm_count(c.func).max(1) as f64
        } else {
            1.0
        };
        let base = self.base.get(&c.id).copied().unwrap_or(self.clock);
        base + freq * cost_ms / (size_mb * k)
    }
}

impl KeepAlive for GdsfKeepAlive {
    fn name(&self) -> &str {
        if self.concurrency_aware {
            "faascache-c"
        } else {
            "faascache"
        }
    }

    fn on_reuse(&mut self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) {
        // Classic GDSF: a hit re-bases the object at the current clock.
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
        // The clock rises to the evicted priority, aging the whole cache.
        let p = self.compute(container, ctx);
        if p > self.clock {
            self.clock = p;
        }
        self.base.remove(&container.id);
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        self.compute(container, ctx)
    }

    fn priority_deps(&self) -> PriorityDeps {
        if self.concurrency_aware {
            // Eq. 2 divides by the warm-container count, which shrinks
            // on evictions — priorities can move either way mid-idle.
            PriorityDeps::Volatile
        } else {
            // Eq. 1: per-container base (always present while live)
            // plus a term in the ever-growing invocation count.
            PriorityDeps::FunctionFreq
        }
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

    fn setup(warm: &[(u32, usize)], arrivals: &[(u32, usize)]) -> ClusterState {
        let mut ids: Vec<u32> = warm.iter().map(|&(f, _)| f).collect();
        ids.extend(arrivals.iter().map(|&(f, _)| f));
        ids.sort_unstable();
        ids.dedup();
        let profiles: Vec<FunctionProfile> = ids
            .iter()
            .map(|&f| {
                FunctionProfile::new(
                    FunctionId(f),
                    format!("f{f}"),
                    100,
                    TimeDelta::from_millis(100),
                )
            })
            .collect();
        let mut cl = ClusterState::new(&[1_000_000], profiles, 1);
        for &(f, n) in warm {
            for _ in 0..n {
                let id = cl.begin_provision(FunctionId(f), WorkerId(0), TimePoint::ZERO, false);
                cl.finish_provision(id, TimePoint::ZERO);
            }
        }
        for &(f, n) in arrivals {
            for _ in 0..n {
                cl.note_arrival(FunctionId(f), TimePoint::ZERO);
            }
        }
        cl
    }

    fn info(cl: &ClusterState, id: u64) -> ContainerInfo {
        ContainerInfo::from(cl.container(ContainerId(id)).expect("live"))
    }

    #[test]
    fn frequency_raises_priority() {
        let cl = setup(&[(0, 1), (1, 1)], &[(0, 10), (1, 1)]);
        let ctx = cl.policy_ctx(TimePoint::from_secs(1));
        let g = GdsfKeepAlive::faascache();
        assert!(g.priority(&info(&cl, 0), &ctx) > g.priority(&info(&cl, 1), &ctx));
    }

    #[test]
    fn vanilla_ignores_container_count_c_variant_divides() {
        // Same function stats, but fn0 holds 4 containers vs fn1's 1.
        let cl = setup(&[(0, 4), (1, 1)], &[(0, 8), (1, 8)]);
        let ctx = cl.policy_ctx(TimePoint::from_secs(1));
        let vanilla = GdsfKeepAlive::faascache();
        // Containers 0..3 belong to fn0, container 4 to fn1.
        assert_eq!(
            vanilla.priority(&info(&cl, 0), &ctx),
            vanilla.priority(&info(&cl, 4), &ctx),
            "vanilla GDSF is blind to container counts"
        );
        let aware = GdsfKeepAlive::faascache_c();
        assert!(
            aware.priority(&info(&cl, 0), &ctx) < aware.priority(&info(&cl, 4), &ctx),
            "FaasCache-C must penalise the crowded function"
        );
    }

    #[test]
    fn eviction_raises_clock_and_ages_cache() {
        let cl = setup(&[(0, 2)], &[(0, 4)]);
        let mut g = GdsfKeepAlive::faascache();
        let ctx = cl.policy_ctx(TimePoint::from_secs(1));
        assert_eq!(g.clock(), 0.0);
        let i0 = info(&cl, 0);
        let p0 = g.priority(&i0, &ctx);
        g.on_evict(&i0, &ctx);
        assert_eq!(g.clock(), p0);
        // A freshly admitted container now starts from the raised clock.
        let i1 = info(&cl, 1);
        g.on_admit(&i1, &[], &ctx);
        assert!(g.priority(&i1, &ctx) >= p0);
    }

    #[test]
    fn reuse_rebases_at_current_clock() {
        let cl = setup(&[(0, 1)], &[(0, 2)]);
        let mut g = GdsfKeepAlive::faascache();
        g.clock = 500.0;
        let ctx = cl.policy_ctx(TimePoint::from_secs(1));
        let i = info(&cl, 0);
        // Unknown container defaults to current clock.
        let before = g.priority(&i, &ctx);
        g.on_reuse(&i, &ctx);
        assert_eq!(g.priority(&i, &ctx), before);
        g.clock = 900.0;
        g.on_reuse(&i, &ctx);
        assert!(g.priority(&i, &ctx) > before);
    }
}
