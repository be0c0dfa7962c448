//! Concurrency-informed priority (CIP) eviction — the paper's Eq. 3.

use std::collections::HashMap;

use faas_sim::{ContainerId, ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx};

/// CIDRE's keep-alive policy. Each warm container's priority is
///
/// ```text
/// Priority(c) = Clock(c) + Freq(F(c)) * Cost(c) / (Size(c) * |F(c)|)
/// ```
///
/// (Eq. 3), combining container-level statistics (recency via the logical
/// clock, provisioning cost, memory footprint) with function-level
/// concurrency statistics: `Freq` is the function's average invocations
/// per minute over its lifetime (Eq. 4, which ages stale-but-once-hot
/// functions), and `|F(c)|` is its current number of warm containers —
/// functions hoarding many containers lose priority per container,
/// yielding the balanced evictions of §2.4's Observation 2.
///
/// Clock semantics follow §3.3: new containers admitted into a non-full
/// cache start at clock 0; a container admitted by evicting others
/// inherits the maximum priority among the evicted (a logical clock, so
/// priorities are monotone across replacement generations); a reused
/// container's clock absorbs its pre-update priority.
///
/// # Examples
///
/// ```
/// use cidre_core::CipKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(CipKeepAlive::new().name(), "cip");
/// ```
#[derive(Debug, Default)]
pub struct CipKeepAlive {
    clocks: HashMap<ContainerId, f64, IdBuildHasher>,
    /// Final priorities of recently evicted containers, keyed by id.
    /// Admissions look up *their own* victims (the `evicted` slice the
    /// engine reports) here; evictions that happen outside an admission
    /// — crash evictions, TTL-style expirations — also land here but are
    /// never mixed into an unrelated admission's inherited clock.
    evicted_prio: HashMap<ContainerId, f64, IdBuildHasher>,
}

impl CipKeepAlive {
    /// Creates the policy with an empty clock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The container's current logical clock (0 if never set).
    pub fn clock(&self, id: ContainerId) -> f64 {
        self.clocks.get(&id).copied().unwrap_or(0.0)
    }

    /// Number of containers currently holding a logical clock. Every
    /// entry must correspond to a live container — evictions (including
    /// crash evictions) drop the clock — so tests use this to assert no
    /// orphaned clocks leak.
    pub fn tracked_clocks(&self) -> usize {
        self.clocks.len()
    }

    fn compute_priority(&self, c: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        let freq = ctx.freq_per_minute(c.func);
        let cost_ms = c.cold_start.as_millis_f64();
        let size_mb = f64::from(c.mem_mb.max(1));
        let k = ctx.warm_count(c.func).max(1) as f64;
        self.clock(c.id) + freq * cost_ms / (size_mb * k)
    }
}

impl KeepAlive for CipKeepAlive {
    fn name(&self) -> &str {
        "cip"
    }

    fn on_reuse(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        // Clock absorbs the pre-update priority (§3.3).
        let p = self.compute_priority(container, ctx);
        self.clocks.insert(container.id, p);
    }

    fn on_admit(
        &mut self,
        container: &ContainerInfo,
        evicted: &[ContainerInfo],
        ctx: &PolicyCtx<'_>,
    ) {
        // §3.3: inherit the maximum priority among *this admission's*
        // victims, taken from the `evicted` slice itself. Priorities are
        // looked up from the recorded `on_evict` values. The core calls
        // `on_evict` after `ClusterState::evict` has taken the victim out
        // of its function's warm set, so each value reads `|F(c)|` one
        // lower than the REPLACE round (and its `EvictCandidates` record)
        // that chose the victim. A victim never reported through
        // `on_evict` — a desynced channel — falls back to recomputing
        // from its snapshot rather than silently contributing nothing.
        let clock = evicted
            .iter()
            .map(|v| {
                self.evicted_prio
                    .remove(&v.id)
                    .unwrap_or_else(|| self.compute_priority(v, ctx))
            })
            .fold(0.0, f64::max);
        // Entries not claimed by any admission (crash evictions, TTL
        // expirations) must not inflate a later admission's clock.
        self.evicted_prio.clear();
        self.clocks.insert(container.id, clock);
    }

    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let p = self.compute_priority(container, ctx);
        self.evicted_prio.insert(container.id, p);
        self.clocks.remove(&container.id);
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        self.compute_priority(container, ctx)
    }

    fn explain(&self) -> Option<String> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a max folded over the map is iteration-order-independent, so the \
                      note is byte-identical from driver to driver (DESIGN.md §12)"
        )]
        let max_clock = self.clocks.values().fold(0.0f64, |a, &b| a.max(b));
        Some(format!(
            "clocks={} max_clock={max_clock:.3}",
            self.clocks.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, WorkerId};
    use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

    fn cluster_with(counts: &[(u32, usize)]) -> ClusterState {
        // counts: (function id, number of warm containers)
        let profiles: Vec<FunctionProfile> = counts
            .iter()
            .map(|&(f, _)| {
                FunctionProfile::new(
                    FunctionId(f),
                    format!("f{f}"),
                    100,
                    TimeDelta::from_millis(200),
                )
            })
            .collect();
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        for &(f, n) in counts {
            for _ in 0..n {
                let id = cl.begin_provision(FunctionId(f), WorkerId(0), TimePoint::ZERO, false);
                cl.finish_provision(id, TimePoint::ZERO);
            }
        }
        cl
    }

    fn info(cl: &ClusterState, id: ContainerId) -> ContainerInfo {
        ContainerInfo::from(cl.container(id).expect("live"))
    }

    #[test]
    fn more_warm_containers_lower_priority() {
        // fn0 has 1 container, fn1 has 4; same freq => fn1's containers
        // have 4x smaller frequency term.
        let mut cl = cluster_with(&[(0, 1), (1, 4)]);
        let now = TimePoint::from_secs(60);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let ctx = cl.policy_ctx(now);
        let cip = CipKeepAlive::new();
        let p0 = cip.priority(&info(&cl, ContainerId(0)), &ctx);
        let p1 = cip.priority(&info(&cl, ContainerId(1)), &ctx);
        assert!(p0 > p1, "crowded function must rank lower: {p0} vs {p1}");
        assert!((p0 / p1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_decays_over_time() {
        let mut cl = cluster_with(&[(0, 1)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let cip = CipKeepAlive::new();
        let early = cip.priority(
            &info(&cl, ContainerId(0)),
            &cl.policy_ctx(TimePoint::from_secs(60)),
        );
        let late = cip.priority(
            &info(&cl, ContainerId(0)),
            &cl.policy_ctx(TimePoint::from_secs(600)),
        );
        assert!(
            early > late,
            "stale containers must decay: {early} vs {late}"
        );
    }

    #[test]
    fn reuse_inflates_clock() {
        let mut cl = cluster_with(&[(0, 1)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let mut cip = CipKeepAlive::new();
        let id = ContainerId(0);
        let ctx_now = TimePoint::from_secs(30);
        let before = {
            let ctx = cl.policy_ctx(ctx_now);
            cip.priority(&info(&cl, id), &ctx)
        };
        {
            let ctx = cl.policy_ctx(ctx_now);
            let i = info(&cl, id);
            cip.on_reuse(&i, &ctx);
        }
        let after = {
            let ctx = cl.policy_ctx(ctx_now);
            cip.priority(&info(&cl, id), &ctx)
        };
        assert!(after > before);
        assert!((cip.clock(id) - before).abs() < 1e-12);
    }

    #[test]
    fn admitted_with_eviction_inherits_max_evicted_priority() {
        let mut cl = cluster_with(&[(0, 2)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let mut cip = CipKeepAlive::new();
        let now = TimePoint::from_secs(10);
        let (v0, v1) = (ContainerId(0), ContainerId(1));
        let (i0, i1) = (info(&cl, v0), info(&cl, v1));
        let pmax = {
            let ctx = cl.policy_ctx(now);
            cip.priority(&i0, &ctx).max(cip.priority(&i1, &ctx))
        };
        {
            let ctx = cl.policy_ctx(now);
            cip.on_evict(&i0, &ctx);
            cip.on_evict(&i1, &ctx);
        }
        // Admit a new container for fn0.
        let new_id = {
            let id = cl.begin_provision(FunctionId(0), WorkerId(0), now, false);
            cl.finish_provision(id, now);
            id
        };
        {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, new_id);
            cip.on_admit(&i, &[i0, i1], &ctx);
        }
        assert!((cip.clock(new_id) - pmax).abs() < 1e-12);
    }

    #[test]
    fn admitted_without_eviction_starts_at_zero() {
        let mut cl = cluster_with(&[(0, 1)]);
        let mut cip = CipKeepAlive::new();
        let ctx = cl.policy_ctx(TimePoint::ZERO);
        let i = info(&cl, ContainerId(0));
        cip.on_admit(&i, &[], &ctx);
        assert_eq!(cip.clock(ContainerId(0)), 0.0);
        let _ = &mut cl;
    }

    #[test]
    fn crash_eviction_outside_admission_does_not_inflate_clock() {
        // Regression: `on_admit` used to fold the max over every priority
        // reported through `on_evict` since the last admission. A crash
        // eviction (reported outside any admission) therefore leaked into
        // the next admission's inherited clock.
        let mut cl = cluster_with(&[(0, 2), (1, 1)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let mut cip = CipKeepAlive::new();
        let now = TimePoint::from_secs(10);
        // Pump fn1's container to a high priority via repeated reuse.
        let hot = ContainerId(2);
        for _ in 0..5 {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, hot);
            cip.on_reuse(&i, &ctx);
        }
        let p_hot = {
            let ctx = cl.policy_ctx(now);
            cip.priority(&info(&cl, hot), &ctx)
        };
        // Crash-evict the hot container — no admission follows it.
        {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, hot);
            cip.on_evict(&i, &ctx);
        }
        cl.evict(hot, now);
        // A later admission evicts one cold fn0 container.
        let victim = ContainerId(0);
        let vi = info(&cl, victim);
        let p_victim = {
            let ctx = cl.policy_ctx(now);
            cip.priority(&vi, &ctx)
        };
        assert!(p_hot > p_victim, "setup: crash victim must outrank");
        {
            let ctx = cl.policy_ctx(now);
            cip.on_evict(&vi, &ctx);
        }
        cl.evict(victim, now);
        let new_id = cl.begin_provision(FunctionId(0), WorkerId(0), now, false);
        cl.finish_provision(new_id, now);
        {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, new_id);
            cip.on_admit(&i, &[vi], &ctx);
        }
        // The inherited clock comes from this admission's victim only,
        // not from the unrelated crash eviction.
        assert!(
            (cip.clock(new_id) - p_victim).abs() < 1e-12,
            "clock {} leaked the crash victim's priority {p_hot}",
            cip.clock(new_id)
        );
    }

    #[test]
    fn admit_with_unreported_victim_recomputes_instead_of_zero() {
        // Regression: if the eviction channel desyncs in the other
        // direction (victims in the `evicted` slice that never went
        // through `on_evict`), the new container used to start at clock 0.
        let mut cl = cluster_with(&[(0, 1)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let mut cip = CipKeepAlive::new();
        let now = TimePoint::from_secs(60);
        let vi = info(&cl, ContainerId(0));
        let p = {
            let ctx = cl.policy_ctx(now);
            cip.priority(&vi, &ctx)
        };
        assert!(p > 0.0);
        cl.evict(ContainerId(0), now); // cluster-side only; on_evict never fires
        let new_id = cl.begin_provision(FunctionId(0), WorkerId(0), now, false);
        cl.finish_provision(new_id, now);
        {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, new_id);
            cip.on_admit(&i, &[vi], &ctx);
        }
        assert!(
            cip.clock(new_id) > 0.0,
            "unreported victim silently produced clock 0"
        );
    }

    #[test]
    fn eviction_drops_clock_with_no_orphans() {
        let mut cl = cluster_with(&[(0, 2)]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let mut cip = CipKeepAlive::new();
        let now = TimePoint::from_secs(10);
        for id in [ContainerId(0), ContainerId(1)] {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, id);
            cip.on_reuse(&i, &ctx);
        }
        assert_eq!(cip.tracked_clocks(), 2);
        for id in [ContainerId(0), ContainerId(1)] {
            let ctx = cl.policy_ctx(now);
            let i = info(&cl, id);
            cip.on_evict(&i, &ctx);
        }
        assert_eq!(cip.tracked_clocks(), 0, "orphaned clocks after eviction");
    }

    #[test]
    fn cost_and_size_shape_priority() {
        // Higher cost/size ratio => higher priority, matching GDSF logic.
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "cheap", 1000, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "dear", 100, TimeDelta::from_millis(1000)),
        ];
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        let a = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        let b = cl.begin_provision(FunctionId(1), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(a, TimePoint::ZERO);
        cl.finish_provision(b, TimePoint::ZERO);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let ctx = cl.policy_ctx(TimePoint::from_secs(60));
        let cip = CipKeepAlive::new();
        assert!(cip.priority(&info(&cl, b), &ctx) > cip.priority(&info(&cl, a), &ctx));
    }
}
