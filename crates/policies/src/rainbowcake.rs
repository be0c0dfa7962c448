//! RainbowCake-style layered keep-alive (simplified re-implementation).
//!
//! RainbowCake (Yu et al., ASPLOS 2024) decomposes containers into three
//! layers — bare container, language runtime, and user code — keeps
//! evicted containers' layers alive with per-layer TTLs, and shares
//! common layers across functions to cheapen cold starts.
//!
//! This reproduction models the *latency* effect of layer sharing, the
//! part the CIDRE paper's comparison hinges on: when a container is
//! evicted, its user layer (exact function) and language layer (runtime
//! class) linger for their TTLs; a subsequent cold start consumes a
//! matching cached layer and pays only the missing layers' share of the
//! provisioning latency. Under high concurrency cached layers run out —
//! exactly the contention effect §5.1/§5.4 describe. Simplification:
//! lingering layers are not charged against worker memory (they are
//! small relative to full containers); this is documented in DESIGN.md.

use std::collections::HashMap;

use faas_sim::{ContainerId, ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx};
use faas_trace::{FunctionId, TimeDelta, TimePoint};

/// Number of distinct language-runtime classes functions hash into.
const RUNTIME_CLASSES: u32 = 8;

/// Fraction of the full cold start still paid when a cached *user* layer
/// (exact function) is hit: only the bare-container share.
const USER_HIT_FACTOR: f64 = 0.45;

/// Fraction paid when only a *language* layer (same runtime class) is
/// hit: bare container + user code, but no runtime init.
const LANG_HIT_FACTOR: f64 = 0.75;

/// Cached layers kept per function (user) and per runtime class (lang).
/// Real RainbowCake charges layers against worker memory; this
/// reproduction keeps them free but *scarce*, which produces the same
/// contention under concurrency (DESIGN.md documents the substitution).
const USER_POOL_CAP: usize = 1;
const LANG_POOL_CAP: usize = 4;

/// The runtime class a function's containers share layers within.
fn runtime_class(func: FunctionId) -> u32 {
    func.0 % RUNTIME_CLASSES
}

/// Simplified RainbowCake keep-alive: LRU pressure eviction, per-layer
/// TTL retention of evicted containers' layers, and partial cold starts
/// on layer hits.
///
/// # Examples
///
/// ```
/// use faas_policies::RainbowCakeKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(RainbowCakeKeepAlive::paper_default().name(), "rainbowcake");
/// ```
#[derive(Debug)]
pub struct RainbowCakeKeepAlive {
    container_ttl: TimeDelta,
    user_ttl: TimeDelta,
    lang_ttl: TimeDelta,
    /// Cached user layers: function -> expiry times (one per evicted
    /// container, consumed on reuse).
    user_layers: HashMap<FunctionId, Vec<TimePoint>, IdBuildHasher>,
    /// Cached language layers: runtime class -> expiry times.
    lang_layers: HashMap<u32, Vec<TimePoint>, IdBuildHasher>,
}

impl RainbowCakeKeepAlive {
    /// Creates the policy with explicit TTLs for whole idle containers,
    /// cached user layers, and cached language layers.
    pub fn new(container_ttl: TimeDelta, user_ttl: TimeDelta, lang_ttl: TimeDelta) -> Self {
        Self {
            container_ttl,
            user_ttl,
            lang_ttl,
            user_layers: HashMap::default(),
            lang_layers: HashMap::default(),
        }
    }

    /// Defaults mirroring the RainbowCake paper's layer-TTL ordering:
    /// short container TTL (90 s), longer user-layer (2 min) and
    /// language-layer (5 min) retention.
    pub fn paper_default() -> Self {
        Self::new(
            TimeDelta::from_secs(90),
            TimeDelta::from_secs(60),
            TimeDelta::from_minutes(3),
        )
    }

    /// Number of live cached user layers for `func` at `now`.
    pub fn cached_user_layers(&self, func: FunctionId, now: TimePoint) -> usize {
        self.user_layers
            .get(&func)
            .map(|v| v.iter().filter(|&&e| e > now).count())
            .unwrap_or(0)
    }

    fn take_layer(pool: &mut Vec<TimePoint>, now: TimePoint) -> bool {
        pool.retain(|&e| e > now);
        pool.pop().is_some()
    }
}

impl KeepAlive for RainbowCakeKeepAlive {
    fn name(&self) -> &str {
        "rainbowcake"
    }

    fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        container.last_used.as_micros() as f64
    }

    fn priority_deps(&self) -> faas_sim::PriorityDeps {
        // Layer pools affect provisioning latency, not priorities;
        // priority itself is the frozen last-use time.
        faas_sim::PriorityDeps::ContainerLocal
    }

    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        // The evicted container's layers linger, up to the pool caps.
        let user = self.user_layers.entry(container.func).or_default();
        user.retain(|&e| e > ctx.now);
        if user.len() < USER_POOL_CAP {
            user.push(ctx.now + self.user_ttl);
        }
        let lang = self
            .lang_layers
            .entry(runtime_class(container.func))
            .or_default();
        lang.retain(|&e| e > ctx.now);
        if lang.len() < LANG_POOL_CAP {
            lang.push(ctx.now + self.lang_ttl);
        }
    }

    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        // Layer-wise keep-alive still expires whole idle containers.
        ctx.all_iter()
            .filter(|c| {
                c.threads_in_use == 0
                    && ctx.now.saturating_since(c.last_used) >= self.container_ttl
                    && ctx.now.saturating_since(c.created_at) >= self.container_ttl
            })
            .map(|c| c.id)
            .collect()
    }

    fn provision_latency(&mut self, func: FunctionId, ctx: &PolicyCtx<'_>) -> Option<TimeDelta> {
        let full = ctx.profile(func).cold_start;
        if let Some(pool) = self.user_layers.get_mut(&func) {
            if Self::take_layer(pool, ctx.now) {
                return Some(full.scale(USER_HIT_FACTOR));
            }
        }
        if let Some(pool) = self.lang_layers.get_mut(&runtime_class(func)) {
            if Self::take_layer(pool, ctx.now) {
                return Some(full.scale(LANG_HIT_FACTOR));
            }
        }
        None
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "summing lengths over the maps' values is iteration-order-independent, \
                  so the note is deterministic"
    )]
    fn explain(&self) -> Option<String> {
        // Pool sizes include expired-but-unpruned entries (pruning only
        // happens on use).
        let user: usize = self.user_layers.values().map(Vec::len).sum();
        let lang: usize = self.lang_layers.values().map(Vec::len).sum();
        Some(format!("user_layers={user} lang_layers={lang}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, WorkerId};
    use faas_trace::FunctionProfile;
    use std::collections::HashMap as Map;

    fn harness() -> ClusterState {
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "a", 100, TimeDelta::from_millis(1_000)),
            // Same runtime class as fn0 (8 % 8 == 0 % 8).
            FunctionProfile::new(FunctionId(8), "b", 100, TimeDelta::from_millis(1_000)),
            // Different runtime class.
            FunctionProfile::new(FunctionId(3), "c", 100, TimeDelta::from_millis(1_000)),
        ];
        ClusterState::new(&[100_000], profiles, 1)
    }

    fn evicted_info(cl: &mut ClusterState, f: u32) -> ContainerInfo {
        let id = cl.begin_provision(FunctionId(f), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.evict(id, TimePoint::ZERO)
    }

    #[test]
    fn user_layer_hit_is_cheapest() {
        let mut cl = harness();
        let busy = Map::new();
        let mut rc = RainbowCakeKeepAlive::paper_default();
        let info = evicted_info(&mut cl, 0);
        rc.on_evict(&info, &PolicyCtx::new(TimePoint::ZERO, &cl, &busy));
        let ctx = PolicyCtx::new(TimePoint::from_secs(10), &cl, &busy);
        let lat = rc
            .provision_latency(FunctionId(0), &ctx)
            .expect("user layer hit");
        assert_eq!(lat, TimeDelta::from_millis(450));
    }

    #[test]
    fn lang_layer_shared_across_functions() {
        let mut cl = harness();
        let busy = Map::new();
        let mut rc = RainbowCakeKeepAlive::paper_default();
        let info = evicted_info(&mut cl, 0);
        rc.on_evict(&info, &PolicyCtx::new(TimePoint::ZERO, &cl, &busy));
        // fn8 shares fn0's runtime class but not its user layer.
        let ctx = PolicyCtx::new(TimePoint::from_secs(10), &cl, &busy);
        let lat = rc
            .provision_latency(FunctionId(8), &ctx)
            .expect("lang layer hit");
        assert_eq!(lat, TimeDelta::from_millis(750));
        // fn3 is in another class: full cold start.
        let ctx = PolicyCtx::new(TimePoint::from_secs(10), &cl, &busy);
        assert_eq!(rc.provision_latency(FunctionId(3), &ctx), None);
    }

    #[test]
    fn layers_are_consumed_under_concurrency() {
        let mut cl = harness();
        let busy = Map::new();
        let mut rc = RainbowCakeKeepAlive::paper_default();
        let info = evicted_info(&mut cl, 0);
        rc.on_evict(&info, &PolicyCtx::new(TimePoint::ZERO, &cl, &busy));
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        assert!(rc.provision_latency(FunctionId(0), &ctx).is_some());
        // One evicted container yielded one user + one lang layer; a
        // second concurrent cold start gets neither... the user layer is
        // gone, but the lang layer remains for the first asker.
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        let second = rc.provision_latency(FunctionId(0), &ctx);
        assert_eq!(second, Some(TimeDelta::from_millis(750)));
        let ctx = PolicyCtx::new(TimePoint::from_secs(1), &cl, &busy);
        assert_eq!(rc.provision_latency(FunctionId(0), &ctx), None);
    }

    #[test]
    fn layers_expire() {
        let mut cl = harness();
        let busy = Map::new();
        let mut rc = RainbowCakeKeepAlive::paper_default();
        let info = evicted_info(&mut cl, 0);
        rc.on_evict(&info, &PolicyCtx::new(TimePoint::ZERO, &cl, &busy));
        assert_eq!(
            rc.cached_user_layers(FunctionId(0), TimePoint::from_secs(10)),
            1
        );
        // After 10 minutes both layer TTLs (3 and 8 min) are exceeded.
        let ctx = PolicyCtx::new(TimePoint::from_secs(600), &cl, &busy);
        assert_eq!(rc.provision_latency(FunctionId(0), &ctx), None);
        assert_eq!(
            rc.cached_user_layers(FunctionId(0), TimePoint::from_secs(600)),
            0
        );
    }

    #[test]
    fn expires_idle_containers_by_ttl() {
        let mut cl = harness();
        let busy = Map::new();
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let mut rc = RainbowCakeKeepAlive::paper_default();
        let early = PolicyCtx::new(TimePoint::from_secs(30), &cl, &busy);
        assert!(rc.expirations(&early).is_empty());
        let late = PolicyCtx::new(TimePoint::from_secs(120), &cl, &busy);
        assert_eq!(rc.expirations(&late), vec![id]);
    }
}
