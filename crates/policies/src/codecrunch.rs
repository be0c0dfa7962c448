//! CodeCrunch-style compression-aware keep-alive (simplified).
//!
//! CodeCrunch (Basu Roy et al., ASPLOS 2024) compresses idle function
//! state under memory pressure so that restarting a recently evicted
//! function pays a decompression cost instead of a full cold start. This
//! reproduction models that effect as a bounded cache of "compressed
//! images": when an idle container is evicted, its function's image
//! enters the compressed cache; a subsequent cold start within the
//! retention window pays a configurable fraction of the full
//! provisioning latency. The warm-up location optimization across
//! heterogeneous servers degenerates on the paper's homogeneous testbed
//! (§5.1) and is not modeled.

use std::collections::{BTreeSet, HashMap};

use faas_sim::{ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx};
use faas_trace::{FunctionId, TimeDelta, TimePoint};

/// Fraction of the full cold start paid when restoring from a compressed
/// image (decompression + code load, no image pull or runtime build).
const DECOMPRESS_FACTOR: f64 = 0.45;

/// Maximum functions retained in the compressed cache.
const COMPRESSED_CAPACITY: usize = 128;

/// Compressed-image retention window.
const RETENTION_SECS: u64 = 600;

/// CodeCrunch keep-alive: GDSF-style cost/size priority plus a compressed
/// image cache that discounts repeat cold starts.
///
/// # Examples
///
/// ```
/// use faas_policies::CodeCrunchKeepAlive;
/// use faas_sim::KeepAlive;
/// assert_eq!(CodeCrunchKeepAlive::new().name(), "codecrunch");
/// ```
#[derive(Debug, Default)]
pub struct CodeCrunchKeepAlive {
    /// When each cached function's image was taken: read by key (once
    /// per eviction candidate) and by `len`, never walked.
    compressed: HashMap<FunctionId, TimePoint, IdBuildHasher>,
    /// The same entries ordered by age, oldest first: what `prune`
    /// expires and overflows from, one pop per victim.
    by_age: BTreeSet<(TimePoint, FunctionId)>,
}

impl CodeCrunchKeepAlive {
    /// Creates the policy with an empty compressed cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `func` currently has a live compressed image.
    pub fn has_compressed(&self, func: FunctionId, now: TimePoint) -> bool {
        self.compressed
            .get(&func)
            .map(|&at| now.saturating_since(at) <= TimeDelta::from_secs(RETENTION_SECS))
            .unwrap_or(false)
    }

    /// Records a compressed image of `func` taken at `now`, replacing
    /// any older one.
    fn insert(&mut self, func: FunctionId, now: TimePoint) {
        if let Some(old) = self.compressed.insert(func, now) {
            self.by_age.remove(&(old, func));
        }
        self.by_age.insert((now, func));
    }

    /// Drops expired images, then the oldest beyond capacity, in
    /// `(time, id)` order. Expired entries are a prefix of `by_age`, so
    /// both are pops off its front.
    fn prune(&mut self, now: TimePoint) {
        let retention = TimeDelta::from_secs(RETENTION_SECS);
        while let Some(&(at, func)) = self.by_age.first() {
            if now.saturating_since(at) <= retention && self.by_age.len() <= COMPRESSED_CAPACITY {
                break;
            }
            self.by_age.pop_first();
            self.compressed.remove(&func);
        }
    }
}

impl KeepAlive for CodeCrunchKeepAlive {
    fn name(&self) -> &str {
        "codecrunch"
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        // Cost-aware retention, with the effective cost discounted when a
        // compressed image exists (re-creating such a container is cheap,
        // so it is a better eviction victim).
        let freq = ctx.freq_per_minute(container.func);
        let mut cost_ms = container.cold_start.as_millis_f64();
        if self.has_compressed(container.func, ctx.now) {
            cost_ms *= DECOMPRESS_FACTOR;
        }
        freq * cost_ms / container.mem_mb.max(1) as f64
    }

    fn priority_deps(&self) -> faas_sim::PriorityDeps {
        // IceBreaker's priority with a per-function discount that comes
        // and goes with the compressed image: volatile, but of the
        // container it reads the function and the profile's cold start
        // and size only.
        faas_sim::PriorityDeps::Function
    }

    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        self.insert(container.func, ctx.now);
        self.prune(ctx.now);
    }

    fn provision_latency(&mut self, func: FunctionId, ctx: &PolicyCtx<'_>) -> Option<TimeDelta> {
        if self.has_compressed(func, ctx.now) {
            Some(ctx.profile(func).cold_start.scale(DECOMPRESS_FACTOR))
        } else {
            None
        }
    }

    fn explain(&self) -> Option<String> {
        Some(format!("compressed_images={}", self.compressed.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, WorkerId};
    use faas_testkit::Checker;
    use faas_trace::FunctionProfile;
    use std::collections::BTreeMap;

    fn harness() -> ClusterState {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(1_000),
        )];
        ClusterState::new(&[100_000], profiles, 1)
    }

    #[test]
    fn eviction_populates_compressed_cache() {
        let mut cl = harness();
        let mut cc = CodeCrunchKeepAlive::new();
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let info = cl.evict(id, TimePoint::ZERO);
        cc.on_evict(&info, &cl.policy_ctx(TimePoint::from_secs(1)));
        assert!(cc.has_compressed(FunctionId(0), TimePoint::from_secs(2)));
        let ctx = cl.policy_ctx(TimePoint::from_secs(2));
        assert_eq!(
            cc.provision_latency(FunctionId(0), &ctx),
            Some(TimeDelta::from_millis(450))
        );
    }

    #[test]
    fn compressed_image_expires() {
        let mut cl = harness();
        let mut cc = CodeCrunchKeepAlive::new();
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let info = cl.evict(id, TimePoint::ZERO);
        cc.on_evict(&info, &cl.policy_ctx(TimePoint::ZERO));
        let late = TimePoint::from_secs(RETENTION_SECS + 1);
        assert!(!cc.has_compressed(FunctionId(0), late));
        let ctx = cl.policy_ctx(late);
        assert_eq!(cc.provision_latency(FunctionId(0), &ctx), None);
    }

    #[test]
    fn compressed_functions_are_better_victims() {
        let mut cl = harness();
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let mut cc = CodeCrunchKeepAlive::new();
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        let info = ContainerInfo::from(cl.container(id).expect("live"));
        let ctx_now = TimePoint::from_secs(30);
        let before = cc.priority(&info, &cl.policy_ctx(ctx_now));
        cc.insert(FunctionId(0), ctx_now);
        let after = cc.priority(&info, &cl.policy_ctx(ctx_now));
        assert!(after < before);
    }

    #[test]
    fn cache_capacity_is_bounded() {
        let mut cc = CodeCrunchKeepAlive::new();
        for i in 0..(COMPRESSED_CAPACITY as u32 + 50) {
            cc.insert(FunctionId(i), TimePoint::from_secs(i as u64));
        }
        cc.prune(TimePoint::from_secs(100));
        assert!(cc.compressed.len() <= COMPRESSED_CAPACITY);
        // The oldest entries were dropped.
        assert!(!cc.compressed.contains_key(&FunctionId(0)));
    }

    /// The `prune` this file shipped with, kept as the oracle: `retain`
    /// the unexpired, then collect, sort by `(time, id)` and drop the
    /// oldest beyond capacity.
    fn prune_reference(compressed: &mut BTreeMap<FunctionId, TimePoint>, now: TimePoint) {
        compressed
            .retain(|_, &mut at| now.saturating_since(at) <= TimeDelta::from_secs(RETENTION_SECS));
        if compressed.len() > COMPRESSED_CAPACITY {
            let mut entries: Vec<(FunctionId, TimePoint)> =
                compressed.iter().map(|(&f, &t)| (f, t)).collect();
            entries.sort_by_key(|&(f, t)| (t, f));
            for (f, _) in entries
                .into_iter()
                .take(compressed.len() - COMPRESSED_CAPACITY)
            {
                compressed.remove(&f);
            }
        }
    }

    /// Random insert/advance sequences: re-inserts of a cached function,
    /// clock jumps past the retention window, bursts that overflow the
    /// cap by more than one before the next prune, and a clock that
    /// steps back (the live drivers' wall clock can).
    #[test]
    fn ordered_index_prunes_what_the_sort_pruned() {
        Checker::new("codecrunch_ordered_index_prunes_what_the_sort_pruned").run(|g| {
            let mut cc = CodeCrunchKeepAlive::new();
            let mut model: BTreeMap<FunctionId, TimePoint> = BTreeMap::new();
            let functions = g.u32(1..400);
            let mut now_s = g.u64(0..2_000);
            for _ in 0..g.u32(1..600) {
                now_s = match g.u32(0..10) {
                    0 => now_s + g.u64(0..2 * RETENTION_SECS),
                    1 => now_s.saturating_sub(g.u64(0..30)),
                    _ => now_s + g.u64(0..5),
                };
                let now = TimePoint::from_secs(now_s);
                for _ in 0..g.u32(1..4) {
                    let func = FunctionId(g.u32(0..functions));
                    cc.insert(func, now);
                    model.insert(func, now);
                }
                if g.bool(0.7) {
                    cc.prune(now);
                    prune_reference(&mut model, now);
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "collected into a sorted map before it is compared"
                    )]
                    let kept: BTreeMap<FunctionId, TimePoint> =
                        cc.compressed.iter().map(|(&f, &t)| (f, t)).collect();
                    assert_eq!(kept, model);
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "collected into a sorted set before it is compared"
                )]
                let aged: BTreeSet<(TimePoint, FunctionId)> =
                    cc.compressed.iter().map(|(&f, &t)| (t, f)).collect();
                assert_eq!(cc.by_age, aged, "the age index mirrors the map");
            }
        });
    }
}
