//! Policy traits: keep-alive (eviction), scaling, and prewarming.
//!
//! The engine owns all mechanics (queues, provisioning races, memory
//! accounting); policies only answer decision questions and observe
//! lifecycle hooks. CIDRE and every baseline in `faas-policies` are
//! implementations of these traits.

use faas_trace::{FunctionId, TimeDelta};

use crate::cluster::PolicyCtx;
use crate::container::ContainerInfo;
use crate::ids::ContainerId;
use crate::request::RequestInfo;

/// How a request that found no free container should be handled
/// (the paper's scaling decision space, §3.1–3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Provision a new container; the request waits for it exclusively
    /// (traditional FaaS behaviour — a plain cold start).
    ColdStart,
    /// Join the function's wait channel without provisioning; the request
    /// runs on the first busy container that frees up (a pure delayed
    /// warm start — CSS with the cold path disabled).
    WaitWarm,
    /// Join the wait channel *and* provision a container, racing the two
    /// paths; whichever becomes available first serves the request
    /// (basic speculative scaling).
    Race,
    /// Queue on one specific busy container's local queue (fixed
    /// queue-length policies from the Fig. 7 what-if study).
    EnqueueOn(ContainerId),
}

/// How a request came to start executing; determines its measured class.
/// The provenance stream's `Start` event records the same type.
pub use faas_obs::ObsClass as StartClass;

impl From<ScaleDecision> for faas_obs::AdmitDecision {
    fn from(d: ScaleDecision) -> Self {
        match d {
            ScaleDecision::ColdStart => faas_obs::AdmitDecision::ColdStart,
            ScaleDecision::WaitWarm => faas_obs::AdmitDecision::WaitWarm,
            ScaleDecision::Race => faas_obs::AdmitDecision::Race,
            ScaleDecision::EnqueueOn(cid) => faas_obs::AdmitDecision::EnqueueOn(cid.0),
        }
    }
}

/// What a keep-alive policy's [`KeepAlive::priority`] depends on, which
/// determines how much evaluation a REPLACE round may skip. Every round
/// evaluates its priorities afresh and keeps none past the round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityDeps {
    /// The priority reads a container only through its function:
    /// `func`, plus the `mem_mb` and `cold_start` that every container
    /// copies from its function's profile. Every candidate of one
    /// function then has the same priority within a round, so the
    /// indexed round evaluates the first and reuses its value for the
    /// others.
    Function,
    /// The priority may read anything, per-container fields included;
    /// each round evaluates every candidate. The safe default.
    Volatile,
}

/// Keep-alive (cache eviction) policy over warm containers.
///
/// The engine reclaims memory by evicting idle containers in ascending
/// [`KeepAlive::priority`] order, mirroring the paper's priority-queue
/// formulation (Eq. 1/Eq. 3). Hooks keep the policy's internal statistics
/// current.
pub trait KeepAlive {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &str;

    /// A warm container began serving a request (true or delayed warm
    /// start).
    fn on_reuse(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let _ = (container, ctx);
    }

    /// A new container was admitted (provisioning started), evicting
    /// `evicted` idle containers to make room.
    fn on_admit(
        &mut self,
        container: &ContainerInfo,
        evicted: &[ContainerInfo],
        ctx: &PolicyCtx<'_>,
    ) {
        let _ = (container, evicted, ctx);
    }

    /// A container was evicted or expired.
    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let _ = (container, ctx);
    }

    /// Keep-alive priority of an idle container; the engine evicts the
    /// lowest-priority candidates first.
    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64;

    /// Declares what [`KeepAlive::priority`] depends on so the engine
    /// knows whether a function's containers can share one priority
    /// within a round (see [`PriorityDeps`]). The default,
    /// [`PriorityDeps::Volatile`], is always safe: each memory-pressure
    /// round evaluates every candidate. Override only if the stated
    /// invariant genuinely holds — the differential oracle tests will
    /// catch a lie, but only on workloads they happen to generate.
    fn priority_deps(&self) -> PriorityDeps {
        PriorityDeps::Volatile
    }

    /// Containers to expire right now irrespective of memory pressure
    /// (TTL-style policies); called on every engine tick. Non-idle ids
    /// are ignored.
    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        let _ = ctx;
        Vec::new()
    }

    /// Provisioning latency override for a new container of `func`,
    /// or `None` for the profile's full cold-start latency. Lets
    /// layer-sharing (RainbowCake) and image-compression (CodeCrunch)
    /// baselines model partial cold starts. Called once per provision;
    /// implementations may consume shared state (e.g. a cached layer).
    fn provision_latency(&mut self, func: FunctionId, ctx: &PolicyCtx<'_>) -> Option<TimeDelta> {
        let _ = (func, ctx);
        None
    }

    /// One-line provenance note attached to eviction trace events when
    /// recording is enabled (DESIGN.md §12): the internal state that
    /// drove victim choice (clock values, TTLs, frequency counters).
    /// Must be a pure function of policy state — the traced oracle
    /// demands byte-identical notes from every engine — and is only
    /// called when a recorder is enabled, so it may allocate.
    fn explain(&self) -> Option<String> {
        None
    }
}

/// Scaling policy: decides between cold starts, delayed warm starts, and
/// the speculative race when a request finds no free container.
pub trait Scaler {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &str;

    /// A request arrived and no warm container has a free thread.
    fn on_blocked(&mut self, req: &RequestInfo, ctx: &PolicyCtx<'_>) -> ScaleDecision;

    /// A request started executing: its class, the time it waited since
    /// arrival, and its (known-in-simulation) execution duration.
    fn on_start(
        &mut self,
        req: &RequestInfo,
        class: StartClass,
        wait: TimeDelta,
        exec: TimeDelta,
        ctx: &PolicyCtx<'_>,
    ) {
        let _ = (req, class, wait, exec, ctx);
    }

    /// Outcome of a speculative cold start for `func`: the container's
    /// idle time between finishing provisioning and first reuse
    /// (`Some(Ti)`, zero if a request was waiting), or `None` if it was
    /// evicted without ever serving — the wasted-cold-start signal CIDRE's
    /// CSS feeds on (§3.2).
    fn on_cold_outcome(&mut self, func: FunctionId, idle: Option<TimeDelta>, ctx: &PolicyCtx<'_>) {
        let _ = (func, idle, ctx);
    }

    /// One-line provenance note attached to admission-decision trace
    /// events when recording is enabled (DESIGN.md §12): the state the
    /// decision read (e.g. CSS's current cold-time estimate and warm
    /// count). Same determinism contract as [`KeepAlive::explain`].
    fn explain(&self) -> Option<String> {
        None
    }
}

/// Optional prewarming hook (IceBreaker / ENSURE style baselines).
pub trait Prewarm {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Called on every engine tick; returns functions for which one new
    /// container each should be provisioned now (subject to memory).
    fn on_tick(&mut self, ctx: &PolicyCtx<'_>) -> Vec<FunctionId>;
}

/// The bundle of policies driving one simulation run. Policies are
/// `Send` so a stack can be handed to a live-host orchestrator thread.
pub struct PolicyStack {
    /// Eviction policy.
    pub keepalive: Box<dyn KeepAlive + Send>,
    /// Scaling policy.
    pub scaler: Box<dyn Scaler + Send>,
    /// Optional prewarming policy.
    pub prewarm: Option<Box<dyn Prewarm + Send>>,
}

impl std::fmt::Debug for PolicyStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyStack")
            .field("keepalive", &self.keepalive.name())
            .field("scaler", &self.scaler.name())
            .field("prewarm", &self.prewarm.as_ref().map(|p| p.name()))
            .finish()
    }
}

impl PolicyStack {
    /// Bundles a keep-alive and a scaling policy without prewarming.
    pub fn new(keepalive: Box<dyn KeepAlive + Send>, scaler: Box<dyn Scaler + Send>) -> Self {
        Self {
            keepalive,
            scaler,
            prewarm: None,
        }
    }

    /// Adds a prewarming policy.
    pub fn with_prewarm(mut self, prewarm: Box<dyn Prewarm + Send>) -> Self {
        self.prewarm = Some(prewarm);
        self
    }

    /// `"<keepalive>+<scaler>"` label for reports.
    pub fn label(&self) -> String {
        format!("{}+{}", self.keepalive.name(), self.scaler.name())
    }
}

/// The simplest scaler: always cold start (what vanilla FaasCache, LRU,
/// and TTL keep-alive systems do).
///
/// # Examples
///
/// ```
/// use faas_sim::{AlwaysCold, Scaler};
/// assert_eq!(AlwaysCold.name(), "cold");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysCold;

impl Scaler for AlwaysCold {
    fn name(&self) -> &str {
        "cold"
    }

    fn on_blocked(&mut self, _req: &RequestInfo, _ctx: &PolicyCtx<'_>) -> ScaleDecision {
        ScaleDecision::ColdStart
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal keep-alive for trait-object sanity checks.
    #[derive(Debug, Default)]
    struct Noop;

    impl KeepAlive for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn priority(&self, container: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
            container.id.0 as f64
        }
    }

    #[test]
    fn stack_label_combines_names() {
        let stack = PolicyStack::new(Box::new(Noop), Box::new(AlwaysCold));
        assert_eq!(stack.label(), "noop+cold");
        assert!(format!("{stack:?}").contains("noop"));
    }

    #[test]
    fn scale_decisions_are_comparable() {
        assert_eq!(ScaleDecision::Race, ScaleDecision::Race);
        assert_ne!(ScaleDecision::ColdStart, ScaleDecision::WaitWarm);
    }
}
