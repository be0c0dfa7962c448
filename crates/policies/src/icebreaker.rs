//! IceBreaker-style predictive prewarming (simplified re-implementation).
//!
//! IceBreaker (Roy et al., ASPLOS 2022) predicts each function's
//! near-future demand and prewarms containers on a heterogeneous mix of
//! cheap and performant servers. The CIDRE paper runs it on a homogeneous
//! cluster, which "diminishes the potential benefit of IceBreaker's
//! sophisticated optimizer" (§5.1) — our reproduction therefore models
//! the demand-prediction/prewarming half faithfully and the (degenerate)
//! single-class server half trivially.
//!
//! Demand prediction uses the harmonic mean of each function's recent
//! per-tick arrival counts, a stand-in for IceBreaker's FFT-based
//! estimator that shares its key property: dominated by the *low* end of
//! the recent-rate distribution, so one spike does not trigger a fleet of
//! prewarms, while sustained load does.

use std::collections::{HashMap, VecDeque};

use faas_sim::{ContainerInfo, IdBuildHasher, KeepAlive, PolicyCtx, Prewarm};
use faas_trace::FunctionId;

/// Ticks of history the rate predictor keeps.
const HISTORY_TICKS: usize = 6;

/// Maximum prewarms issued per function per tick (storm control).
const MAX_PREWARM_PER_TICK: u32 = 2;

/// IceBreaker's keep-alive side: cost-aware priority `Freq * Cost / Size`
/// (keep functions whose cold starts are expensive to re-pay), without a
/// clock term — its retention decisions come from the predictor, not
/// recency aging.
#[derive(Debug, Clone, Copy, Default)]
pub struct IceBreakerKeepAlive;

impl KeepAlive for IceBreakerKeepAlive {
    fn name(&self) -> &str {
        "icebreaker"
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        let freq = ctx.freq_per_minute(container.func);
        freq * container.cold_start.as_millis_f64() / container.mem_mb.max(1) as f64
    }

    fn priority_deps(&self) -> faas_sim::PriorityDeps {
        // Invocations per minute fall while the function sees none, so
        // the priority moves either way mid-idle; of the container it
        // reads the function and the profile's cold start and size.
        faas_sim::PriorityDeps::Function
    }
}

/// IceBreaker's prewarming side: harmonic-mean demand prediction over
/// recent ticks, topping up each function's warm pool to the prediction.
///
/// # Examples
///
/// ```
/// use faas_policies::IceBreakerPrewarm;
/// use faas_sim::Prewarm;
/// assert_eq!(IceBreakerPrewarm::new().name(), "icebreaker-prewarm");
/// ```
#[derive(Debug, Default)]
pub struct IceBreakerPrewarm {
    last_counts: HashMap<FunctionId, u64, IdBuildHasher>,
    history: HashMap<FunctionId, VecDeque<u64>, IdBuildHasher>,
}

impl IceBreakerPrewarm {
    /// Creates the predictor with empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Harmonic mean of the recorded per-tick arrivals; zero ticks in the
    /// window pull the estimate sharply toward zero (treated as 0.2 to
    /// stay finite), mirroring the conservatism of IceBreaker's
    /// frequency-domain predictor. The floor is never zero: a window of
    /// nothing but zero ticks predicts 0.2, which `on_tick` ceils to one
    /// container, so every deployed function is prewarmed to at least
    /// one warm or provisioning container.
    fn predict(window: &VecDeque<u64>) -> f64 {
        if window.is_empty() {
            return 0.0;
        }
        let inv_sum: f64 = window.iter().map(|&c| 1.0 / (c as f64).max(0.2)).sum();
        window.len() as f64 / inv_sum
    }
}

impl Prewarm for IceBreakerPrewarm {
    fn name(&self) -> &str {
        "icebreaker-prewarm"
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>) -> Vec<FunctionId> {
        let mut wants = Vec::new();
        for &func in ctx.functions() {
            let total = ctx.invocations(func);
            let last = self.last_counts.insert(func, total).unwrap_or(0);
            let delta = total - last;
            let hist = self.history.entry(func).or_default();
            hist.push_back(delta);
            while hist.len() > HISTORY_TICKS {
                hist.pop_front();
            }
            let predicted = Self::predict(hist).ceil() as u32;
            let have = ctx.warm_count(func) + ctx.provisioning_count(func);
            if predicted > have {
                let need = (predicted - have).min(MAX_PREWARM_PER_TICK);
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
    use faas_trace::{FunctionProfile, TimeDelta, TimePoint};

    fn harness() -> ClusterState {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            100,
            TimeDelta::from_millis(500),
        )];
        ClusterState::new(&[100_000], profiles, 1)
    }

    #[test]
    fn a_function_without_arrivals_is_prewarmed_to_one_container() {
        let cl = harness();
        let mut pw = IceBreakerPrewarm::new();
        let ctx = cl.policy_ctx(TimePoint::ZERO);
        // The first tick records a zero delta: predict([0]) = 1 / (1 / 0.2)
        // = 0.2, which ceils to one container against none warm.
        assert_eq!(pw.on_tick(&ctx), vec![FunctionId(0)]);
    }

    #[test]
    fn sustained_load_triggers_prewarm() {
        let mut cl = harness();
        let mut pw = IceBreakerPrewarm::new();
        for tick in 1..=5u64 {
            for _ in 0..4 {
                cl.note_arrival(FunctionId(0), TimePoint::from_secs(tick));
            }
            let ctx = cl.policy_ctx(TimePoint::from_secs(tick));
            let _ = pw.on_tick(&ctx);
        }
        // After 5 ticks of 4 arrivals each, prediction ≈ 4 > 0 warm.
        for _ in 0..4 {
            cl.note_arrival(FunctionId(0), TimePoint::from_secs(6));
        }
        let ctx = cl.policy_ctx(TimePoint::from_secs(6));
        let wants = pw.on_tick(&ctx);
        assert!(!wants.is_empty());
        assert!(wants.len() as u32 <= MAX_PREWARM_PER_TICK);
        assert!(wants.iter().all(|&f| f == FunctionId(0)));
    }

    #[test]
    fn harmonic_mean_is_spike_resistant() {
        let steady: VecDeque<u64> = [4, 4, 4, 4].into_iter().collect();
        let spiky: VecDeque<u64> = [0, 0, 0, 16].into_iter().collect();
        assert!(IceBreakerPrewarm::predict(&steady) > IceBreakerPrewarm::predict(&spiky));
    }

    #[test]
    fn keepalive_prefers_expensive_cold_starts() {
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "cheap", 100, TimeDelta::from_millis(50)),
            FunctionProfile::new(FunctionId(1), "dear", 100, TimeDelta::from_millis(5_000)),
        ];
        let mut cl = ClusterState::new(&[100_000], profiles, 1);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        cl.note_arrival(FunctionId(1), TimePoint::ZERO);
        let a = cl.begin_provision(FunctionId(0), faas_sim::WorkerId(0), TimePoint::ZERO, false);
        let b = cl.begin_provision(FunctionId(1), faas_sim::WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(a, TimePoint::ZERO);
        cl.finish_provision(b, TimePoint::ZERO);
        let ctx = cl.policy_ctx(TimePoint::from_secs(60));
        let ka = IceBreakerKeepAlive;
        let ia = ContainerInfo::from(cl.container(a).expect("live"));
        let ib = ContainerInfo::from(cl.container(b).expect("live"));
        assert!(ka.priority(&ib, &ctx) > ka.priority(&ia, &ctx));
    }
}
