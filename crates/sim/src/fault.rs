//! Fault injection: provision failures, worker crashes, and cold-start
//! stragglers.
//!
//! Production characterizations (e.g. *The High Cost of Keeping Warm*,
//! *SPES*) stress that cold-start latency is heavy-tailed and
//! provisioning is unreliable at scale. A [`FaultPlan`] describes a
//! deterministic, seeded fault schedule that both execution substrates
//! (`faas-sim` and `faas-live`) interpret identically:
//!
//! * **Provision failures** — each provision independently fails with
//!   probability `p`; the failure is discovered after the full cold-start
//!   latency and retried with capped exponential backoff.
//! * **Worker crashes** — at a scheduled time a worker dies, evicting all
//!   of its containers; requests that were running or queued on them are
//!   re-queued on the function channel.
//! * **Stragglers** — with probability `straggler_p` a cold start is
//!   stretched by a Pareto-distributed factor, modelling the heavy tail.
//!
//! The default plan is [`FaultPlan::none`], which draws **zero** random
//! numbers and schedules zero events. There is no fault-free code path:
//! every run draws through `FaultState`, which under that plan answers
//! "no failure, no stretch" without touching its RNG, so a fault-free
//! run is byte-identical to a run of a simulator without fault support.

use faas_testkit::Rng;
use faas_trace::{TimeDelta, TimePoint};

use crate::ids::WorkerId;

/// A deterministic fault schedule. Same seed + same plan ⇒ identical
/// fault decisions, on both the simulated and the live substrate.
///
/// # Examples
///
/// ```
/// use faas_sim::FaultPlan;
/// use faas_trace::{TimeDelta, TimePoint};
///
/// let plan = FaultPlan::none()
///     .seed(7)
///     .provision_failures(0.1)
///     .stragglers(0.05, 1.5, 20.0)
///     .crash_worker(TimePoint::from_secs(30), faas_sim::WorkerId(0));
/// assert_ne!(plan, FaultPlan::none());
/// assert_eq!(FaultPlan::none().backoff(3), TimeDelta::from_millis(400));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG (independent of the trace seed).
    pub seed: u64,
    /// Probability in `[0, 1)` that a provision fails (discovered after
    /// the full cold-start latency, then retried with backoff).
    pub provision_fail_p: f64,
    /// First retry delay; doubles per attempt.
    pub retry_base: TimeDelta,
    /// Upper bound on the retry delay.
    pub retry_cap: TimeDelta,
    /// Scheduled `(time, worker)` crashes. Workers stay down for the
    /// rest of the run.
    pub worker_crashes: Vec<(TimePoint, WorkerId)>,
    /// Probability in `[0, 1)` that a (successful) provision is a
    /// straggler.
    pub straggler_p: f64,
    /// Pareto shape of the straggler stretch factor (smaller = heavier
    /// tail).
    pub straggler_alpha: f64,
    /// Upper bound on the stretch factor.
    pub straggler_cap: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: no failures, no crashes, no stragglers. Runs
    /// under this plan draw zero random numbers and schedule zero fault
    /// events, so they are byte-identical to pre-fault-support runs.
    pub fn none() -> Self {
        Self {
            seed: 0,
            provision_fail_p: 0.0,
            retry_base: TimeDelta::from_millis(100),
            retry_cap: TimeDelta::from_secs(5),
            worker_crashes: Vec::new(),
            straggler_p: 0.0,
            straggler_alpha: 1.5,
            straggler_cap: 20.0,
        }
    }

    /// Sets the fault RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the provision-failure probability.
    ///
    /// # Panics
    ///
    /// As [`FaultPlan::validate`].
    pub fn provision_failures(mut self, p: f64) -> Self {
        self.provision_fail_p = p;
        self.validate();
        self
    }

    /// Sets the retry backoff parameters (first delay and cap).
    pub fn retry_backoff(mut self, base: TimeDelta, cap: TimeDelta) -> Self {
        self.retry_base = base;
        self.retry_cap = cap;
        self
    }

    /// Schedules a worker crash at `at`.
    pub fn crash_worker(mut self, at: TimePoint, worker: WorkerId) -> Self {
        self.worker_crashes.push((at, worker));
        self
    }

    /// Sets the straggler parameters: probability, Pareto shape, and
    /// stretch-factor cap.
    ///
    /// # Panics
    ///
    /// As [`FaultPlan::validate`].
    pub fn stragglers(mut self, p: f64, alpha: f64, cap: f64) -> Self {
        self.straggler_p = p;
        self.straggler_alpha = alpha;
        self.straggler_cap = cap;
        self.validate();
        self
    }

    /// Rejects a plan no run can finish under. The builders call it, and
    /// so does [`crate::Orchestrator::new`]: the fields are `pub`, so a
    /// literal plan bypasses the builders.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `provision_fail_p` and
    /// `straggler_p` are in `[0, 1)`, `straggler_alpha > 0` and
    /// `straggler_cap >= 1`. With `provision_fail_p == 1` no provision
    /// ever succeeds and retry chains never end.
    pub fn validate(&self) {
        let p = self.provision_fail_p;
        assert!(
            (0.0..1.0).contains(&p),
            "provision_fail_p must be in [0, 1), got {p}"
        );
        let p = self.straggler_p;
        assert!(
            (0.0..1.0).contains(&p),
            "straggler_p must be in [0, 1), got {p}"
        );
        let alpha = self.straggler_alpha;
        assert!(alpha > 0.0, "straggler_alpha must be positive, got {alpha}");
        let cap = self.straggler_cap;
        assert!(
            cap >= 1.0,
            "straggler_cap must be at least 1 (a smaller one speeds cold starts up), got {cap}"
        );
    }

    /// The delay before retry number `attempt` (1-based): capped
    /// exponential backoff `min(base * 2^(attempt-1), cap)`.
    pub fn backoff(&self, attempt: u32) -> TimeDelta {
        let shift = attempt.saturating_sub(1).min(63);
        let us = self
            .retry_base
            .as_micros()
            .saturating_mul(1u64.checked_shl(shift).unwrap_or(u64::MAX));
        TimeDelta::from_micros(us.min(self.retry_cap.as_micros()))
    }
}

/// Runtime state of a [`FaultPlan`]: the plan plus its RNG stream. Both
/// substrates consume the stream in provision order, so the same plan
/// produces the same fault decisions in sim and live runs.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: Rng,
}

impl FaultState {
    /// Instantiates the plan's RNG.
    pub fn new(plan: FaultPlan) -> Self {
        let rng = Rng::seed_from_u64(plan.seed ^ 0xfa17_7e57);
        Self { plan, rng }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Draws whether the next provision fails. Draws nothing when the
    /// failure probability is zero (keeps fault-free runs byte-identical).
    #[inline]
    pub fn provision_fails(&mut self) -> bool {
        if self.plan.provision_fail_p == 0.0 {
            return false;
        }
        self.rng.bool(self.plan.provision_fail_p)
    }

    /// Draws the cold-start stretch factor for the next (successful)
    /// provision: `1.0` for non-stragglers, otherwise a Pareto factor
    /// `(1-u)^(-1/alpha)` capped at `straggler_cap`. Draws nothing when
    /// stragglers are disabled.
    #[inline]
    pub fn straggler_factor(&mut self) -> f64 {
        if self.plan.straggler_p == 0.0 {
            return 1.0;
        }
        if !self.rng.bool(self.plan.straggler_p) {
            return 1.0;
        }
        let u = self.rng.open01();
        (1.0 - u)
            .powf(-1.0 / self.plan.straggler_alpha)
            .min(self.plan.straggler_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_faultless() {
        assert_eq!(FaultPlan::default(), FaultPlan::none());
        let mut st = FaultState::new(FaultPlan::none());
        for _ in 0..100 {
            assert!(!st.provision_fails());
            assert_eq!(st.straggler_factor(), 1.0);
        }
    }

    #[test]
    fn builders_mark_plan_faulty() {
        let none = FaultPlan::none;
        assert_eq!(none().provision_failures(0.1).provision_fail_p, 0.1);
        assert_eq!(none().stragglers(0.1, 1.5, 20.0).straggler_p, 0.1);
        let crash = (TimePoint::from_secs(1), WorkerId(0));
        assert_eq!(
            none().crash_worker(crash.0, crash.1).worker_crashes,
            vec![crash]
        );
    }

    #[test]
    fn backoff_doubles_then_caps() {
        let plan =
            FaultPlan::none().retry_backoff(TimeDelta::from_millis(100), TimeDelta::from_secs(1));
        assert_eq!(plan.backoff(1), TimeDelta::from_millis(100));
        assert_eq!(plan.backoff(2), TimeDelta::from_millis(200));
        assert_eq!(plan.backoff(3), TimeDelta::from_millis(400));
        assert_eq!(plan.backoff(4), TimeDelta::from_millis(800));
        assert_eq!(plan.backoff(5), TimeDelta::from_secs(1));
        assert_eq!(plan.backoff(200), TimeDelta::from_secs(1));
    }

    #[test]
    fn failure_draws_are_seed_deterministic() {
        let plan = FaultPlan::none().seed(42).provision_failures(0.5);
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        let draws_a: Vec<bool> = (0..64).map(|_| a.provision_fails()).collect();
        let draws_b: Vec<bool> = (0..64).map(|_| b.provision_fails()).collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(|&f| f));
        assert!(draws_a.iter().any(|&f| !f));
    }

    #[test]
    fn straggler_factor_bounds() {
        let plan = FaultPlan::none().seed(7).stragglers(0.9, 1.5, 4.0);
        let mut st = FaultState::new(plan);
        let mut stretched = 0;
        for _ in 0..256 {
            let f = st.straggler_factor();
            assert!((1.0..=4.0).contains(&f), "factor {f} out of bounds");
            if f > 1.0 {
                stretched += 1;
            }
        }
        assert!(stretched > 128, "p=0.9 should stretch most provisions");
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1)")]
    fn certain_failure_rejected() {
        let _ = FaultPlan::none().provision_failures(1.0);
    }
}
