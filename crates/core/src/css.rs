//! Speculative scaling: basic (BSS) and conditional (CSS, Algorithm 1).

use std::collections::HashMap;

use faas_metrics::SlidingWindow;
use faas_sim::{IdBuildHasher, PolicyCtx, RequestInfo, ScaleDecision, Scaler, StartClass};
use faas_trace::{FunctionId, TimeDelta};

use crate::config::{CidreConfig, TeEstimator};

/// Basic speculative scaling: every blocked request both joins the
/// function's wait channel *and* triggers a cold start, racing the two
/// paths (§3.2). BSS gives the worst-case guarantee that no request waits
/// longer than its own cold start, at the price of cold starts that may
/// turn out wasted.
///
/// # Examples
///
/// ```
/// use cidre_core::BssScaler;
/// use faas_sim::Scaler;
/// assert_eq!(BssScaler.name(), "bss");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct BssScaler;

impl Scaler for BssScaler {
    fn name(&self) -> &str {
        "bss"
    }

    fn on_blocked(&mut self, _req: &RequestInfo, _ctx: &PolicyCtx<'_>) -> ScaleDecision {
        ScaleDecision::Race
    }
}

/// Per-function CSS state: the BSS on/off trigger plus the sliding-window
/// statistics Algorithm 1 consumes.
#[derive(Debug)]
struct FnCssState {
    /// Whether the cold-start path is enabled for this function.
    bss_enabled: bool,
    /// Last observed idle time `Ti` of a speculatively provisioned
    /// container between finishing provisioning and first reuse, stored
    /// as `(recorded_at_us, ti_ms)`; `f64::INFINITY` when the last one
    /// was evicted without serving. Like every other Algorithm 1
    /// statistic, the hint expires with the configured sliding window
    /// (§3.2) — a `Ti` from outside the window must not keep flipping
    /// BSS state.
    ti: Option<(u64, f64)>,
    /// Windowed execution times (ms) for the `Te` estimate.
    te: SlidingWindow,
    /// Windowed delayed-warm-start waits (ms) for the `Td` estimate.
    td: SlidingWindow,
    /// Windowed observed cold-start waits (ms) for the `Tp` estimate.
    tp: SlidingWindow,
}

impl FnCssState {
    fn new(window: Option<TimeDelta>) -> Self {
        let w = window.map(|d| d.as_micros());
        Self {
            bss_enabled: true,
            ti: None,
            te: SlidingWindow::new(w),
            td: SlidingWindow::new(w),
            tp: SlidingWindow::new(w),
        }
    }
}

/// Conditional speculative scaling — the paper's Algorithm 1.
///
/// CSS starts in BSS mode (race every blocked request). Per function it
/// then classifies, from lightweight hints, whether cold starts are worth
/// their cost:
///
/// * With BSS **enabled**: if the last speculative container idled longer
///   than the function's expected execution time (`Ti > Te`), that cold
///   start was wasteful — disable the cold path and serve upcoming
///   blocked requests as pure delayed warm starts.
/// * With BSS **disabled**: if the delayed-warm-start cost exceeds the
///   provisioning time (`Td > Tp`), queueing has become more expensive
///   than a cold start — re-enable the cold path.
///
/// All statistics come from a sliding window (15 minutes by default,
/// §3.2; Fig. 18 varies it) and the `Te` estimator is configurable
/// (median by default; Fig. 17 varies it).
///
/// # Examples
///
/// ```
/// use cidre_core::{CidreConfig, CssScaler};
/// use faas_sim::Scaler;
/// let css = CssScaler::new(CidreConfig::default());
/// assert_eq!(css.name(), "css");
/// ```
#[derive(Debug)]
pub struct CssScaler {
    config: CidreConfig,
    fns: HashMap<FunctionId, FnCssState, IdBuildHasher>,
}

impl CssScaler {
    /// Creates the scaler with the given configuration.
    pub fn new(config: CidreConfig) -> Self {
        Self {
            config,
            fns: HashMap::default(),
        }
    }

    /// Whether the cold-start path is currently enabled for `func`
    /// (functions never seen yet default to enabled).
    pub fn bss_enabled(&self, func: FunctionId) -> bool {
        self.fns.get(&func).map(|s| s.bss_enabled).unwrap_or(true)
    }

    fn state(&mut self, func: FunctionId) -> &mut FnCssState {
        let window = self.config.window;
        self.fns
            .entry(func)
            .or_insert_with(|| FnCssState::new(window))
    }

    fn estimate_te(config: &CidreConfig, st: &mut FnCssState, now_us: u64) -> Option<f64> {
        match config.te {
            TeEstimator::Mean => st.te.mean(now_us),
            TeEstimator::Percentile(p) => st.te.percentile(now_us, p),
        }
    }
}

impl Scaler for CssScaler {
    fn name(&self) -> &str {
        "css"
    }

    fn on_blocked(&mut self, req: &RequestInfo, ctx: &PolicyCtx<'_>) -> ScaleDecision {
        let now_us = ctx.now.as_micros();
        let profile_cold_ms = ctx.profile(req.func).cold_start.as_millis_f64();
        let config = self.config;
        let st = self.state(req.func);
        // The `Ti` hint ages out with the same window as the other
        // statistics; at `age == window` it is still considered fresh,
        // matching `SlidingWindow`'s cutoff semantics.
        if let (Some(w), Some((at, _))) = (config.window, st.ti) {
            if now_us.saturating_sub(at) > w.as_micros() {
                st.ti = None;
            }
        }
        if st.bss_enabled {
            // Lines 1–9: disable the cold path when the last speculative
            // container idled longer than the expected execution time.
            let te = Self::estimate_te(&config, st, now_us);
            match (st.ti, te) {
                (Some((_, ti)), Some(te)) if ti > te => {
                    st.bss_enabled = false;
                    ScaleDecision::WaitWarm
                }
                _ => ScaleDecision::Race,
            }
        } else {
            // Lines 10–18: re-enable the cold path when queueing costs
            // more than provisioning. `Td` is the paper's "duration that
            // CIDRE waits to find an idle container since the last
            // request arrives" — the most recent delayed-warm-start cost
            // (within the window), so a queue blow-up re-enables the cold
            // path immediately rather than after the median catches up.
            st.td.expire(now_us);
            let td = st.td.last();
            let tp = st.tp.median(now_us).unwrap_or(profile_cold_ms);
            match td {
                Some(td) if td > tp => {
                    st.bss_enabled = true;
                    ScaleDecision::Race
                }
                _ => ScaleDecision::WaitWarm,
            }
        }
    }

    fn on_start(
        &mut self,
        req: &RequestInfo,
        class: StartClass,
        wait: TimeDelta,
        exec: TimeDelta,
        ctx: &PolicyCtx<'_>,
    ) {
        let now_us = ctx.now.as_micros();
        let st = self.state(req.func);
        st.te.record(now_us, exec.as_millis_f64());
        match class {
            StartClass::DelayedWarm => st.td.record(now_us, wait.as_millis_f64()),
            StartClass::Cold => st.tp.record(now_us, wait.as_millis_f64()),
            StartClass::Warm => {}
        }
    }

    fn on_cold_outcome(&mut self, func: FunctionId, idle: Option<TimeDelta>, ctx: &PolicyCtx<'_>) {
        let now_us = ctx.now.as_micros();
        let st = self.state(func);
        let ti_ms = match idle {
            Some(d) => d.as_millis_f64(),
            // Evicted without ever serving: unconditionally wasted.
            None => f64::INFINITY,
        };
        st.ti = Some((now_us, ti_ms));
    }

    fn explain(&self) -> Option<String> {
        #[expect(
            clippy::disallowed_methods,
            reason = "a count over the map is iteration-order-independent, so the note \
                      is byte-identical from driver to driver (DESIGN.md §12)"
        )]
        let off = self.fns.values().filter(|s| !s.bss_enabled).count();
        Some(format!("bss_off={off}/{}", self.fns.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{ClusterState, RequestId};
    use faas_trace::{FunctionProfile, TimePoint};
    use std::collections::HashMap as Map;

    fn harness() -> (ClusterState, Map<faas_sim::ContainerId, Vec<TimePoint>>) {
        let profiles = vec![FunctionProfile::new(
            FunctionId(0),
            "f",
            128,
            TimeDelta::from_millis(200),
        )];
        (ClusterState::new(&[10_000], profiles, 1), Map::new())
    }

    fn req(at_ms: u64) -> RequestInfo {
        RequestInfo {
            id: RequestId(0),
            func: FunctionId(0),
            arrival: TimePoint::from_millis(at_ms),
        }
    }

    fn ctx_at<'a>(
        cl: &'a ClusterState,
        busy: &'a Map<faas_sim::ContainerId, Vec<TimePoint>>,
        ms: u64,
    ) -> PolicyCtx<'a> {
        PolicyCtx::new(TimePoint::from_millis(ms), cl, busy)
    }

    #[test]
    fn starts_in_bss_mode() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        let d = css.on_blocked(&req(0), &ctx_at(&cl, &busy, 0));
        assert_eq!(d, ScaleDecision::Race);
        assert!(css.bss_enabled(FunctionId(0)));
    }

    #[test]
    fn wasted_cold_start_disables_bss() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        // Record an execution history: Te ≈ 50 ms.
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(50),
            &ctx_at(&cl, &busy, 0),
        );
        // Last speculative container idled 500 ms > Te.
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(500)),
            &ctx_at(&cl, &busy, 1),
        );
        let d = css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2));
        assert_eq!(d, ScaleDecision::WaitWarm);
        assert!(!css.bss_enabled(FunctionId(0)));
    }

    #[test]
    fn quick_reuse_keeps_bss() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(50),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(10)),
            &ctx_at(&cl, &busy, 1),
        );
        assert_eq!(
            css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2)),
            ScaleDecision::Race
        );
    }

    #[test]
    fn eviction_without_use_counts_as_infinite_idle() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(1_000),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(FunctionId(0), None, &ctx_at(&cl, &busy, 1));
        assert_eq!(
            css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2)),
            ScaleDecision::WaitWarm
        );
    }

    #[test]
    fn long_queueing_reenables_bss() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        // Disable first.
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(100)),
            &ctx_at(&cl, &busy, 1),
        );
        assert_eq!(
            css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2)),
            ScaleDecision::WaitWarm
        );
        // Delayed warm starts now cost 900 ms > Tp (200 ms profile).
        css.on_start(
            &req(3),
            StartClass::DelayedWarm,
            TimeDelta::from_millis(900),
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 3),
        );
        let d = css.on_blocked(&req(4), &ctx_at(&cl, &busy, 4));
        assert_eq!(d, ScaleDecision::Race);
        assert!(css.bss_enabled(FunctionId(0)));
    }

    #[test]
    fn cheap_queueing_keeps_bss_disabled() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(100)),
            &ctx_at(&cl, &busy, 1),
        );
        let _ = css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2));
        // Delayed warm waits of 20 ms << 200 ms cold.
        css.on_start(
            &req(3),
            StartClass::DelayedWarm,
            TimeDelta::from_millis(20),
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 3),
        );
        assert_eq!(
            css.on_blocked(&req(4), &ctx_at(&cl, &busy, 4)),
            ScaleDecision::WaitWarm
        );
    }

    #[test]
    fn measured_tp_overrides_profile() {
        let (cl, busy) = harness();
        let mut css = CssScaler::new(CidreConfig::default());
        // Disable BSS.
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(50)),
            &ctx_at(&cl, &busy, 1),
        );
        let _ = css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2));
        // Observed cold waits of 2000 ms (memory pressure made cold starts
        // far more expensive than the 200 ms profile).
        css.on_start(
            &req(3),
            StartClass::Cold,
            TimeDelta::from_millis(2_000),
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 3),
        );
        // A 900 ms queueing cost now should NOT re-enable (900 < 2000).
        css.on_start(
            &req(4),
            StartClass::DelayedWarm,
            TimeDelta::from_millis(900),
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 4),
        );
        assert_eq!(
            css.on_blocked(&req(5), &ctx_at(&cl, &busy, 5)),
            ScaleDecision::WaitWarm
        );
    }

    #[test]
    fn te_estimator_percentile_matters() {
        let (cl, busy) = harness();
        // With p75, Te is larger, so a given Ti is less likely to trip the
        // "wasted" classification.
        let mut p25 =
            CssScaler::new(CidreConfig::default().te_estimator(TeEstimator::Percentile(25.0)));
        let mut p75 =
            CssScaler::new(CidreConfig::default().te_estimator(TeEstimator::Percentile(75.0)));
        for css in [&mut p25, &mut p75] {
            for (i, ms) in [10u64, 100, 1_000].iter().enumerate() {
                css.on_start(
                    &req(i as u64),
                    StartClass::Warm,
                    TimeDelta::ZERO,
                    TimeDelta::from_millis(*ms),
                    &ctx_at(&cl, &busy, i as u64),
                );
            }
            css.on_cold_outcome(
                FunctionId(0),
                Some(TimeDelta::from_millis(200)),
                &ctx_at(&cl, &busy, 5),
            );
        }
        // Ti=200: p25 Te=55 -> disable; p75 Te=550 -> keep racing.
        assert_eq!(
            p25.on_blocked(&req(6), &ctx_at(&cl, &busy, 6)),
            ScaleDecision::WaitWarm
        );
        assert_eq!(
            p75.on_blocked(&req(6), &ctx_at(&cl, &busy, 6)),
            ScaleDecision::Race
        );
    }

    #[test]
    fn window_expiry_forgets_history() {
        let (cl, busy) = harness();
        let mut css =
            CssScaler::new(CidreConfig::default().window(Some(TimeDelta::from_millis(100))));
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(500)),
            &ctx_at(&cl, &busy, 1),
        );
        // At t=10s, the Te window is empty: Algorithm 1 cannot establish
        // Ti > Te, so it keeps racing.
        assert_eq!(
            css.on_blocked(&req(10_000), &ctx_at(&cl, &busy, 10_000)),
            ScaleDecision::Race
        );
    }

    #[test]
    fn per_function_state_is_independent() {
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "a", 128, TimeDelta::from_millis(200)),
            FunctionProfile::new(FunctionId(1), "b", 128, TimeDelta::from_millis(200)),
        ];
        let cl = ClusterState::new(&[10_000], profiles, 1);
        let busy = Map::new();
        let mut css = CssScaler::new(CidreConfig::default());
        css.on_start(
            &req(0),
            StartClass::Warm,
            TimeDelta::ZERO,
            TimeDelta::from_millis(10),
            &ctx_at(&cl, &busy, 0),
        );
        css.on_cold_outcome(FunctionId(0), None, &ctx_at(&cl, &busy, 1));
        let _ = css.on_blocked(&req(2), &ctx_at(&cl, &busy, 2));
        assert!(!css.bss_enabled(FunctionId(0)));
        assert!(css.bss_enabled(FunctionId(1)));
    }
}
