//! Unit tests pinning CIDRE's two algorithms to the paper's math:
//! Algorithm 1's BSS toggle transitions (the `Ti > Te` and `Td > Tp`
//! comparisons, including their strict-inequality boundaries, and a
//! property holding `CssScaler` to a model that keeps full histories) and the
//! CIP priority of Eq. 3 / frequency of Eq. 4 as exact arithmetic,
//! including logical-clock inheritance across an eviction batch.

use cidre_core::{CidreConfig, CipKeepAlive, CssScaler, TeEstimator};
use faas_sim::{
    ClusterState, ContainerId, ContainerInfo, KeepAlive, PolicyCtx, RequestId, RequestInfo,
    ScaleDecision, Scaler, StartClass, WorkerId,
};
use faas_testkit::Checker;
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

/// One function (id 0), 128 MB, 200 ms profile cold start, on a roomy
/// single worker.
fn one_fn_cluster() -> ClusterState {
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        128,
        TimeDelta::from_millis(200),
    )];
    ClusterState::new(&[10_000], profiles, 1)
}

fn req(at_ms: u64) -> RequestInfo {
    RequestInfo {
        id: RequestId(0),
        func: FunctionId(0),
        arrival: TimePoint::from_millis(at_ms),
    }
}

fn ctx_at(cl: &ClusterState, ms: u64) -> PolicyCtx<'_> {
    cl.policy_ctx(TimePoint::from_millis(ms))
}

/// Records one warm execution of `exec_ms` so the `Te` window holds
/// exactly that value.
fn record_exec(css: &mut CssScaler, cl: &ClusterState, at_ms: u64, exec_ms: u64) {
    css.on_start(
        &req(at_ms),
        StartClass::Warm,
        TimeDelta::ZERO,
        TimeDelta::from_millis(exec_ms),
        &ctx_at(cl, at_ms),
    );
}

// ---------------------------------------------------------------- CSS --

/// Algorithm 1 walks the full cycle: start racing (BSS on), a wasteful
/// speculative container (`Ti > Te`) turns the cold path off, a queueing
/// blow-up (`Td > Tp`) turns it back on, and a second wasteful cold
/// start turns it off again. The toggle is re-entrant, not one-shot.
#[test]
fn css_toggle_cycle_disable_reenable_disable() {
    let cl = one_fn_cluster();
    let mut css = CssScaler::new(CidreConfig::default());

    // BSS on: blocked requests race.
    assert_eq!(
        css.on_blocked(&req(0), &ctx_at(&cl, 0)),
        ScaleDecision::Race
    );

    // Te = 50 ms, last speculative container idled 500 ms: disable.
    record_exec(&mut css, &cl, 1, 50);
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(500)),
        &ctx_at(&cl, 2),
    );
    assert_eq!(
        css.on_blocked(&req(3), &ctx_at(&cl, 3)),
        ScaleDecision::WaitWarm
    );
    assert!(!css.bss_enabled(FunctionId(0)));

    // A 900 ms delayed-warm wait (> 200 ms profile Tp): re-enable.
    css.on_start(
        &req(4),
        StartClass::DelayedWarm,
        TimeDelta::from_millis(900),
        TimeDelta::from_millis(50),
        &ctx_at(&cl, 4),
    );
    assert_eq!(
        css.on_blocked(&req(5), &ctx_at(&cl, 5)),
        ScaleDecision::Race
    );
    assert!(css.bss_enabled(FunctionId(0)));

    // The next speculative container idles 800 ms > Te: disable again.
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(800)),
        &ctx_at(&cl, 6),
    );
    assert_eq!(
        css.on_blocked(&req(7), &ctx_at(&cl, 7)),
        ScaleDecision::WaitWarm
    );
    assert!(!css.bss_enabled(FunctionId(0)));
}

/// The disable comparison is strictly `Ti > Te`: an idle time exactly
/// equal to the expected execution time keeps the cold path on.
#[test]
fn css_ti_equal_te_boundary_keeps_racing() {
    let cl = one_fn_cluster();
    let mut css = CssScaler::new(CidreConfig::default());
    record_exec(&mut css, &cl, 0, 100); // Te = 100 ms exactly.
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(100)), // Ti = 100 ms = Te.
        &ctx_at(&cl, 1),
    );
    assert_eq!(
        css.on_blocked(&req(2), &ctx_at(&cl, 2)),
        ScaleDecision::Race
    );
    assert!(css.bss_enabled(FunctionId(0)));
}

/// The re-enable comparison is strictly `Td > Tp`: a delayed-warm wait
/// exactly equal to the provisioning estimate keeps the cold path off.
#[test]
fn css_td_equal_tp_boundary_stays_disabled() {
    let cl = one_fn_cluster();
    let mut css = CssScaler::new(CidreConfig::default());
    // Disable: Te = 10 ms, Ti = 500 ms.
    record_exec(&mut css, &cl, 0, 10);
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(500)),
        &ctx_at(&cl, 1),
    );
    assert_eq!(
        css.on_blocked(&req(2), &ctx_at(&cl, 2)),
        ScaleDecision::WaitWarm
    );
    // Td = 200 ms = the profile cold start backing Tp.
    css.on_start(
        &req(3),
        StartClass::DelayedWarm,
        TimeDelta::from_millis(200),
        TimeDelta::from_millis(10),
        &ctx_at(&cl, 3),
    );
    assert_eq!(
        css.on_blocked(&req(4), &ctx_at(&cl, 4)),
        ScaleDecision::WaitWarm
    );
    assert!(!css.bss_enabled(FunctionId(0)));
}

/// The `Ti` hint expires with the configured sliding window, exactly
/// like the statistics it is compared against (§3.2/Fig. 18): at
/// `age == window` it still counts (matching `SlidingWindow`'s cutoff,
/// which retains an entry exactly at the cutoff), one time unit later it
/// is gone and can no longer disable the cold path.
#[test]
fn css_ti_hint_expires_with_window() {
    let window_ms = 1_000u64;
    let cl = one_fn_cluster();
    let make =
        || CssScaler::new(CidreConfig::default().window(Some(TimeDelta::from_millis(window_ms))));

    // Age exactly == window: the hint is still fresh and disables BSS.
    let mut css = make();
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(500)), // Ti = 500 ms.
        &ctx_at(&cl, 0),
    );
    record_exec(&mut css, &cl, window_ms, 50); // fresh Te = 50 ms.
    assert_eq!(
        css.on_blocked(&req(window_ms), &ctx_at(&cl, window_ms)),
        ScaleDecision::WaitWarm
    );
    assert!(!css.bss_enabled(FunctionId(0)));

    // One time unit past the window: the stale hint must not flip state.
    let mut css = make();
    css.on_cold_outcome(
        FunctionId(0),
        Some(TimeDelta::from_millis(500)),
        &ctx_at(&cl, 0),
    );
    record_exec(&mut css, &cl, window_ms + 1, 50);
    assert_eq!(
        css.on_blocked(&req(window_ms + 1), &ctx_at(&cl, window_ms + 1)),
        ScaleDecision::Race
    );
    assert!(css.bss_enabled(FunctionId(0)));
}

/// The `Td` hint expires like `Ti`: at `age == window` a 900 ms
/// delayed-warm wait (> the 200 ms profile `Tp`) still re-enables the
/// cold path, one microsecond later it is gone and the path stays off.
#[test]
fn css_td_hint_expires_with_window() {
    let window_us = 1_000_000u64;
    let cl = one_fn_cluster();
    let at = |us: u64| cl.policy_ctx(TimePoint::from_micros(us));
    let req_at = |us: u64| RequestInfo {
        arrival: TimePoint::from_micros(us),
        ..req(0)
    };
    for (age_us, expected) in [
        (window_us, ScaleDecision::Race),
        (window_us + 1, ScaleDecision::WaitWarm),
    ] {
        let mut css =
            CssScaler::new(CidreConfig::default().window(Some(TimeDelta::from_micros(window_us))));
        // Disable: Te = 10 ms, Ti = 500 ms.
        record_exec(&mut css, &cl, 0, 10);
        css.on_cold_outcome(FunctionId(0), Some(TimeDelta::from_millis(500)), &at(0));
        assert_eq!(css.on_blocked(&req_at(0), &at(0)), ScaleDecision::WaitWarm);
        css.on_start(
            &req_at(0),
            StartClass::DelayedWarm,
            TimeDelta::from_millis(900),
            TimeDelta::from_millis(10),
            &at(0),
        );
        assert_eq!(
            css.on_blocked(&req_at(age_us), &at(age_us)),
            expected,
            "Td aged {age_us} us"
        );
        assert_eq!(
            css.bss_enabled(FunctionId(0)),
            expected == ScaleDecision::Race
        );
    }
}

/// A speculative container evicted unused (`Ti = ∞`) exceeds any
/// expected execution time, but only one that exists: with no `Te` in
/// the window there is nothing to compare against and CSS keeps racing.
#[test]
fn css_infinite_ti_disables_only_with_te_history() {
    let cl = one_fn_cluster();
    let make = || CssScaler::new(CidreConfig::default().window(Some(TimeDelta::from_secs(1))));

    // No execution recorded at all.
    let mut css = make();
    css.on_cold_outcome(FunctionId(0), None, &ctx_at(&cl, 0));
    assert_eq!(
        css.on_blocked(&req(0), &ctx_at(&cl, 0)),
        ScaleDecision::Race
    );

    // The only execution has left the 1 s window by t = 1.5 s.
    let mut css = make();
    record_exec(&mut css, &cl, 0, 50);
    css.on_cold_outcome(FunctionId(0), None, &ctx_at(&cl, 1_500));
    assert_eq!(
        css.on_blocked(&req(1_500), &ctx_at(&cl, 1_500)),
        ScaleDecision::Race
    );
    assert!(css.bss_enabled(FunctionId(0)));

    // The same execution still in the window at t = 1 s: disable.
    let mut css = make();
    record_exec(&mut css, &cl, 0, 50);
    css.on_cold_outcome(FunctionId(0), None, &ctx_at(&cl, 1_000));
    assert_eq!(
        css.on_blocked(&req(1_000), &ctx_at(&cl, 1_000)),
        ScaleDecision::WaitWarm
    );
    assert!(!css.bss_enabled(FunctionId(0)));
}

/// Algorithm 1 as written, for one function: full histories, each
/// statistic recomputed from the values inside the window on every
/// decision.
#[derive(Default)]
struct CssModel {
    bss_off: bool,
    ti: Option<(u64, f64)>,
    te: Vec<(u64, f64)>,
    td: Vec<(u64, f64)>,
    tp: Vec<(u64, f64)>,
}

/// What `CssModel` needs of the configuration, in microseconds.
struct ModelConfig {
    window_us: Option<u64>,
    te: TeEstimator,
    profile_cold_ms: f64,
}

impl ModelConfig {
    fn fresh(&self, at: u64, now: u64) -> bool {
        self.window_us.is_none_or(|w| now - at <= w)
    }

    fn retained(&self, history: &[(u64, f64)], now: u64) -> Vec<f64> {
        history
            .iter()
            .filter(|&&(at, _)| self.fresh(at, now))
            .map(|&(_, v)| v)
            .collect()
    }
}

impl CssModel {
    fn on_blocked(&mut self, cfg: &ModelConfig, now: u64) -> ScaleDecision {
        if self.bss_off {
            let td = cfg.retained(&self.td, now).last().copied();
            let tp = cfg.retained(&self.tp, now);
            let tp = if tp.is_empty() {
                cfg.profile_cold_ms
            } else {
                faas_metrics::percentile(&tp, 50.0)
            };
            if td.is_some_and(|td| td > tp) {
                self.bss_off = false;
                return ScaleDecision::Race;
            }
            ScaleDecision::WaitWarm
        } else {
            let ti = self.ti.filter(|&(at, _)| cfg.fresh(at, now));
            let te = cfg.retained(&self.te, now);
            let te = match (te.is_empty(), cfg.te) {
                (true, _) => None,
                (false, TeEstimator::Mean) => Some(te.iter().sum::<f64>() / te.len() as f64),
                (false, TeEstimator::Percentile(p)) => Some(faas_metrics::percentile(&te, p)),
            };
            match (ti, te) {
                (Some((_, ti)), Some(te)) if ti > te => {
                    self.bss_off = true;
                    ScaleDecision::WaitWarm
                }
                _ => ScaleDecision::Race,
            }
        }
    }
}

/// `CssScaler` against `CssModel` over random interleavings of starts
/// (every class, zero waits and executions included), cold outcomes
/// (`Ti` of zero, finite and infinite) and decisions at non-decreasing
/// times, for every estimator and a range of windows: each decision and
/// each `bss_enabled` matches.
#[test]
fn css_matches_a_full_history_model_of_algorithm_1() {
    Checker::new("css_matches_a_full_history_model_of_algorithm_1")
        .cases(200)
        .run(|g| {
            let window_us = *g.choose(&[None, Some(1_000), Some(2_500), Some(10_000)]);
            let te = match g.usize(0..3) {
                0 => TeEstimator::Mean,
                1 => TeEstimator::MEDIAN,
                _ => TeEstimator::Percentile(if g.bool(0.5) {
                    *g.choose(&[0.0, 25.0, 75.0, 100.0])
                } else {
                    g.f64(0.0..100.0)
                }),
            };
            let cfg = ModelConfig {
                window_us,
                te,
                profile_cold_ms: 2.0,
            };
            let cl = {
                let profiles = vec![FunctionProfile::new(
                    FunctionId(0),
                    "f",
                    128,
                    TimeDelta::from_millis(2),
                )];
                ClusterState::new(&[10_000], profiles, 1)
            };
            let mut css = CssScaler::new(CidreConfig {
                window: window_us.map(TimeDelta::from_micros),
                te,
            });
            let mut model = CssModel::default();
            // Values from 0 to 4 ms, a quarter of them exactly 0.
            let ms = |g: &mut faas_testkit::Gen| {
                if g.bool(0.25) {
                    0
                } else {
                    g.u64(1..4_000)
                }
            };
            let mut now = 0u64;
            for step in 0..g.usize(1..120) {
                now += *g.choose(&[0, 0, 1, 250, 999, 1_000, 1_001, 2_500, 6_000]);
                let ctx = cl.policy_ctx(TimePoint::from_micros(now));
                let req = RequestInfo {
                    arrival: ctx.now,
                    ..req(0)
                };
                match g.usize(0..3) {
                    0 => {
                        let class = *g.choose(&[
                            StartClass::Warm,
                            StartClass::DelayedWarm,
                            StartClass::Cold,
                        ]);
                        let (wait, exec) = (ms(g), ms(g));
                        let (wait, exec) =
                            (TimeDelta::from_micros(wait), TimeDelta::from_micros(exec));
                        css.on_start(&req, class, wait, exec, &ctx);
                        model.te.push((now, exec.as_millis_f64()));
                        match class {
                            StartClass::DelayedWarm => model.td.push((now, wait.as_millis_f64())),
                            StartClass::Cold => model.tp.push((now, wait.as_millis_f64())),
                            StartClass::Warm => {}
                        }
                    }
                    1 => {
                        let idle = match g.usize(0..3) {
                            0 => Some(TimeDelta::ZERO),
                            1 => Some(TimeDelta::from_micros(ms(g))),
                            _ => None,
                        };
                        css.on_cold_outcome(FunctionId(0), idle, &ctx);
                        let ti = idle.map_or(f64::INFINITY, TimeDelta::as_millis_f64);
                        model.ti = Some((now, ti));
                    }
                    _ => {
                        let got = css.on_blocked(&req, &ctx);
                        let want = model.on_blocked(&cfg, now);
                        assert_eq!(got, want, "decision {step} at {now} us");
                    }
                }
                assert_eq!(
                    css.bss_enabled(FunctionId(0)),
                    !model.bss_off,
                    "bss_enabled after step {step} at {now} us"
                );
            }
        });
}

// ---------------------------------------------------------------- CIP --

/// Cluster with `n` warm containers of function 0 (`mem_mb`, `cold_ms`),
/// provisioned at t=0.
fn warm_cluster(n: usize, mem_mb: u32, cold_ms: u64) -> ClusterState {
    let profiles = vec![FunctionProfile::new(
        FunctionId(0),
        "f",
        mem_mb,
        TimeDelta::from_millis(cold_ms),
    )];
    let mut cl = ClusterState::new(&[100_000], profiles, 1);
    for _ in 0..n {
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
    }
    cl
}

fn info(cl: &ClusterState, id: ContainerId) -> ContainerInfo {
    ContainerInfo::from(cl.container(id).expect("live"))
}

/// Eq. 3 with a zero clock reduces to `Freq * Cost / (Size * |F(c)|)`.
/// One arrival at t=0 observed at t=60 s gives Freq = 1/min (Eq. 4), so
/// with Cost = 200 ms, Size = 100 MB, |F(c)| = 1 the priority is
/// exactly 1 * 200 / (100 * 1) = 2.
#[test]
fn cip_priority_is_eq3_arithmetic() {
    let mut cl = warm_cluster(1, 100, 200);
    cl.note_arrival(FunctionId(0), TimePoint::ZERO);
    let cip = CipKeepAlive::new();
    let ctx = cl.policy_ctx(TimePoint::from_secs(60));
    let p = cip.priority(&info(&cl, ContainerId(0)), &ctx);
    assert!((p - 2.0).abs() < 1e-12, "got {p}");
    // Doubling the warm-container count halves the per-container share.
    let cl2 = {
        let mut c = warm_cluster(2, 100, 200);
        c.note_arrival(FunctionId(0), TimePoint::ZERO);
        c
    };
    let ctx2 = cl2.policy_ctx(TimePoint::from_secs(60));
    let p2 = cip.priority(&info(&cl2, ContainerId(0)), &ctx2);
    assert!((p2 - 1.0).abs() < 1e-12, "got {p2}");
}

/// Eq. 4 is invocations over minutes since first arrival: 3 arrivals at
/// t=0 observed at t=120 s give 1.5/min; observed 1 ms after the first
/// arrival the elapsed time clamps to one second, giving 180/min.
#[test]
fn cip_eq4_frequency_over_lifetime_and_clamp() {
    let mut cl = warm_cluster(1, 100, 200);
    for _ in 0..3 {
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
    }
    let cip = CipKeepAlive::new();
    let at_2min = cl.policy_ctx(TimePoint::from_secs(120));
    let p = cip.priority(&info(&cl, ContainerId(0)), &at_2min);
    assert!((p - 1.5 * 200.0 / 100.0).abs() < 1e-12, "got {p}");
    let at_1ms = cl.policy_ctx(TimePoint::from_millis(1));
    let p = cip.priority(&info(&cl, ContainerId(0)), &at_1ms);
    assert!((p - 180.0 * 200.0 / 100.0).abs() < 1e-9, "got {p}");
}

/// §3.3 clock inheritance: a container admitted by evicting others
/// starts its logical clock at the maximum evicted priority, and its own
/// priority stacks Eq. 3's frequency term on top of that clock.
#[test]
fn cip_clock_inheritance_is_max_evicted_plus_own_term() {
    let mut cl = warm_cluster(2, 100, 200);
    cl.note_arrival(FunctionId(0), TimePoint::ZERO);
    let mut cip = CipKeepAlive::new();
    let now = TimePoint::from_secs(60);
    // Both victims share k=2 and Freq=1/min: priority 1*200/(100*2) = 1.
    let (i0, i1) = (info(&cl, ContainerId(0)), info(&cl, ContainerId(1)));
    {
        let ctx = cl.policy_ctx(now);
        assert!((cip.priority(&i0, &ctx) - 1.0).abs() < 1e-12);
        cip.on_evict(&i0, &ctx);
        cip.on_evict(&i1, &ctx);
    }
    cl.evict(ContainerId(0), now);
    cl.evict(ContainerId(1), now);
    // Admit the replacement; it inherits clock = max(1, 1) = 1.
    let new_id = cl.begin_provision(FunctionId(0), WorkerId(0), now, false);
    cl.finish_provision(new_id, now);
    let new_info = info(&cl, new_id);
    {
        let ctx = cl.policy_ctx(now);
        cip.on_admit(&new_info, &[i0, i1], &ctx);
    }
    assert!((cip.clock(new_id) - 1.0).abs() < 1e-12);
    // Its priority is the inherited clock plus its own term: now the
    // function holds a single container, so 1 + 1*200/(100*1) = 3.
    let ctx = cl.policy_ctx(now);
    let p = cip.priority(&new_info, &ctx);
    assert!((p - 3.0).abs() < 1e-12, "got {p}");
}

/// Priorities flow from Eq. 3 into sorts and heap keys, so the float
/// comparator is part of the algorithm: `f64::total_cmp` gives the
/// IEEE-754 total order — no NaN unwrap, `-0.0` strictly below `0.0`.
/// `faas-core`'s `ordf64_orders_like_total_cmp` holds the eviction
/// index's key, `OrdF64`, to the same order.
#[test]
fn priority_comparator_total_orders_nan_and_signed_zero() {
    let mut v = [
        f64::NAN,
        1.0,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::INFINITY,
        -1.0,
    ];
    v.sort_by(f64::total_cmp); // a partial_cmp().unwrap() here would panic
    assert_eq!(v[0], f64::NEG_INFINITY);
    assert_eq!(v[1], -1.0);
    assert!(v[2] == 0.0 && v[2].is_sign_negative(), "-0.0 before 0.0");
    assert!(v[3] == 0.0 && v[3].is_sign_positive());
    assert_eq!(v[4], 1.0);
    assert_eq!(v[5], f64::INFINITY);
    assert!(v[6].is_nan(), "positive NaN sorts last");
}

/// NaN priorities must never reach an eviction order silently: the
/// reference path panics with the message the indexed paths panic with
/// (`faas-core`'s `ordf64_rejects_nan` and `round_heap_rejects_nan`), so
/// swapping scan modes cannot change NaN handling (the differential
/// oracle depends on this).
#[test]
#[should_panic(expected = "priorities must not be NaN")]
fn reference_eviction_sort_rejects_nan() {
    let _ = faas_sim::reference::sorted_eviction_candidates(vec![
        (1.0, ContainerId(0)),
        (f64::NAN, ContainerId(1)),
    ]);
}
