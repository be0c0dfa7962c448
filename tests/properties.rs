//! Property-based tests over the whole stack, on the hermetic
//! `faas-testkit` runner: random traces through the simulator must
//! uphold conservation, memory, classification, and determinism
//! invariants; the metrics substrate must match naive recomputation.

use cidre::core::{cidre_stack, CidreConfig};
use cidre::metrics::{Cdf, SlidingWindow};
use cidre::policies::{faascache_queue_stack, faascache_stack};
use cidre::sim::{run, run_traced, PolicyStack, SimConfig, SimReport, StartClass};
use cidre::trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};
use faas_testkit::Checker;

#[path = "../crates/sim/tests/common/arb.rs"]
mod arb;
#[path = "../crates/sim/tests/common/mod.rs"]
mod common;

use arb::{arb_config, arb_trace};

/// 48-case checker persisting failing seeds next to this file.
fn checker(name: &str) -> Checker {
    Checker::new(name).cases(48).regressions_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/properties.testkit-regressions"
    ))
}

fn stacks() -> Vec<PolicyStack> {
    vec![
        faascache_stack(),
        faascache_queue_stack(Some(1)),
        cidre_stack(CidreConfig::default()),
    ]
}

/// The invariants every simulation run must uphold, shared between the
/// random property and the pinned regression trace below.
fn assert_simulator_invariants(trace: &Trace) {
    let config = SimConfig::default().workers_mb(vec![2_048, 2_048]);
    for stack in stacks() {
        let label = stack.label();
        let report = run(trace, &config, stack);
        // Conservation.
        assert_eq!(report.requests.len(), trace.len(), "{label}");
        // Class-consistent waits. (Cold and delayed-warm waits are
        // almost always positive, but a request arriving at the exact
        // instant a resource frees legitimately waits zero.)
        for r in &report.requests {
            if r.class == StartClass::Warm {
                assert_eq!(r.wait.as_micros(), 0, "{label}");
            }
        }
        // No worker exceeds its capacity: debug builds assert that after
        // every step (`Orchestrator::check_invariants`).
        // Bookkeeping sanity.
        assert!(
            report.containers_evicted <= report.containers_created,
            "{label}"
        );
    }
}

#[test]
fn simulator_invariants_hold_on_random_traces() {
    checker("simulator_invariants_hold_on_random_traces").run(|g| {
        let trace = arb_trace(g);
        assert_simulator_invariants(&trace);
    });
}

/// Re-encoding of the shrunk counterexample proptest once found (seed
/// `cc 66256b60…` in the retired `properties.proptest-regressions`
/// file): 4 functions, 47 invocations with heavy overlap on f1. Kept as
/// a pinned regression now that the random source has changed.
#[test]
fn simulator_invariants_hold_on_proptest_regression_cc66256b() {
    const FNS: &[(u32, u64)] = &[(273, 201), (888, 1911), (444, 841), (786, 1061)];
    const INVS: &[(u32, u64, u64)] = &[
        (2, 280, 1187),
        (0, 323, 704),
        (1, 550, 1679),
        (1, 917, 398),
        (1, 1053, 2654),
        (2, 1416, 2087),
        (3, 1878, 2085),
        (0, 2537, 2488),
        (1, 3270, 1173),
        (0, 3382, 185),
        (2, 3735, 2799),
        (0, 4686, 1470),
        (0, 4697, 561),
        (1, 5848, 2076),
        (2, 5906, 988),
        (1, 6258, 2992),
        (3, 6752, 576),
        (1, 8135, 2310),
        (2, 8839, 624),
        (0, 9234, 949),
        (1, 9999, 2718),
        (2, 10294, 1098),
        (1, 10439, 2379),
        (1, 10939, 2411),
        (0, 10965, 1160),
        (0, 11560, 1410),
        (1, 11974, 1426),
        (1, 12856, 2388),
        (1, 13071, 1871),
        (0, 13867, 2079),
        (1, 14675, 405),
        (1, 17985, 2431),
        (0, 19400, 2875),
        (0, 20873, 1450),
        (2, 20887, 1204),
        (0, 21415, 2898),
        (1, 31924, 1001),
        (2, 32654, 1131),
        (0, 34530, 353),
        (3, 37664, 2836),
        (3, 38181, 2355),
        (1, 40516, 2343),
        (3, 40929, 390),
        (3, 42028, 366),
        (0, 45883, 2003),
        (2, 48016, 2089),
        (0, 55874, 1080),
    ];
    let profiles: Vec<FunctionProfile> = FNS
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold_ms))| {
            FunctionProfile::new(
                FunctionId(i as u32),
                format!("f{i}"),
                mem,
                TimeDelta::from_millis(cold_ms),
            )
        })
        .collect();
    let invocations: Vec<Invocation> = INVS
        .iter()
        .map(|&(f, at_ms, exec_ms)| Invocation {
            func: FunctionId(f),
            arrival: TimePoint::from_millis(at_ms),
            exec: TimeDelta::from_millis(exec_ms),
        })
        .collect();
    let trace = Trace::new(profiles, invocations).expect("regression trace is consistent");
    assert_simulator_invariants(&trace);
}

/// GB-seconds conservation (DESIGN.md §11): the ledger charges every
/// container's residency to exactly one lifecycle class, so
/// `cold_start + keep_warm` must equal the residency rebuilt from the
/// run's trace events — exactly, in integer MB·µs. The overlay classes
/// (idle, speculative) must stay within their parents.
#[test]
fn ledger_conserves_gb_seconds_on_random_traces() {
    checker("ledger_conserves_gb_seconds_on_random_traces").run(|g| {
        let trace = arb_trace(g);
        let config = SimConfig::default().workers_mb(vec![2_048, 2_048]);
        for stack in stacks() {
            let label = stack.label();
            let (report, log) = run_traced(&trace, &config, stack);
            let (_, integrated) = common::residency(&trace, log.events(), report.ledger_settled_at);
            assert_eq!(
                report.ledger.total_mb_us(),
                integrated,
                "{label}: ledger total diverges from integrated residency"
            );
            assert!(
                report.ledger.idle_mb_us <= report.ledger.keep_warm_mb_us,
                "{label}: idle exceeds keep-warm"
            );
            assert!(
                report.ledger.speculative_mb_us <= report.ledger.total_mb_us(),
                "{label}: speculative exceeds total residency"
            );
            assert!(
                report.ledger.dispatches >= report.requests.len() as u64,
                "{label}: fewer dispatches than completed requests"
            );
        }
    });
}

/// An explicit `FaultPlan::none()` must be byte-identical to the
/// default (fault-free) configuration, ledger included: threading the
/// cost accounting through the engines must not add a single RNG draw
/// or reorder a single event.
#[test]
fn none_fault_plan_leaves_ledger_untouched() {
    use cidre::sim::FaultPlan;
    checker("none_fault_plan_leaves_ledger_untouched").run(|g| {
        let trace = arb_trace(g);
        let config = SimConfig::default().workers_mb(vec![2_048, 2_048]);
        let baseline = run(&trace, &config, cidre_stack(CidreConfig::default()));
        let with_plan = run(
            &trace,
            &config.clone().faults(FaultPlan::none()),
            cidre_stack(CidreConfig::default()),
        );
        assert_eq!(format!("{baseline:?}"), format!("{with_plan:?}"));
    });
}

#[test]
fn simulator_is_deterministic() {
    checker("simulator_is_deterministic").run(|g| {
        let trace = arb_trace(g);
        let config = arb_config(g);
        let a = run(&trace, &config, cidre_stack(CidreConfig::default()));
        let b = run(&trace, &config, cidre_stack(CidreConfig::default()));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.containers_created, b.containers_created);
        assert_eq!(a.wasted_cold_starts, b.wasted_cold_starts);
        let _: &SimReport = &a;
    });
}

#[test]
fn cdf_is_monotone_and_bounded() {
    checker("cdf_is_monotone_and_bounded").run(|g| {
        let samples = g.vec(1..200, |g| g.f64(0.0..1e6));
        let cdf = Cdf::from_samples(samples.iter().copied());
        let mut prev = 0.0;
        for i in 0..=50 {
            let x = 1e6 * i as f64 / 50.0;
            let f = cdf.fraction_at_or_below(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev);
            prev = f;
        }
        // Quantiles invert fractions.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = cdf.quantile(q);
            assert!(v >= cdf.min().expect("non-empty"));
            assert!(v <= cdf.max().expect("non-empty"));
        }
    });
}

#[test]
fn sliding_window_matches_naive_median() {
    checker("sliding_window_matches_naive_median").run(|g| {
        let entries = g.vec(1..100, |g| (g.u64(0..10_000), g.f64(0.0..1e3)));
        let span = g.u64(1..5_000);
        let mut sorted = entries.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let mut window = SlidingWindow::new(Some(span));
        for &(t, v) in &sorted {
            window.record(t, v);
        }
        let now = sorted.last().expect("non-empty").0;
        let cutoff = now.saturating_sub(span);
        let naive: Vec<f64> = sorted
            .iter()
            .filter(|&&(t, _)| t >= cutoff)
            .map(|&(_, v)| v)
            .collect();
        match window.median(now) {
            Some(m) => {
                assert!(!naive.is_empty());
                let expected = cidre::metrics::percentile(&naive, 50.0);
                assert_eq!(
                    m.to_bits(),
                    expected.to_bits(),
                    "window {m} vs naive {expected}"
                );
            }
            None => assert!(naive.is_empty()),
        }
    });
}

/// The window's incremental order statistic against the definition:
/// after any interleaving of records (out of order, duplicated, signed
/// zeros), expiries, clones and queries, a percentile is bit for bit
/// what `metrics::percentile` computes from the retained values, and
/// the retained entries are what the cutoff rule says.
#[test]
fn sliding_window_percentile_matches_sort_of_retained() {
    checker("sliding_window_percentile_matches_sort_of_retained").run(|g| {
        let span = if g.bool(0.25) {
            None
        } else {
            Some(g.u64(1..2_000))
        };
        let mut window = SlidingWindow::new(span);
        let mut model: Vec<(u64, f64)> = Vec::new();
        let expire = |model: &mut Vec<(u64, f64)>, now: u64| {
            if let Some(span) = span {
                model.retain(|&(t, _)| t >= now.saturating_sub(span));
            }
        };
        let mut now = 0u64;
        for _ in 0..g.usize(1..300) {
            match g.usize(0..10) {
                0..=5 => {
                    // From 20 before to 60 after the latest time seen.
                    let t = (now + g.u64(0..80)).saturating_sub(20);
                    let v = if g.bool(0.5) {
                        *g.choose(&[0.0, -0.0, 1.0, 2.5, -3.0, 1e3])
                    } else {
                        g.f64(-1e3..1e3)
                    };
                    window.record(t, v);
                    let at = model.last().map_or(t, |&(last, _)| t.max(last));
                    model.push((at, v));
                    expire(&mut model, at);
                    now = now.max(at);
                }
                6 => {
                    now += g.u64(0..300);
                    window.expire(now);
                    expire(&mut model, now);
                }
                7 => {
                    let copy = window.clone();
                    assert_eq!(copy, window);
                    window = copy;
                }
                _ => {
                    now += g.u64(0..40);
                    let p = *g.choose(&[0.0, 12.5, 50.0, 99.0, 100.0]);
                    let got = window.percentile(now, p);
                    let retained: Vec<f64> = window.iter().map(|(_, v)| v).collect();
                    let want =
                        (!retained.is_empty()).then(|| cidre::metrics::percentile(&retained, p));
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "p{p}");
                    expire(&mut model, now);
                }
            }
            let retained: Vec<(u64, u64)> = window.iter().map(|(t, v)| (t, v.to_bits())).collect();
            let expected: Vec<(u64, u64)> = model.iter().map(|&(t, v)| (t, v.to_bits())).collect();
            assert_eq!(retained, expected);
        }
    });
}

#[test]
#[should_panic(expected = "NaN in percentile input")]
fn sliding_window_nan_recorded_after_a_query_fails_the_next() {
    let mut window = SlidingWindow::new(None);
    for t in 0..20 {
        window.record(t, t as f64);
    }
    assert_eq!(window.median(20), Some(9.5));
    window.record(21, f64::NAN);
    window.median(21);
}

#[test]
fn sliding_window_equality_ignores_whether_it_was_queried() {
    let mut queried = SlidingWindow::new(Some(100));
    let mut fresh = SlidingWindow::new(Some(100));
    for t in 0..50 {
        queried.record(t, (t % 7) as f64);
        fresh.record(t, (t % 7) as f64);
        queried.median(t);
    }
    assert_eq!(queried, fresh);
    // Past t = 100 the two differ in what is expired but not yet patched
    // out of the queried one's sorted mirror.
    queried.record(120, 1.0);
    fresh.record(120, 1.0);
    assert_eq!(queried, fresh);
    fresh.record(121, 1.0);
    assert_ne!(queried, fresh);
}

#[test]
fn trace_transforms_preserve_length() {
    checker("trace_transforms_preserve_length").run(|g| {
        let trace = arb_trace(g);
        let factor = g.f64(0.1..4.0);
        use cidre::trace::transform;
        assert_eq!(transform::scale_iat(&trace, factor).len(), trace.len());
        assert_eq!(transform::scale_exec(&trace, factor).len(), trace.len());
    });
}
