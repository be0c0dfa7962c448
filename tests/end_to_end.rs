//! Cross-crate integration tests: every policy against generated
//! workloads, with system-level invariants checked on the reports.

use cidre::core::{cidre_bss_stack, cidre_stack, CidreConfig};
use cidre::obs::{EvictReason, ObsEvent};
use cidre::policies::ttl_stack_with;
use cidre::policies::{
    codecrunch_stack, ensure_stack, faascache_c_stack, faascache_queue_stack, faascache_stack,
    flame_stack, icebreaker_stack, lru_stack, offline_stack, rainbowcake_stack, ttl_stack,
};
use cidre::sim::{run, run_traced, PolicyStack, SimConfig, SimReport, StartClass};
use cidre::trace::{gen, FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

fn all_stacks(trace: &Trace) -> Vec<(&'static str, PolicyStack)> {
    vec![
        ("ttl", ttl_stack()),
        ("lru", lru_stack()),
        ("faascache", faascache_stack()),
        ("faascache-c", faascache_c_stack()),
        ("queue-1", faascache_queue_stack(Some(1))),
        ("queue-unbounded", faascache_queue_stack(None)),
        ("rainbowcake", rainbowcake_stack()),
        ("icebreaker", icebreaker_stack()),
        ("codecrunch", codecrunch_stack()),
        ("flame", flame_stack()),
        ("ensure", ensure_stack()),
        ("cidre-bss", cidre_bss_stack()),
        ("cidre", cidre_stack(CidreConfig::default())),
        ("offline", offline_stack(trace)),
    ]
}

fn check_invariants(name: &str, trace: &Trace, report: &SimReport) {
    // The "a cold start pays at least the provisioning latency" bound
    // only holds for strict always-cold policies, where pending requests
    // and provisions match 1:1. Layer sharing and compression pay partial
    // cold starts; prewarming and speculative racing can hand a request a
    // container whose provisioning began before the request arrived.
    let strict_cold = matches!(name, "ttl" | "lru" | "faascache" | "faascache-c" | "flame");
    // Conservation: every trace request completed exactly once.
    assert_eq!(
        report.requests.len(),
        trace.len(),
        "{name}: request conservation"
    );
    // Every request has a class; ratios partition.
    let total = report.ratio(StartClass::Warm)
        + report.ratio(StartClass::Cold)
        + report.ratio(StartClass::DelayedWarm);
    assert!(
        (total - 1.0).abs() < 1e-9,
        "{name}: class partition {total}"
    );
    // No worker exceeds its capacity: debug builds assert that after
    // every step (`Orchestrator::check_invariants`).
    // Warm starts have zero wait; strict always-cold policies pay at
    // least the provisioning latency on every cold start.
    for r in &report.requests {
        match r.class {
            StartClass::Warm => {
                assert_eq!(r.wait.as_micros(), 0, "{name}: warm start with wait")
            }
            StartClass::Cold => {
                if strict_cold {
                    let cold = trace.function(r.func).expect("profile").cold_start;
                    assert!(
                        r.wait >= cold,
                        "{name}: cold wait {} < cold start {}",
                        r.wait,
                        cold
                    );
                }
            }
            // Cold and delayed-warm waits are almost always positive, but
            // a request arriving at the exact instant a resource frees
            // legitimately waits zero, so no positivity is asserted.
            StartClass::DelayedWarm => {}
        }
    }
    // Eviction accounting is consistent.
    assert!(
        report.containers_evicted <= report.containers_created,
        "{name}: eviction count"
    );
    assert!(
        report.wasted_cold_starts <= report.containers_evicted,
        "{name}: waste count"
    );
}

#[test]
fn every_policy_respects_invariants_on_azure() {
    let trace = gen::azure(101).functions(25).minutes(2).build();
    let config = SimConfig::with_cache_gb(8);
    for (name, stack) in all_stacks(&trace) {
        let report = run(&trace, &config, stack);
        check_invariants(name, &trace, &report);
    }
}

#[test]
fn every_policy_respects_invariants_on_fc() {
    let trace = gen::fc(202).functions(20).minutes(2).build();
    let config = SimConfig::with_cache_gb(8);
    for (name, stack) in all_stacks(&trace) {
        let report = run(&trace, &config, stack);
        check_invariants(name, &trace, &report);
    }
}

#[test]
fn bss_worst_case_guarantee_with_ample_memory() {
    // §3.2: BSS guarantees every request an overhead at least as good as
    // a cold start. This holds when provisioning is never deferred, i.e.
    // with ample memory.
    let trace = gen::fc(7).functions(10).minutes(2).build();
    let config = SimConfig::default().workers_mb(vec![512 * 1024]);
    let report = run(&trace, &config, cidre_bss_stack());
    for r in &report.requests {
        let cold = trace.function(r.func).expect("profile").cold_start;
        assert!(
            r.wait <= cold,
            "request waited {} but a cold start is only {}",
            r.wait,
            cold
        );
    }
}

#[test]
fn runs_are_deterministic_across_policies() {
    let trace = gen::azure(55).functions(15).minutes(1).build();
    let config = SimConfig::with_cache_gb(6);
    for (name, _) in all_stacks(&trace) {
        let a = run(&trace, &config, pick(name, &trace));
        let b = run(&trace, &config, pick(name, &trace));
        assert_eq!(a.requests, b.requests, "{name} not deterministic");
        assert_eq!(
            a.containers_created, b.containers_created,
            "{name} not deterministic"
        );
    }
}

fn pick(name: &str, trace: &Trace) -> PolicyStack {
    all_stacks(trace)
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| s)
        .expect("known name")
}

#[test]
fn multithread_containers_reduce_cold_starts() {
    let trace = gen::fc(31).functions(15).minutes(2).build();
    let config1 = SimConfig::with_cache_gb(8).container_threads(1);
    let config8 = SimConfig::with_cache_gb(8).container_threads(8);
    let r1 = run(&trace, &config1, faascache_stack());
    let r8 = run(&trace, &config8, faascache_stack());
    assert!(
        r8.ratio(StartClass::Cold) < r1.ratio(StartClass::Cold),
        "8-thread cold {} should beat 1-thread {}",
        r8.ratio(StartClass::Cold),
        r1.ratio(StartClass::Cold)
    );
}

#[test]
fn tighter_cache_never_lowers_overhead() {
    let trace = gen::azure(77).functions(25).minutes(2).build();
    let big = run(&trace, &SimConfig::with_cache_gb(64), faascache_stack());
    let small = run(&trace, &SimConfig::with_cache_gb(6), faascache_stack());
    assert!(
        small.avg_overhead_ratio() >= big.avg_overhead_ratio() - 0.02,
        "small cache {:.3} unexpectedly beats big cache {:.3}",
        small.avg_overhead_ratio(),
        big.avg_overhead_ratio()
    );
}

/// The cluster finds per-function state by slot: directly for the dense
/// ids every generated trace has, by binary search otherwise. The same
/// trace with its ids spread out in order (`f → 3f + 5`) takes the search
/// on every lookup and must replay the same: the same requests in the
/// same classes, and the same ledger.
#[test]
fn sparse_function_ids_replay_like_dense_ones() {
    let trace = gen::azure(91).functions(25).minutes(2).build();
    let spread = |f: FunctionId| FunctionId(3 * f.0 + 5);
    let (profiles, invocations) = trace.clone().into_parts();
    let sparse = Trace::new(
        profiles
            .into_iter()
            .map(|p| FunctionProfile {
                id: spread(p.id),
                ..p
            })
            .collect(),
        invocations
            .into_iter()
            .map(|inv| Invocation {
                func: spread(inv.func),
                ..inv
            })
            .collect(),
    )
    .expect("an order-preserving relabelling is still a valid trace");
    let config = SimConfig::with_cache_gb(6);
    let outcomes = |r: &SimReport| -> Vec<_> {
        r.requests
            .iter()
            .map(|q| (q.arrival, q.wait, q.exec, q.class))
            .collect()
    };
    for name in ["cidre", "codecrunch", "flame", "faascache"] {
        let dense = run(&trace, &config, pick(name, &trace));
        let spread_out = run(&sparse, &config, pick(name, &sparse));
        assert!(dense.containers_evicted > 0, "{name}: no memory pressure");
        assert_eq!(outcomes(&dense), outcomes(&spread_out), "{name}: requests");
        assert_eq!(dense.ledger, spread_out.ledger, "{name}: ledger");
    }
}

/// The three keep-alives with a tick-time `expirations` walk
/// `PolicyCtx::all_iter`, and the core evicts in the order they return:
/// the container table's id order is visible in the trace. Six
/// containers of one function come up together and idle together; a
/// lone late request keeps the tick chain alive past every idle timeout.
#[test]
fn tick_expirations_evict_in_ascending_id_order() {
    let profiles = vec![
        FunctionProfile::new(FunctionId(0), "burst", 128, TimeDelta::from_millis(100)),
        FunctionProfile::new(FunctionId(1), "late", 128, TimeDelta::from_millis(100)),
    ];
    let burst = (0..6).map(|_| Invocation {
        func: FunctionId(0),
        arrival: TimePoint::ZERO,
        exec: TimeDelta::from_millis(200),
    });
    let late = Invocation {
        func: FunctionId(1),
        arrival: TimePoint::from_secs(300),
        exec: TimeDelta::from_millis(200),
    };
    let trace = Trace::new(profiles, burst.chain([late]).collect()).expect("valid");
    for (name, stack) in [
        ("ttl", ttl_stack_with(TimeDelta::from_secs(60))),
        ("ensure", ensure_stack()),
        ("rainbowcake", rainbowcake_stack()),
    ] {
        let (_, log) = run_traced(&trace, &SimConfig::with_cache_gb(8), stack);
        let expired: Vec<(TimePoint, u64)> = log
            .events()
            .iter()
            .filter_map(|ev| match ev {
                ObsEvent::Evict {
                    at,
                    cid,
                    reason: EvictReason::Expire,
                    ..
                } => Some((*at, *cid)),
                _ => None,
            })
            .collect();
        let (tick, _) = *expired.first().expect("nothing expired");
        let on_first_tick: Vec<u64> = expired
            .iter()
            .filter(|&&(at, _)| at == tick)
            .map(|&(_, cid)| cid)
            .collect();
        assert!(
            on_first_tick.len() >= 3,
            "{name}: only {on_first_tick:?} expired together"
        );
        assert!(
            on_first_tick.windows(2).all(|w| w[0] < w[1]),
            "{name}: expired out of id order: {on_first_tick:?}"
        );
    }
}
