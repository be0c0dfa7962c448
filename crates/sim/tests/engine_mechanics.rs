//! Integration tests of engine mechanics that need whole-run scenarios:
//! tick-driven expiration, prewarming, provisioning-latency overrides,
//! and memory residency.

mod common;

use faas_sim::{
    run, run_traced, AlwaysCold, ContainerId, ContainerInfo, KeepAlive, PolicyCtx, PolicyStack,
    Prewarm, SimConfig, StartClass,
};
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

/// LRU keep-alive with a TTL expiration, for tick tests.
#[derive(Debug)]
struct ExpiringLru {
    ttl: TimeDelta,
}

impl KeepAlive for ExpiringLru {
    fn name(&self) -> &str {
        "expiring-lru"
    }
    fn priority(&self, c: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        c.last_used.as_micros() as f64
    }
    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        ctx.all_iter()
            .filter(|c| c.threads_in_use == 0 && ctx.now.saturating_since(c.last_used) >= self.ttl)
            .map(|c| c.id)
            .collect()
    }
}

fn trace_two_hits_apart(gap_ms: u64) -> Trace {
    let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
    let invs = vec![
        Invocation {
            func: FunctionId(0),
            arrival: TimePoint::ZERO,
            exec: TimeDelta::from_millis(10),
        },
        Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(gap_ms),
            exec: TimeDelta::from_millis(10),
        },
    ];
    Trace::new(vec![f], invs).expect("valid")
}

#[test]
fn ttl_expiration_forces_second_cold_start() {
    // Container expires after 1 s idle; second request 5 s later must
    // cold start again even though memory is ample.
    let stack = PolicyStack::new(
        Box::new(ExpiringLru {
            ttl: TimeDelta::from_secs(1),
        }),
        Box::new(AlwaysCold),
    );
    let config = SimConfig::default()
        .workers_mb(vec![10_000])
        .tick(TimeDelta::from_millis(200));
    let report = run(&trace_two_hits_apart(5_000), &config, stack);
    assert_eq!(report.count(StartClass::Cold), 2);
    assert_eq!(report.containers_evicted, 1);
}

#[test]
fn without_expiration_second_hit_is_warm() {
    let stack = PolicyStack::new(
        Box::new(ExpiringLru {
            ttl: TimeDelta::from_secs(60),
        }),
        Box::new(AlwaysCold),
    );
    let config = SimConfig::default()
        .workers_mb(vec![10_000])
        .tick(TimeDelta::from_millis(200));
    let report = run(&trace_two_hits_apart(5_000), &config, stack);
    assert_eq!(report.count(StartClass::Cold), 1);
    assert_eq!(report.count(StartClass::Warm), 1);
}

/// Prewarms one container for fn0 on the very first tick.
#[derive(Debug)]
struct PrewarmOnce {
    done: bool,
}

impl Prewarm for PrewarmOnce {
    fn name(&self) -> &str {
        "prewarm-once"
    }
    fn on_tick(&mut self, _ctx: &PolicyCtx<'_>) -> Vec<FunctionId> {
        if self.done {
            Vec::new()
        } else {
            self.done = true;
            vec![FunctionId(0)]
        }
    }
}

#[test]
fn prewarmed_container_turns_cold_start_into_warm() {
    // Request arrives at t=2s; prewarm fires at the first tick (500 ms)
    // and the container is warm (cold start 100 ms) well before arrival.
    let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
    let invs = vec![Invocation {
        func: FunctionId(0),
        arrival: TimePoint::from_secs(2),
        exec: TimeDelta::from_millis(10),
    }];
    let trace = Trace::new(vec![f], invs).expect("valid");
    let stack = PolicyStack::new(
        Box::new(ExpiringLru {
            ttl: TimeDelta::from_secs(600),
        }),
        Box::new(AlwaysCold),
    )
    .with_prewarm(Box::new(PrewarmOnce { done: false }));
    let config = SimConfig::default()
        .workers_mb(vec![10_000])
        .tick(TimeDelta::from_millis(500));
    let report = run(&trace, &config, stack);
    assert_eq!(report.count(StartClass::Warm), 1);
    assert_eq!(report.containers_created, 1);
}

/// Keep-alive that halves provisioning latency (layer-sharing stand-in).
#[derive(Debug)]
struct HalfCold;

impl KeepAlive for HalfCold {
    fn name(&self) -> &str {
        "half-cold"
    }
    fn priority(&self, c: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
        c.last_used.as_micros() as f64
    }
    fn provision_latency(&mut self, func: FunctionId, ctx: &PolicyCtx<'_>) -> Option<TimeDelta> {
        Some(ctx.profile(func).cold_start.scale(0.5))
    }
}

#[test]
fn provision_latency_override_shortens_cold_start() {
    let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(400));
    let invs = vec![Invocation {
        func: FunctionId(0),
        arrival: TimePoint::ZERO,
        exec: TimeDelta::from_millis(10),
    }];
    let trace = Trace::new(vec![f], invs).expect("valid");
    let stack = PolicyStack::new(Box::new(HalfCold), Box::new(AlwaysCold));
    let report = run(&trace, &SimConfig::default(), stack);
    assert_eq!(report.requests[0].wait, TimeDelta::from_millis(200));
}

#[test]
fn memory_timeseries_tracks_provision_and_eviction() {
    // One container provisioned then evicted by TTL before the second
    // hit provisions another: memory rises to 128 MB, never to 256.
    let stack = PolicyStack::new(
        Box::new(ExpiringLru {
            ttl: TimeDelta::from_secs(1),
        }),
        Box::new(AlwaysCold),
    );
    let config = SimConfig::default()
        .workers_mb(vec![10_000])
        .tick(TimeDelta::from_millis(500));
    let trace = trace_two_hits_apart(5_000);
    let (report, log) = run_traced(&trace, &config, stack);
    let (peak, mb_us) = common::residency(&trace, log.events(), report.ledger_settled_at);
    assert_eq!(peak, 128);
    assert_eq!(report.containers_created, 2);
    assert!(report.containers_evicted >= 1);
    assert_eq!(report.ledger.total_mb_us(), mb_us);
}

#[test]
fn multi_worker_placement_spreads_by_free_memory() {
    // Two workers; four distinct functions of 400 MB with 1000 MB
    // workers: placement must alternate so all four fit concurrently.
    let profiles: Vec<FunctionProfile> = (0..4)
        .map(|i| {
            FunctionProfile::new(
                FunctionId(i),
                format!("f{i}"),
                400,
                TimeDelta::from_millis(50),
            )
        })
        .collect();
    let invs = (0..4)
        .map(|i| Invocation {
            func: FunctionId(i),
            arrival: TimePoint::from_millis(i as u64),
            exec: TimeDelta::from_secs(10),
        })
        .collect();
    let trace = Trace::new(profiles, invs).expect("valid");
    let stack = PolicyStack::new(
        Box::new(ExpiringLru {
            ttl: TimeDelta::from_secs(600),
        }),
        Box::new(AlwaysCold),
    );
    let config = SimConfig::default().workers_mb(vec![1_000, 1_000]);
    let (report, log) = run_traced(&trace, &config, stack);
    // All four run concurrently: every request only waits its cold start.
    for r in &report.requests {
        assert_eq!(r.wait, TimeDelta::from_millis(50));
    }
    let (peak, _) = common::residency(&trace, log.events(), report.ledger_settled_at);
    assert_eq!(peak, 1_600);
}
