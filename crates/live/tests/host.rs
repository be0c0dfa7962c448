//! Integration tests of the programmable FaaS host.

use std::sync::Mutex;

use cidre_core::{cidre_stack, CidreConfig};
use faas_live::{FaasHost, Handler, LiveConfig};
use faas_sim::{baseline_lru_stack, FaultPlan, SimConfig, StartClass, WorkerId};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

/// Serialise host tests: they race the wall clock.
static LIVE_HOST: Mutex<()> = Mutex::new(());

fn sum_handler() -> Handler {
    std::sync::Arc::new(|payload: Vec<u8>| {
        let total: u64 = payload.iter().map(|&b| b as u64).sum();
        total.to_le_bytes().to_vec()
    })
}

fn slow_handler(real_ms: u64) -> Handler {
    std::sync::Arc::new(move |payload: Vec<u8>| {
        std::thread::sleep(std::time::Duration::from_millis(real_ms));
        payload
    })
}

fn profile(id: u32, cold_ms: u64) -> FunctionProfile {
    FunctionProfile::new(
        FunctionId(id),
        format!("f{id}"),
        128,
        TimeDelta::from_millis(cold_ms),
    )
}

#[test]
fn cold_then_warm_with_real_output() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    let host = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 100), sum_handler())],
    );
    let first = host
        .invoke(FunctionId(0), vec![1, 2, 3])
        .wait()
        .expect("served");
    assert_eq!(
        u64::from_le_bytes(first.output.clone().try_into().expect("8 bytes")),
        6
    );
    assert_eq!(first.class, StartClass::Cold);
    assert!(
        first.wait >= TimeDelta::from_millis(90),
        "cold wait {}",
        first.wait
    );

    let second = host
        .invoke(FunctionId(0), vec![10, 20])
        .wait()
        .expect("served");
    assert_eq!(second.class, StartClass::Warm);
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 2);
    assert_eq!(report.containers_created, 1);
}

#[test]
fn traced_host_records_provenance() {
    use faas_obs::ObsEvent;
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    let host = FaasHost::start_traced(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 100), sum_handler())],
    );
    host.invoke(FunctionId(0), vec![1]).wait().expect("served");
    host.invoke(FunctionId(0), vec![2]).wait().expect("served");
    let (report, log) = host.shutdown_traced();
    assert_eq!(report.requests.len(), 2);
    let count = |pred: fn(&ObsEvent) -> bool| log.events().iter().filter(|e| pred(e)).count();
    assert_eq!(count(|e| matches!(e, ObsEvent::Start { .. })), 2);
    assert_eq!(count(|e| matches!(e, ObsEvent::Finish { .. })), 2);
    // The cold start left admission + provisioning provenance.
    assert!(count(|e| matches!(e, ObsEvent::Admit { .. })) >= 1);
    assert_eq!(count(|e| matches!(e, ObsEvent::ProvisionBegin { .. })), 1);
    // The untraced host returns an empty log from the same path.
    let untraced = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 100), sum_handler())],
    );
    untraced
        .invoke(FunctionId(0), vec![1])
        .wait()
        .expect("served");
    let (_, empty) = untraced.shutdown_traced();
    assert!(empty.is_empty());
}

#[test]
fn concurrent_invocations_fan_out() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    let host = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 50), slow_handler(30))],
    );
    // Five concurrent invocations: the always-cold baseline provisions a
    // container per blocked request.
    let handles: Vec<_> = (0..5)
        .map(|i| host.invoke(FunctionId(0), vec![i]))
        .collect();
    for (i, h) in handles.into_iter().enumerate() {
        let out = h.wait().expect("served");
        assert_eq!(
            out.output,
            vec![i as u8],
            "outputs must match their requests"
        );
    }
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 5);
    assert!(
        report.containers_created >= 2,
        "concurrency forces extra containers"
    );
}

#[test]
fn cidre_turns_concurrent_blocked_requests_into_delayed_warm() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    // Execution (30 ms real = 3 s simulated at 0.01) far below the cold
    // start (10 s simulated): CIDRE should queue on busy containers.
    let host = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        cidre_stack(CidreConfig::default()),
        vec![(profile(0, 10_000), slow_handler(30))],
    );
    let warmup = host.invoke(FunctionId(0), vec![0]).wait().expect("served");
    assert_eq!(warmup.class, StartClass::Cold);
    // Back-to-back pair: the first grabs the idle container, the second
    // races and should win via the busy container (3 s exec << 10 s cold).
    let a = host.invoke(FunctionId(0), vec![1]);
    let b = host.invoke(FunctionId(0), vec![2]);
    let (a, b) = (a.wait().expect("served"), b.wait().expect("served"));
    assert_eq!(a.class, StartClass::Warm);
    assert_eq!(
        b.class,
        StartClass::DelayedWarm,
        "b should reuse the busy container"
    );
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 3);
}

#[test]
fn shutdown_drains_in_flight_work() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    let host = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 20), slow_handler(50))],
    );
    let pending: Vec<_> = (0..3)
        .map(|i| host.invoke(FunctionId(0), vec![i]))
        .collect();
    // Shut down immediately: the report must still cover all three.
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 3);
    for h in pending {
        assert!(h.wait().is_some(), "handles resolve even after shutdown");
    }
}

#[test]
fn memory_pressure_evicts_on_live_host() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    // One worker fits one container; two functions alternate.
    let config = LiveConfig::default()
        .sim(SimConfig::default().workers_mb(vec![200]))
        .time_scale(0.01);
    let host = FaasHost::start(
        config,
        baseline_lru_stack(),
        vec![
            (profile(0, 50), sum_handler()),
            (profile(1, 50), sum_handler()),
        ],
    );
    host.invoke(FunctionId(0), vec![1]).wait().expect("served");
    host.invoke(FunctionId(1), vec![1]).wait().expect("served");
    host.invoke(FunctionId(0), vec![1]).wait().expect("served");
    let report = host.shutdown();
    assert!(
        report.containers_evicted >= 2,
        "evictions {}",
        report.containers_evicted
    );
    assert_eq!(report.count(StartClass::Cold), 3);
}

#[test]
fn provision_failures_retry_on_the_host() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    // The host forwards whatever the core schedules, so the fault plan's
    // provision failures apply: each burns a cold start, backs off and
    // retries, and the report counts it (it used to hard-code 0).
    let sim = SimConfig::default().workers_mb(vec![1024]).faults(
        FaultPlan::none()
            .seed(3)
            .provision_failures(0.8)
            .retry_backoff(TimeDelta::from_millis(10), TimeDelta::from_millis(80)),
    );
    let host = FaasHost::start(
        LiveConfig::default().sim(sim).time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 100), sum_handler())],
    );
    let first = host.invoke(FunctionId(0), vec![1]).wait().expect("served");
    assert_eq!(first.class, StartClass::Cold);
    assert!(
        first.wait > TimeDelta::from_millis(200),
        "wait {} should include a failed attempt",
        first.wait
    );
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 1);
    assert!(report.provision_failures > 0, "seed 3 at p=0.8 must fail");
    assert_eq!(report.containers_created, report.provision_failures + 1);
}

#[test]
fn invoke_of_an_undeployed_function_fails_alone() {
    let _guard = LIVE_HOST.lock().expect("live-host lock");
    let host = FaasHost::start(
        LiveConfig::default().time_scale(0.01),
        baseline_lru_stack(),
        vec![(profile(0, 20), sum_handler())],
    );
    assert_eq!(host.invoke(FunctionId(7), vec![1]).wait(), None);
    // The orchestrator is still there for everyone else.
    let served = host.invoke(FunctionId(0), vec![1, 2]).wait();
    assert_eq!(served.expect("served").class, StartClass::Cold);
    let report = host.shutdown();
    assert_eq!(report.requests.len(), 1);
}

#[test]
#[should_panic(expected = "FaasHost cannot replay worker crashes")]
fn crash_plans_are_rejected_at_start() {
    // No LIVE_HOST guard: the panic precedes any host thread, and must
    // not poison the lock for the other tests.
    let sim = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_millis(500), WorkerId(0)));
    let _ = FaasHost::start(
        LiveConfig::default().sim(sim),
        baseline_lru_stack(),
        vec![(profile(0, 100), sum_handler())],
    );
}
