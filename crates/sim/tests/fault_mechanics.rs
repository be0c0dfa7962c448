//! Mechanics of the fault-injection subsystem: provision failures with
//! retry/backoff, worker crashes with re-execution, straggler cold
//! starts, and the deferred-provision retry path under memory pressure
//! combined with faults. Debug builds additionally assert the engine's
//! structural invariants after every event, so each of these runs also
//! exercises `Orchestrator::check_invariants`.

mod common;

use faas_sim::{baseline_lru_stack, run, run_traced, FaultPlan, SimConfig, StartClass, WorkerId};
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

fn one_fn_trace(arrivals_ms: &[u64], exec_ms: u64, cold_ms: u64, mem: u32) -> Trace {
    let f = FunctionProfile::new(FunctionId(0), "f", mem, TimeDelta::from_millis(cold_ms));
    let invs = arrivals_ms
        .iter()
        .map(|&ms| Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(ms),
            exec: TimeDelta::from_millis(exec_ms),
        })
        .collect();
    Trace::new(vec![f], invs).expect("valid")
}

#[test]
fn provision_failures_retry_until_success() {
    // One request, high failure rate: the provision fails some number of
    // times, backs off, and eventually succeeds (p < 1 guarantees
    // termination almost surely; this seed terminates quickly).
    let trace = one_fn_trace(&[0], 50, 100, 128);
    let config = SimConfig::default().workers_mb(vec![1024]).faults(
        FaultPlan::none()
            .seed(3)
            .provision_failures(0.8)
            .retry_backoff(TimeDelta::from_millis(10), TimeDelta::from_millis(80)),
    );
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 1);
    assert_eq!(report.requests[0].class, StartClass::Cold);
    assert!(
        report.provision_failures > 0,
        "seed 3 at p=0.8 must fail at least once"
    );
    // Each failure burns the full cold start plus backoff before the
    // next attempt, so the wait exceeds a single cold start.
    assert!(
        report.requests[0].wait > TimeDelta::from_millis(100),
        "wait {:?} should include failed attempts",
        report.requests[0].wait
    );
    // created = failures + the one success.
    assert_eq!(report.containers_created, report.provision_failures + 1);
}

#[test]
fn straggler_stretches_cold_start() {
    let trace = one_fn_trace(&[0], 50, 100, 128);
    let config = SimConfig::default()
        .workers_mb(vec![1024])
        .faults(FaultPlan::none().seed(1).stragglers(0.99, 1.5, 20.0));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 1);
    assert_eq!(report.provision_failures, 0);
    // p = 0.99: this seed stretches the single cold start.
    assert!(
        report.requests[0].wait > TimeDelta::from_millis(100),
        "wait {:?} not stretched",
        report.requests[0].wait
    );
    // The stretch factor is capped at 20x.
    assert!(report.requests[0].wait <= TimeDelta::from_millis(2_000));
}

#[test]
fn worker_crash_reexecutes_inflight_request() {
    // Two workers; the request runs on worker 0 (ties break to the
    // lowest id) when its worker crashes mid-execution at t = 1 s. It is
    // re-queued, re-provisioned on worker 1, and re-executed.
    let trace = one_fn_trace(&[0], 10_000, 100, 128);
    let config = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(1), WorkerId(0)));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(
        report.requests.len(),
        1,
        "exactly one (re-)execution recorded"
    );
    assert_eq!(report.crash_evictions, 1);
    assert_eq!(report.containers_created, 2);
    let r = &report.requests[0];
    assert_eq!(r.class, StartClass::Cold);
    // Arrived at 0, crashed at 1000 ms, re-provisioned for 100 ms.
    assert_eq!(r.wait, TimeDelta::from_millis(1_100));
    assert_eq!(report.finished_at, TimePoint::from_millis(11_100));
}

#[test]
fn crash_of_idle_worker_only_drops_containers() {
    // The request finishes at t = 150 ms; the crash at t = 10 s evicts
    // the idle container but re-executes nothing.
    let trace = one_fn_trace(&[0], 50, 100, 128);
    let config = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(10), WorkerId(0)));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 1);
    assert_eq!(report.requests[0].wait, TimeDelta::from_millis(100));
    assert_eq!(report.crash_evictions, 1);
    assert_eq!(report.containers_created, 1);
}

#[test]
fn deferred_retry_under_memory_pressure_and_faults() {
    // The worker fits exactly one 600 MB container, so every second
    // function's provision is deferred behind the first; provision
    // failures and a mid-run crash stress retry_deferred's FIFO
    // head-blocking drain. Every request must still complete.
    let f0 = FunctionProfile::new(FunctionId(0), "a", 600, TimeDelta::from_millis(100));
    let f1 = FunctionProfile::new(FunctionId(1), "b", 600, TimeDelta::from_millis(100));
    let mut invs = Vec::new();
    for i in 0..10u64 {
        invs.push(Invocation {
            func: FunctionId((i % 2) as u32),
            arrival: TimePoint::from_millis(i * 40),
            exec: TimeDelta::from_millis(120),
        });
    }
    let trace = Trace::new(vec![f0, f1], invs).expect("valid");
    let config = SimConfig::default().workers_mb(vec![1000, 1000]).faults(
        FaultPlan::none()
            .seed(11)
            .provision_failures(0.3)
            .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_millis(160))
            .crash_worker(TimePoint::from_millis(500), WorkerId(0)),
    );
    let report = run(&trace, &config, baseline_lru_stack());
    // Conservation: every arrival is eventually served exactly once.
    assert_eq!(report.requests.len(), trace.len());
    assert!(report.crash_evictions >= 1);
}

#[test]
fn deferred_retry_without_faults_still_drains_fifo() {
    // Memory-pressure-only coverage of retry_deferred: three functions
    // compete for a single slot; deferred provisions drain in FIFO order
    // as each predecessor's container is evicted.
    let profiles: Vec<FunctionProfile> = (0..3)
        .map(|i| {
            FunctionProfile::new(
                FunctionId(i),
                format!("f{i}"),
                600,
                TimeDelta::from_millis(50),
            )
        })
        .collect();
    let invs: Vec<Invocation> = (0..3u64)
        .map(|i| Invocation {
            func: FunctionId(i as u32),
            arrival: TimePoint::from_millis(i), // nearly concurrent
            exec: TimeDelta::from_millis(30),
        })
        .collect();
    let trace = Trace::new(profiles, invs).expect("valid");
    let config = SimConfig::default().workers_mb(vec![1000]);
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 3);
    // FIFO drain: requests finish in arrival order of their functions.
    let mut waits: Vec<TimeDelta> = report.requests.iter().map(|r| r.wait).collect();
    let sorted = {
        let mut s = waits.clone();
        s.sort();
        s
    };
    waits.sort();
    assert_eq!(waits, sorted);
    assert_eq!(report.containers_evicted, 2);
}

#[test]
fn faulty_runs_are_deterministic() {
    let trace = faas_trace::gen::azure(5).functions(8).minutes(1).build();
    let config = SimConfig::default().workers_mb(vec![2048, 2048]).faults(
        FaultPlan::none()
            .seed(9)
            .provision_failures(0.2)
            .stragglers(0.1, 1.5, 20.0)
            .crash_worker(TimePoint::from_secs(20), WorkerId(0)),
    );
    let a = run(&trace, &config, baseline_lru_stack());
    let b = run(&trace, &config, baseline_lru_stack());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    // A different fault seed must actually change something.
    let other = SimConfig::default().workers_mb(vec![2048, 2048]).faults(
        FaultPlan::none()
            .seed(10)
            .provision_failures(0.2)
            .stragglers(0.1, 1.5, 20.0)
            .crash_worker(TimePoint::from_secs(20), WorkerId(0)),
    );
    let c = run(&trace, &other, baseline_lru_stack());
    assert_ne!(
        format!("{a:?}"),
        format!("{c:?}"),
        "fault seed must steer the run"
    );
}

#[test]
fn none_plan_reports_zero_fault_counters() {
    let trace = one_fn_trace(&[0, 500, 1_000], 50, 100, 128);
    let config = SimConfig::default().workers_mb(vec![1024]);
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.provision_failures, 0);
    assert_eq!(report.crash_evictions, 0);
}

/// Ledger edge: a crash mid-provision charges the interrupted residency
/// to the cold-start class (DESIGN.md §11), and the re-provision on the
/// surviving worker charges its own full window. Every value is exact
/// integer MB·µs, derived by hand from the event schedule.
#[test]
fn ledger_charges_crash_mid_provision_to_cold_start() {
    // 10 s cold start, crash at 1 s: worker 0's container dies while
    // provisioning; the request re-provisions on worker 1 (10 s), runs
    // 50 ms, and the run settles at the final release.
    let trace = one_fn_trace(&[0], 50, 10_000, 128);
    let config = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(1), WorkerId(0)));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 1);
    assert_eq!(report.crash_evictions, 1);
    let l = &report.ledger;
    // Interrupted provision: 128 MB x 1 s; successful one: 128 MB x 10 s.
    assert_eq!(l.cold_start_mb_us, 128 * (1_000_000 + 10_000_000));
    // Warm residency: from warm-up (11 s) to settlement at the release
    // (11.05 s) — the 50 ms execution window, never idle.
    assert_eq!(l.keep_warm_mb_us, 128 * 50_000);
    assert_eq!(l.idle_mb_us, 0);
    assert_eq!(l.speculative_mb_us, 0);
    assert_eq!(l.dispatches, 1);
    assert_eq!(l.replace_rounds, 0);
    assert_eq!(report.ledger_settled_at, TimePoint::from_millis(11_050));
}

/// Ledger edge: a crash that kills an idle warm container closes both
/// the keep-warm window (from warm-up) and the idle window (from the
/// last release) at the crash instant.
#[test]
fn ledger_charges_idle_crash_to_keep_warm_and_idle() {
    // Warm at 100 ms, executes to 150 ms, idles until the crash at 10 s.
    let trace = one_fn_trace(&[0], 50, 100, 128);
    let config = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(10), WorkerId(0)));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 1);
    assert_eq!(report.crash_evictions, 1);
    let l = &report.ledger;
    assert_eq!(l.cold_start_mb_us, 128 * 100_000);
    assert_eq!(l.keep_warm_mb_us, 128 * (10_000_000 - 100_000));
    assert_eq!(l.idle_mb_us, 128 * (10_000_000 - 150_000));
    assert_eq!(l.speculative_mb_us, 0);
    assert_eq!(l.dispatches, 1);
    assert_eq!(report.ledger_settled_at, TimePoint::from_secs(10));
}

/// Ledger edge: a speculative racer that *loses* — the busy container
/// frees first and serves the blocked request — is charged its entire
/// residency (provisioning + warm) as speculative waste, even though it
/// was never evicted (`wasted_cold_starts` only counts destroyed
/// racers; the settlement charge is what makes the loser visible).
#[test]
fn ledger_charges_speculative_loser_in_full() {
    use faas_sim::{LruKeepAlive, PolicyCtx, PolicyStack, RequestInfo, ScaleDecision, Scaler};

    /// Basic speculative scaling: always race a blocked request.
    #[derive(Debug, Default)]
    struct AlwaysRace;
    impl Scaler for AlwaysRace {
        fn name(&self) -> &str {
            "race"
        }
        fn on_blocked(&mut self, _r: &RequestInfo, _c: &PolicyCtx<'_>) -> ScaleDecision {
            ScaleDecision::Race
        }
    }

    // r1: cold 0 -> 500 ms, executes 500 -> 700. r2 arrives at 600,
    // blocked behind the busy container; the racer starts at 600 but
    // only turns warm at 1100 — r1's container frees at 700 and wins.
    let f = FunctionProfile::new(FunctionId(0), "f", 400, TimeDelta::from_millis(500));
    let iv = |at_ms: u64, exec_ms: u64| Invocation {
        func: FunctionId(0),
        arrival: TimePoint::from_millis(at_ms),
        exec: TimeDelta::from_millis(exec_ms),
    };
    let trace = Trace::new(vec![f], vec![iv(0, 200), iv(600, 200)]).expect("valid");
    let config = SimConfig::default().workers_mb(vec![2_048]);
    let stack = PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysRace));
    let report = run(&trace, &config, stack);
    assert_eq!(report.requests.len(), 2);
    assert_eq!(report.requests[1].class, StartClass::DelayedWarm);
    assert_eq!(report.requests[1].wait, TimeDelta::from_millis(100));
    let l = &report.ledger;
    // Two full 500 ms provisions (the winner's and the loser's).
    assert_eq!(l.cold_start_mb_us, 400 * (500_000 + 500_000));
    // Winner warm 500 -> settlement at 1100 (the loser's warm-up, the
    // run's last charge); loser warm for zero time.
    assert_eq!(l.keep_warm_mb_us, 400 * 600_000);
    // Winner idle only 900 -> 1100 (r2 occupied it 700 -> 900).
    assert_eq!(l.idle_mb_us, 400 * 200_000);
    // The loser's whole life, 600 -> 1100, is speculative waste.
    assert_eq!(l.speculative_mb_us, 400 * 500_000);
    assert_eq!(l.dispatches, 2);
    assert_eq!(l.replace_rounds, 0);
    // Never destroyed, so the wasted-start *counter* stays zero: the
    // ledger is what accounts for surviving losers.
    assert_eq!(report.wasted_cold_starts, 0);
    assert_eq!(report.ledger_settled_at, TimePoint::from_millis(1_100));
}

/// Ledger edge: a pinned run that evicts, REPLACEs, fails provisions,
/// backs off and loses a worker mid-run must still charge every MB·µs
/// exactly once — `cold_start + keep_warm` equals the residency rebuilt
/// from the trace, integrated up to the settlement point.
#[test]
fn ledger_conserves_through_evictions_replace_and_crash() {
    let trace = faas_trace::gen::azure(5).functions(8).minutes(1).build();
    let config = SimConfig::default().workers_mb(vec![2_048, 2_048]).faults(
        FaultPlan::none()
            .seed(9)
            .provision_failures(0.2)
            .retry_backoff(TimeDelta::from_millis(50), TimeDelta::from_secs(2))
            .crash_worker(TimePoint::from_secs(20), WorkerId(0)),
    );
    let (report, log) = run_traced(&trace, &config, baseline_lru_stack());
    assert!(report.containers_evicted > 0, "workload must evict");
    assert!(report.ledger.replace_rounds > 0, "workload must REPLACE");
    assert!(
        report.crash_evictions > 0,
        "the crash must destroy containers"
    );
    assert!(report.provision_failures > 0, "provisions must fail");
    let (_, integrated) = common::residency(&trace, log.events(), report.ledger_settled_at);
    assert_eq!(report.ledger.total_mb_us(), integrated);
}

/// Regression: a cold-only waiter whose provision is stolen by crash
/// refugees must not be stranded. Crash refugees are re-queued as
/// *flexible* entries at the head of the function channel, so the
/// `ProvisionDone`s that were started for a later cold-only arrival
/// `pop_any` the refugees instead; the cold-only entry is invisible to
/// `pop_flexible` and, before the repair in `on_provision_done`, no
/// further provision would ever pop it — the run span ticks forever
/// with `incomplete == 1`.
#[test]
fn cold_only_waiter_survives_refugees_stealing_its_provision() {
    use faas_sim::{AlwaysCold, LruKeepAlive, PolicyStack};
    let profiles = vec![
        // Fills worker 0 exactly, pinning every f0 container to worker 1.
        FunctionProfile::new(FunctionId(0), "filler", 1_000, TimeDelta::from_millis(50)),
        FunctionProfile::new(FunctionId(1), "f0", 400, TimeDelta::from_millis(100)),
    ];
    let iv = |f: u32, at_ms: u64, exec_ms: u64| Invocation {
        func: FunctionId(f),
        arrival: TimePoint::from_millis(at_ms),
        exec: TimeDelta::from_millis(exec_ms),
    };
    let invocations = vec![
        iv(0, 0, 30_000),    // filler occupies all of worker 0
        iv(1, 200, 20_000),  // runs on worker 1
        iv(1, 400, 20_000),  // blocked, cold-only, second container on worker 1
        iv(1, 2_000, 1_000), // cold-only; its provision defers (no room)
    ];
    let trace = Trace::new(profiles, invocations).expect("valid");
    // Crash kills both running f0 containers: the two refugees re-queue
    // as flexible entries ahead of the cold-only rid3.
    let plan = FaultPlan::none()
        .seed(1)
        .crash_worker(TimePoint::from_secs(1), WorkerId(1));
    let config = SimConfig::default()
        .workers_mb(vec![1_000, 1_000])
        .faults(plan);
    let stack = PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysCold));
    let report = run(&trace, &config, stack);
    assert_eq!(report.requests.len(), 4, "every request must complete");
}

/// A cold-only backlog of two whose second chain waits in the deferral
/// queue: when the first chain's container comes up and serves the head
/// of the queue, `serve_backlog` must count the deferred chain as
/// covering the waiter behind it. Counting only provisioning containers
/// and retries in backoff would defer a redundant chain for that waiter,
/// and once memory frees it provisions a third `f` container for nobody.
#[test]
fn a_deferred_chain_covers_the_cold_only_waiter_behind_it() {
    use faas_obs::ObsEvent;
    use faas_sim::{AlwaysCold, LruKeepAlive, PolicyStack};
    let profiles = vec![
        FunctionProfile::new(FunctionId(0), "g", 400, TimeDelta::from_millis(100)),
        FunctionProfile::new(FunctionId(1), "f", 400, TimeDelta::from_millis(100)),
    ];
    let iv = |f: u32, at_ms: u64, exec_ms: u64| Invocation {
        func: FunctionId(f),
        arrival: TimePoint::from_millis(at_ms),
        exec: TimeDelta::from_millis(exec_ms),
    };
    let invocations = vec![
        iv(0, 0, 10_000), // g holds 400 of the 1 000 MB throughout
        iv(1, 1, 50),     // f's first chain provisions: 800 MB in use
        iv(1, 2, 50),     // cold-only; f's second chain defers (no room)
    ];
    let trace = Trace::new(profiles, invocations).expect("valid");
    let config = SimConfig::default().workers_mb(vec![1_000]);
    let stack = PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysCold));
    let (report, log) = run_traced(&trace, &config, stack);
    assert_eq!(report.requests.len(), 3);
    let f = FunctionId(1);
    let count = |of: fn(&ObsEvent) -> Option<FunctionId>| {
        log.events().iter().filter(|e| of(e) == Some(f)).count()
    };
    assert_eq!(
        count(|e| match e {
            ObsEvent::Defer { func, .. } => Some(*func),
            _ => None,
        }),
        1,
        "only the second chain defers"
    );
    // One provision per cold-only request: the deferred chain starts the
    // second when f's first container idles and can be replaced.
    assert_eq!(
        count(|e| match e {
            ObsEvent::ProvisionBegin { func, .. } => Some(*func),
            _ => None,
        }),
        2
    );
    assert_eq!(report.count(StartClass::Cold), 3);
}

/// A crash refugee is served by a free thread wherever one is: the
/// long request's worker crashes while the short one's container idles
/// on the other worker, and the refugee starts there at once, as a
/// delayed warm start, instead of waiting beside it for nothing.
#[test]
fn a_crash_refugee_takes_an_idle_container() {
    let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
    let at_zero = |exec_ms| Invocation {
        func: FunctionId(0),
        arrival: TimePoint::ZERO,
        exec: TimeDelta::from_millis(exec_ms),
    };
    let trace = Trace::new(vec![f], vec![at_zero(10_000), at_zero(50)]).expect("valid");
    let config = SimConfig::default()
        .workers_mb(vec![1024, 1024])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(1), WorkerId(0)));
    let report = run(&trace, &config, baseline_lru_stack());
    assert_eq!(report.requests.len(), 2, "both requests complete");
    assert_eq!(
        report.containers_created, 2,
        "the refugee needs no provision"
    );
    let refugee = report
        .requests
        .iter()
        .find(|r| r.exec == TimeDelta::from_secs(10))
        .expect("the long request re-executed");
    assert_eq!(refugee.class, StartClass::DelayedWarm);
    assert_eq!(refugee.wait, TimeDelta::from_secs(1));
}

/// A plan that crashes every worker strands whatever is in flight at
/// the last crash or arrives after it, so it is refused when the first
/// request is admitted, before any event is stepped.
#[test]
#[should_panic(expected = "fault plan crashes every worker")]
fn a_plan_that_crashes_every_worker_is_refused() {
    let arrivals: Vec<u64> = (0..200).collect();
    let trace = one_fn_trace(&arrivals, 100, 100, 128);
    let at = TimePoint::from_millis(50);
    let config = SimConfig::default().workers_mb(vec![1024, 1024]).faults(
        FaultPlan::none()
            .crash_worker(at, WorkerId(0))
            .crash_worker(at, WorkerId(1)),
    );
    run(&trace, &config, baseline_lru_stack());
}
