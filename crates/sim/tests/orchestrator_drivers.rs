//! The orchestration core under drivers other than the virtual-time
//! queue of `faas_sim::run` (DESIGN.md §4).
//!
//! * A **late-clock driver**: every event the core schedules comes back
//!   at its deadline *plus* a drawn lateness, so `now` differs from the
//!   time the event was scheduled for and near-simultaneous events
//!   reorder — what the wall-clock drivers of `faas-live` do to the
//!   core, reproduced without a wall clock and with a seed. It also
//!   covers the host's side of the contract: executions whose length
//!   the driver measures instead of announcing.
//! * The **sans-IO property**: the core's behaviour is a function of its
//!   input sequence alone, so replaying a logged run into a fresh core
//!   whose sink discards everything reproduces report and trace exactly.
//!   So does the replay loop itself: `run_on_clock` fed the clock
//!   readings a late-clock run logged reproduces that run.
//! * The **reference driver** ([`reference_run`]): every request admitted
//!   and every arrival on the `EventQueue` before the first step. The
//!   engine streams arrivals past the queue instead; the property above
//!   and the directed cases at the end of this file hold it to this
//!   driver byte for byte, with arrivals placed on the very microsecond
//!   of each kind of scheduled event.

use std::collections::{BTreeMap, HashMap};

use faas_obs::{NoopRecorder, TraceLog};
use faas_sim::{
    baseline_lru_stack, run_on_clock, run_traced, ContainerId, ContainerInfo, Event, EventQueue,
    FaultPlan, KeepAlive, LruKeepAlive, Orchestrator, PolicyCtx, PolicyStack, RequestId,
    RequestInfo, ScaleDecision, Scaler, SimConfig, SimReport, WorkerId,
};
use faas_testkit::{Checker, Gen, Rng};
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

fn checker(name: &str) -> Checker {
    Checker::new(name).cases(96).regressions_file(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/orchestrator_drivers.testkit-regressions"
    ))
}

/// Scaler that always races (basic speculative scaling).
#[derive(Debug)]
struct AlwaysRace;

impl Scaler for AlwaysRace {
    fn name(&self) -> &str {
        "race"
    }
    fn on_blocked(&mut self, _r: &RequestInfo, _c: &PolicyCtx<'_>) -> ScaleDecision {
        ScaleDecision::Race
    }
}

/// Scaler that queues on a saturated container of the function when one
/// exists and waits otherwise — the container-local queue path.
#[derive(Debug)]
struct QueueOnBusy;

impl Scaler for QueueOnBusy {
    fn name(&self) -> &str {
        "queue-on-busy"
    }
    fn on_blocked(&mut self, r: &RequestInfo, ctx: &PolicyCtx<'_>) -> ScaleDecision {
        ctx.all_iter()
            .find(|c| c.func == r.func && c.threads_in_use > 0)
            .map_or(ScaleDecision::WaitWarm, |c| ScaleDecision::EnqueueOn(c.id))
    }
}

/// Always-cold, racing, and queueing stacks: between them every
/// `ScaleDecision` arm, speculative losers, and cold-only waiters.
fn stacks() -> Vec<(&'static str, PolicyStack)> {
    let lru = || -> Box<dyn KeepAlive + Send> { Box::new(LruKeepAlive) };
    vec![
        ("lru+cold", baseline_lru_stack()),
        ("lru+race", PolicyStack::new(lru(), Box::new(AlwaysRace))),
        ("lru+queue", PolicyStack::new(lru(), Box::new(QueueOnBusy))),
    ]
}

/// A random trace small enough to shrink but hot enough to trigger
/// REPLACE rounds and deferrals on the tight clusters below.
fn arb_trace(g: &mut Gen) -> Trace {
    let fns = g.vec(1..6, |g| (g.u32(64..1024), g.u64(10..2_000)));
    let invs = g.vec(1..100, |g| {
        (g.usize(0..6), g.u64(0..60_000), g.u64(1..3_000))
    });
    let profiles: Vec<FunctionProfile> = fns
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold))| {
            FunctionProfile::new(
                FunctionId(i as u32),
                format!("f{i}"),
                mem,
                TimeDelta::from_millis(cold),
            )
        })
        .collect();
    let n = profiles.len();
    let invocations = invs
        .into_iter()
        .map(|(f, at, exec)| Invocation {
            func: FunctionId((f % n) as u32),
            arrival: TimePoint::from_millis(at),
            exec: TimeDelta::from_millis(exec),
        })
        .collect();
    Trace::new(profiles, invocations).expect("constructed consistently")
}

/// A random tight cluster with multi-thread containers, more often than
/// not under a fault plan: provision failures, and likely one crash (two
/// workers minimum then, so the crash cannot strand requests).
fn arb_config(g: &mut Gen) -> SimConfig {
    let mut workers = g.vec(1..4, |g| g.u64(1_100..4_000));
    let threads = g.u32(1..4);
    let mut plan = FaultPlan::none();
    if g.bool(0.6) {
        plan = plan
            .seed(g.u64(0..1 << 32))
            .provision_failures(g.f64(0.0..0.4))
            .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_millis(500));
        if g.bool(0.6) {
            if workers.len() < 2 {
                workers.push(workers[0]);
            }
            let worker = g.usize(0..workers.len());
            plan = plan.crash_worker(
                TimePoint::from_millis(g.u64(0..45_000)),
                WorkerId(worker as u16),
            );
        }
    }
    SimConfig::default()
        .workers_mb(workers)
        .container_threads(threads)
        .faults(plan)
}

/// The expected ends the cluster holds for running executions, gathered
/// from every function and grouped by container, each group sorted.
fn running_ends(core: &Orchestrator<NoopRecorder>) -> BTreeMap<ContainerId, Vec<TimePoint>> {
    let cluster = core.cluster();
    let mut ends: BTreeMap<ContainerId, Vec<TimePoint>> = BTreeMap::new();
    for &func in cluster.function_ids() {
        let rt = cluster.fn_runtime(func).expect("deployed");
        for &(end, cid) in &rt.running {
            ends.entry(cid).or_default().push(end);
        }
    }
    for group in ends.values_mut() {
        group.sort_unstable();
    }
    ends
}

/// Drives `trace` through a fresh core, delivering every scheduled
/// event up to `max_late` after its deadline. With `measured`, the core
/// is not told execution times: like `FaasHost`, the driver ends each
/// execution itself and reports its length through `record_exec`.
///
/// Asserts, after every step: the structural invariants, and that the
/// cluster's per-function running executions hold exactly the expected
/// ends of the executions still running, container by container — never
/// one of a finished or crashed request. Asserts once the queue
/// has drained: termination, unplaced chains, request conservation,
/// ledger conservation. Returns the number of steps and the report.
fn drive_late(
    label: &str,
    trace: &Trace,
    config: &SimConfig,
    stack: PolicyStack,
    late: &mut Rng,
    max_late: u64,
    measured: bool,
) -> (u64, SimReport) {
    let mut late = |at: TimePoint| at + TimeDelta::from_micros(late.u64_below(max_late + 1));
    let mut core = Orchestrator::new(
        trace.functions().iter().cloned(),
        config,
        stack,
        NoopRecorder,
    );
    let mut events = EventQueue::new();
    let invocations = trace.invocations();
    for inv in invocations {
        let exec = (!measured).then_some(inv.exec);
        let rid = core.admit(inv.func, inv.arrival, exec);
        events.push(late(inv.arrival), Event::Arrival(rid));
    }
    events.push(late(TimePoint::ZERO + config.tick), Event::Tick);
    core.schedule_crashes(&mut |at, ev| events.push(late(at), ev));

    // The end the core announced for each running execution, per
    // container: what the cluster must hold, no more and no less.
    let mut running: HashMap<ContainerId, Vec<(RequestId, TimePoint)>> = HashMap::new();
    // The cluster's used memory, integrated between steps (MB·µs): the
    // reference the ledger is held to.
    let (mut used, mut used_since, mut mb_us) = (0, TimePoint::ZERO, 0u128);
    let mut steps = 0;
    // Past the last request, what is still scheduled (retries, deferred
    // and speculative provisions, crashes) is stepped until the queue is
    // empty: the tick chain is re-armed only while requests are unserved.
    while let Some((now, ev)) = events.pop() {
        steps += 1;
        if let Event::ExecDone(cid, rid) = ev {
            if let Some(runs) = running.get_mut(&cid) {
                runs.retain(|&(r, _)| r != rid);
            }
            if measured {
                let exec = invocations[rid.0 as usize].exec;
                let record = core.record_exec(cid, rid, exec);
                assert_eq!(
                    record.is_some(),
                    core.cluster().container(cid).is_some(),
                    "{label}: record_exec is void exactly when the container died"
                );
            }
        }
        let mut out = |at: TimePoint, ev: Event| {
            let mut deliver_at = late(at);
            if let Event::ExecDone(cid, rid) = ev {
                running.entry(cid).or_default().push((rid, at));
                if measured {
                    // `at` is the core's placeholder; the execution ends
                    // when the driver says so.
                    deliver_at = late(now + invocations[rid.0 as usize].exec);
                }
            }
            events.push(deliver_at, ev);
        };
        core.step(now, ev, &mut out);
        if ev == Event::Tick && core.incomplete() > 0 {
            out(now + config.tick, Event::Tick);
            // The live drivers cannot see their own queue; this one can,
            // and a tick chain with nothing else in flight never ends.
            assert!(
                events.len() > 1,
                "{label}: stuck with {} unserved: only the tick chain is left",
                core.incomplete()
            );
        }

        core.check_invariants();
        if core.cluster().used_mb() != used {
            mb_us += u128::from(used) * u128::from((now - used_since).as_micros());
            (used, used_since) = (core.cluster().used_mb(), now);
        }
        running.retain(|cid, runs| !runs.is_empty() && core.cluster().container(*cid).is_some());
        let sorted = |ends: Vec<TimePoint>| {
            let mut ends = ends;
            ends.sort_unstable();
            ends
        };
        let expected: BTreeMap<ContainerId, Vec<TimePoint>> = running
            .iter()
            .map(|(&cid, runs)| (cid, sorted(runs.iter().map(|&(_, end)| end).collect())))
            .collect();
        let actual = running_ends(&core);
        assert_eq!(
            actual, expected,
            "{label}: running executions after {ev:?} at {now:?}"
        );
    }
    assert_eq!(core.incomplete(), 0, "{label}: the tick chain ended early");
    assert!(
        running_ends(&core).is_empty(),
        "{label}: ends outlive the run"
    );
    core.check_drained();

    let (report, _) = core.finish();
    assert_eq!(report.requests.len(), trace.len(), "{label}: conservation");
    let mut served: BTreeMap<FunctionId, (u64, TimeDelta)> = BTreeMap::new();
    for r in &report.requests {
        let entry = served.entry(r.func).or_default();
        *entry = (entry.0 + 1, entry.1 + r.exec);
    }
    let mut offered: BTreeMap<FunctionId, (u64, TimeDelta)> = BTreeMap::new();
    for inv in invocations {
        let entry = offered.entry(inv.func).or_default();
        *entry = (entry.0 + 1, entry.1 + inv.exec);
    }
    assert_eq!(served, offered, "{label}: per-function count and exec");
    mb_us += u128::from(used) * u128::from((report.ledger_settled_at - used_since).as_micros());
    assert_eq!(
        report.ledger.total_mb_us(),
        mb_us,
        "{label}: ledger total diverges from integrated residency"
    );
    assert!(report.ledger.idle_mb_us <= report.ledger.keep_warm_mb_us);
    assert!(report.ledger.dispatches >= report.requests.len() as u64);
    (steps, report)
}

#[test]
fn late_clock_driver_terminates_and_conserves() {
    checker("late_clock_driver_terminates_and_conserves").run(|g| {
        let trace = arb_trace(g);
        let config = arb_config(g);
        // Up to 200 simulated ms late: past most execution times' gaps,
        // so completions, provisions and arrivals trade places.
        let max_late = g.u64(0..200_000);
        let measured = g.bool(0.3);
        let mut late = Rng::seed_from_u64(g.u64(0..1 << 32));
        for (label, stack) in stacks() {
            drive_late(label, &trace, &config, stack, &mut late, max_late, measured);
        }
    });
}

/// The late-clock driver over a long faulted replay: provision failures,
/// stragglers and a crash of two of four workers, under the racing
/// stack, whose speculative provisions fail too. Release builds (the
/// run `ci.sh` makes of this file) step it millions of times with every
/// invariant checked after each step; debug builds run a short slice.
#[test]
fn a_long_faulted_replay_keeps_every_invariant() {
    // About 2.4 steps per request.
    let (minutes, floor) = if cfg!(debug_assertions) {
        (6, 20_000)
    } else {
        (420, 2_000_000)
    };
    let trace = faas_trace::gen::azure(40)
        .functions(32)
        .minutes(minutes)
        .build();
    let span = TimeDelta::from_minutes(minutes).as_micros();
    let mut plan = FaultPlan::none()
        .seed(40)
        .provision_failures(0.1)
        .stragglers(0.1, 1.5, 8.0)
        .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_secs(2));
    for (worker, thirds) in [(WorkerId(0), 1), (WorkerId(1), 2)] {
        plan = plan.crash_worker(TimePoint::from_micros(span * thirds / 3), worker);
    }
    // 32 functions of ~325 MB on average on 8 GB, then on 4 GB.
    let config = SimConfig::default().uniform_workers(4, 2_048).faults(plan);
    let race = PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysRace));
    let mut late = Rng::seed_from_u64(40);
    let (steps, report) = drive_late("soak", &trace, &config, race, &mut late, 20_000, false);
    assert!(steps >= floor, "soak: {steps} steps, fewer than {floor}");
    assert!(report.provision_failures > 0 && report.crash_evictions > 0);
    assert!(report.containers_evicted > 0);
}

/// A fresh recording core for `trace` on `config`'s cluster.
fn fresh_core(trace: &Trace, config: &SimConfig, policies: PolicyStack) -> Orchestrator<TraceLog> {
    let functions = trace.functions().iter().cloned();
    Orchestrator::new(functions, config, policies, TraceLog::default())
}

/// The **reference driver** the streamed `run_traced` must equal byte
/// for byte: the sequential driver as it was before arrivals streamed —
/// every request admitted up front, every arrival on the `EventQueue`
/// ahead of anything the core schedules — logging every input it feeds.
fn reference_run(
    label: &str,
    trace: &Trace,
    config: &SimConfig,
    policies: PolicyStack,
) -> (SimReport, TraceLog, Vec<(TimePoint, Event)>) {
    let mut log = Vec::new();
    let mut core = fresh_core(trace, config, policies);
    let mut events = EventQueue::new();
    for inv in trace.invocations() {
        let rid = core.admit(inv.func, inv.arrival, Some(inv.exec));
        events.push(inv.arrival, Event::Arrival(rid));
    }
    events.push(TimePoint::ZERO + config.tick, Event::Tick);
    core.schedule_crashes(&mut |at, ev| events.push(at, ev));
    while let Some((now, ev)) = events.pop() {
        log.push((now, ev));
        core.step(now, ev, &mut |at, ev| events.push(at, ev));
        if ev == Event::Tick && core.incomplete() > 0 {
            assert!(!events.is_empty(), "{label}: stuck");
            events.push(now + config.tick, Event::Tick);
        }
    }
    core.check_drained();
    let (report, obs) = core.finish();
    (report, obs, log)
}

#[test]
fn replaying_the_input_log_reproduces_report_and_trace() {
    checker("replaying_the_input_log_reproduces_report_and_trace").run(|g| {
        let trace = arb_trace(g);
        let config = arb_config(g);
        let max_late = g.u64(0..200_000);
        let late_seed = g.u64(0..1 << 32);
        for (label, _) in stacks() {
            let stack = |label: &str| {
                stacks()
                    .into_iter()
                    .find(|(l, _)| *l == label)
                    .expect("listed")
                    .1
            };

            // The sequential driver, logging every input it feeds.
            let (report, obs, log) = reference_run(label, &trace, &config, stack(label));

            // It is the engine: `run_traced` agrees to the byte.
            let (engine_report, engine_obs) = run_traced(&trace, &config, stack(label));
            assert_eq!(
                format!("{report:?}"),
                format!("{engine_report:?}"),
                "{label}"
            );
            assert_eq!(obs, engine_obs, "{label}: trace log vs engine");

            // Replay: same inputs, every output discarded.
            let mut replay = fresh_core(&trace, &config, stack(label));
            for inv in trace.invocations() {
                replay.admit(inv.func, inv.arrival, Some(inv.exec));
            }
            for (now, ev) in log {
                replay.step(now, ev, &mut |_, _| {});
            }
            let (replayed, replayed_obs) = replay.finish();
            assert_eq!(format!("{replayed:?}"), format!("{report:?}"), "{label}");
            assert_eq!(replayed_obs, obs, "{label}: trace log vs replay");

            // The replay loop on a seeded late clock, logging what the
            // clock read; fed those readings, a second run is the first.
            let mut late = Rng::seed_from_u64(late_seed);
            let (mut last, mut readings) = (TimePoint::ZERO, Vec::new());
            let (late_report, late_obs) =
                run_on_clock(&trace, &config, stack(label), TraceLog::default(), |at| {
                    last = last.max(at + TimeDelta::from_micros(late.u64_below(max_late + 1)));
                    readings.push(last);
                    last
                });
            let mut logged = readings.into_iter();
            let (again, again_obs) =
                run_on_clock(&trace, &config, stack(label), TraceLog::default(), |_| {
                    logged.next().expect("a reading per step")
                });
            assert!(logged.next().is_none(), "{label}: readings left over");
            assert_eq!(
                format!("{again:?}"),
                format!("{late_report:?}"),
                "{label}: late clock"
            );
            assert_eq!(again_obs, late_obs, "{label}: trace log, late clock");
        }
    });
}

// -- the streamed engine against the reference driver, directed cases ------

/// LRU that also expires, at the tick, every container idle for two
/// seconds or more: with it the order of a tick and an arrival at the
/// same microsecond decides between a warm start and a cold one.
#[derive(Debug)]
struct ExpiringLru;

impl KeepAlive for ExpiringLru {
    fn name(&self) -> &str {
        "expiring-lru"
    }
    fn priority(&self, c: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        LruKeepAlive.priority(c, ctx)
    }
    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        ctx.all_iter()
            .filter(|c| ctx.now.saturating_since(c.last_used) >= TimeDelta::from_secs(2))
            .map(|c| c.id)
            .collect()
    }
}

/// Builds a fresh policy stack (a `PolicyStack` cannot be cloned).
type MakeStack = fn() -> PolicyStack;
/// Per function: memory in MB and cold-start latency in ms.
type Functions = Vec<(u32, u64)>;
/// Per invocation: function index, arrival in µs, execution in ms.
type Invocations = Vec<(u32, u64, u64)>;
/// Whether an event is of the kind a case is about.
type IsKind = fn(&Event) -> bool;

/// The three scalers of [`stacks`] over [`ExpiringLru`].
fn expiring_stacks() -> Vec<(&'static str, MakeStack)> {
    vec![
        ("expiring+cold", || {
            PolicyStack::new(Box::new(ExpiringLru), Box::new(faas_sim::AlwaysCold))
        }),
        ("expiring+race", || {
            PolicyStack::new(Box::new(ExpiringLru), Box::new(AlwaysRace))
        }),
        ("expiring+queue", || {
            PolicyStack::new(Box::new(ExpiringLru), Box::new(QueueOnBusy))
        }),
    ]
}

fn trace_of(functions: &[(u32, u64)], invocations: &[(u32, u64, u64)]) -> Trace {
    let profiles = functions
        .iter()
        .enumerate()
        .map(|(i, &(mem, cold_ms))| {
            let cold = TimeDelta::from_millis(cold_ms);
            FunctionProfile::new(FunctionId(i as u32), format!("f{i}"), mem, cold)
        })
        .collect();
    let invocations = invocations
        .iter()
        .map(|&(func, arrival_us, exec_ms)| Invocation {
            func: FunctionId(func),
            arrival: TimePoint::from_micros(arrival_us),
            exec: TimeDelta::from_millis(exec_ms),
        })
        .collect();
    Trace::new(profiles, invocations).expect("constructed consistently")
}

/// Runs `trace` through the reference driver and through `run_traced`
/// and compares the full `Debug` of report and trace log. Returns the
/// reference driver's input log.
fn assert_streamed_equals_reference(
    label: &str,
    trace: &Trace,
    config: &SimConfig,
    stack: MakeStack,
) -> Vec<(TimePoint, Event)> {
    let (report, obs, log) = reference_run(label, trace, config, stack());
    let (engine_report, engine_obs) = run_traced(trace, config, stack());
    assert_eq!(
        format!("{engine_report:?}"),
        format!("{report:?}"),
        "{label}: report"
    );
    assert_eq!(
        format!("{engine_obs:?}"),
        format!("{obs:?}"),
        "{label}: trace log"
    );
    log
}

/// Two functions on two tight workers under provision failures and one
/// crash: a run in which every kind of scheduled event occurs.
fn eventful() -> (Functions, Invocations, SimConfig) {
    let functions = vec![(300, 100), (500, 250)];
    let invocations = vec![
        (0, 0, 400),
        (1, 0, 900),
        (0, 150_000, 300),
        (1, 700_000, 50),
        (0, 3_200_000, 700),
        (1, 9_999_000, 1_200),
        (0, 11_000_000, 2_500),
        (1, 11_400_000, 800),
        (0, 12_100_000, 40),
        (1, 19_000_000, 2_000),
        (0, 23_500_000, 10),
    ];
    let plan = FaultPlan::none()
        .seed(7)
        .provision_failures(0.35)
        .retry_backoff(TimeDelta::from_millis(20), TimeDelta::from_millis(500))
        .crash_worker(TimePoint::from_micros(12_345_678), WorkerId(0));
    let config = SimConfig::default()
        .workers_mb(vec![1_200, 1_200])
        .faults(plan);
    (functions, invocations, config)
}

#[test]
fn an_arrival_on_the_microsecond_of_each_scheduled_event_kind() {
    let kinds: [(&str, IsKind); 5] = [
        ("Tick", |e| matches!(e, Event::Tick)),
        ("ExecDone", |e| matches!(e, Event::ExecDone(..))),
        ("ProvisionDone", |e| matches!(e, Event::ProvisionDone(_))),
        ("WorkerDown", |e| matches!(e, Event::WorkerDown(_))),
        ("RetryProvision", |e| matches!(e, Event::RetryProvision(..))),
    ];
    let (functions, base, config) = eventful();
    for (stack_label, stack) in expiring_stacks() {
        let base_log = reference_run(stack_label, &trace_of(&functions, &base), &config, stack()).2;
        for (kind, is_kind) in kinds {
            let label = format!("{stack_label}, arrival on a {kind}");
            // Where the base run has such an event, every function now
            // also has an arrival. Nothing before that instant changes,
            // so the event still fires there.
            let at = base_log
                .iter()
                .find_map(|&(at, ev)| is_kind(&ev).then_some(at))
                .unwrap_or_else(|| panic!("{label}: the base run has no {kind}"));
            let mut invocations = base.clone();
            invocations.extend((0..functions.len() as u32).map(|f| (f, at.as_micros(), 120)));
            let trace = trace_of(&functions, &invocations);
            let log = assert_streamed_equals_reference(&label, &trace, &config, stack);
            let at_that_instant = |wanted: IsKind| log.iter().any(|(t, ev)| *t == at && wanted(ev));
            assert!(
                at_that_instant(is_kind) && at_that_instant(|e| matches!(e, Event::Arrival(_))),
                "{label}: the coincidence at {at:?} did not happen"
            );
        }
    }
}

#[test]
fn functions_arriving_at_the_same_instant_keep_trace_order() {
    // Three functions, four instants on which two or all of them arrive,
    // listed out of function order: the trace sorts by (arrival, func).
    let functions = [(200, 80), (200, 120), (200, 60)];
    let invocations = [
        (2, 0, 300),
        (0, 0, 300),
        (1, 0, 300),
        (1, 250_000, 40),
        (0, 250_000, 40),
        (2, 1_000_000, 700),
        (2, 1_000_000, 700),
        (0, 1_000_000, 10),
        (1, 4_000_000, 5),
        (2, 4_000_000, 5),
    ];
    let config = SimConfig::default().workers_mb(vec![500, 500]);
    for (label, stack) in expiring_stacks() {
        let trace = trace_of(&functions, &invocations);
        assert_streamed_equals_reference(label, &trace, &config, stack);
    }
}

#[test]
fn a_quiet_gap_of_several_ticks_between_two_bursts() {
    // Everything of the first burst has finished by 3 s and the second
    // starts at 47 s: for four ticks the tick is the only scheduled
    // event while arrivals remain. The engine must not call that
    // "stuck"; the ticks in between expire the warm containers.
    let functions = [(600, 100), (600, 150)];
    let mut invocations = vec![];
    for burst_us in [0u64, 47_000_000] {
        for i in 0..6 {
            invocations.push((i % 2, burst_us + u64::from(i) * 90_000, 500));
        }
    }
    let config = SimConfig::default().workers_mb(vec![1_000]);
    for (label, stack) in expiring_stacks() {
        let trace = trace_of(&functions, &invocations);
        let log = assert_streamed_equals_reference(label, &trace, &config, stack);
        let lone_ticks = log
            .windows(2)
            .filter(|pair| matches!(pair, [(_, Event::Tick), (_, Event::Tick)]))
            .count();
        assert!(lone_ticks >= 3, "{label}: {lone_ticks} back-to-back ticks");
    }
}

#[test]
fn an_empty_trace_and_a_straggling_last_arrival() {
    let functions = [(300, 100)];
    for (label, stack) in expiring_stacks() {
        let config = SimConfig::default().workers_mb(vec![1_000]);
        let empty = trace_of(&functions, &[]);
        assert_streamed_equals_reference(label, &empty, &config, stack);
        // The same with a crash scheduled: events, but no request.
        let crash = FaultPlan::none().crash_worker(TimePoint::from_millis(5), WorkerId(0));
        let crashing = config.clone().faults(crash);
        assert_streamed_equals_reference(label, &empty, &crashing, stack);

        // The last request arrives long after every earlier one finished
        // (between two ticks, the tick chain alone leading up to it).
        let straggler = trace_of(
            &functions,
            &[(0, 0, 200), (0, 50_000, 200), (0, 34_567_891, 9)],
        );
        assert_streamed_equals_reference(label, &straggler, &config, stack);
    }
}
