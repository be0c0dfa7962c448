//! Live trace replay: the [`Orchestrator`] core driven by the wall clock.
//!
//! This file owns what is particular to replaying in real time —
//! [`LiveConfig`], [`LiveStats`], the compressed [`WallClock`], and the
//! loop that turns "deliver at simulated time T" into an entry of its
//! own deadline heap. The mechanics themselves are `faas-sim`'s.

use std::time::{Duration, Instant};

use faas_obs::{NoopRecorder, Recorder, RingRecorder, TraceLog};
use faas_sim::{Event, Orchestrator, PolicyStack, SimConfig, SimReport};
use faas_trace::{TimeDelta, TimePoint, Trace};

use crate::exec;
use crate::mailbox::TimedMailbox;

/// Configuration of a live run: the cluster shape (reusing
/// [`SimConfig`]) plus the real-seconds-per-simulated-second scale.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveConfig {
    /// Cluster shape, thread capacity, and tick interval.
    pub sim: SimConfig,
    /// Real seconds per simulated second. `0.001` replays a simulated
    /// minute in 60 real milliseconds.
    pub time_scale: f64,
    /// Poll threads of the async executor. In-flight requests are
    /// entries in the orchestrator loop's queues, and that loop is the
    /// executor's only task ([`run_live`] runs it on the caller's thread
    /// instead), so at most one of these threads is busy at a time.
    pub exec_threads: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            time_scale: 0.001,
            exec_threads: 4,
        }
    }
}

impl LiveConfig {
    /// Sets the cluster configuration.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the time compression factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self.validate();
        self
    }

    /// Sets the executor poll-thread count (at least 1).
    pub fn exec_threads(mut self, threads: usize) -> Self {
        self.exec_threads = threads.max(1);
        self
    }

    /// Rejects configurations no live run can execute. Called at every
    /// entry point ([`run_live`], [`run_live_stats`],
    /// [`crate::FaasHost::start`]) as well as in the builder: the fields
    /// are `pub`, so literal construction can bypass builder checks —
    /// a non-finite or non-positive `time_scale` would otherwise turn
    /// into `Duration::from_secs_f64` panics (or a zero-length sleep
    /// for *every* deadline) deep inside the event loop.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is NaN, infinite, zero, or negative.
    pub(crate) fn validate(&self) {
        assert!(
            self.time_scale.is_finite() && self.time_scale > 0.0,
            "time scale must be positive and finite, got {}",
            self.time_scale
        );
    }
}

/// Concurrency statistics from a live run, returned by
/// [`run_live_stats`] alongside the report.
#[derive(Debug, Clone, Copy)]
pub struct LiveStats {
    /// High-water mark of arrived-but-unserved requests.
    pub peak_inflight: u64,
    /// High-water mark of live executor tasks. Scheduled events are
    /// entries in the driver's own heap, not tasks, and the replay loop
    /// runs under `block_on`: 0 for a replay, however long the trace.
    pub peak_tasks: usize,
    /// High-water mark of concurrently registered reactor timers: the
    /// driver registers only its earliest deadline, so 1 for a replay.
    pub peak_timers: usize,
    /// Times the reactor woke the driver over the run. Events that fall
    /// due together, or while the driver is already awake, share a
    /// wake-up, so this is at most — and under load well below — the
    /// number of scheduled events.
    pub timer_fires: u64,
    /// High-water mark of blocking-pool threads.
    pub peak_blocking_threads: usize,
    /// Executor poll threads used.
    pub workers: usize,
    /// Real elapsed time of the replay.
    pub wall: Duration,
}

/// Replays `trace` on the live host under `stack`, returning the same
/// report shape as [`faas_sim::run`] (waits in simulated time units).
///
/// # Panics
///
/// Panics if some function's memory footprint exceeds every worker (as
/// in the simulator) or if `config` fails [`LiveConfig`] validation.
pub fn run_live(trace: &Trace, config: &LiveConfig, stack: PolicyStack) -> SimReport {
    run_live_stats(trace, config, stack).0
}

/// Like [`run_live`], additionally returning [`LiveStats`] measured by
/// the host itself (so callers need no wall clock of their own).
///
/// # Panics
///
/// As [`run_live`].
pub fn run_live_stats(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
) -> (SimReport, LiveStats) {
    let (report, stats, _) = run_live_with(trace, config, stack, NoopRecorder);
    (report, stats)
}

/// Like [`run_live_stats`], additionally recording a provenance
/// [`TraceLog`]. Event timestamps are virtual times derived from the
/// wall clock, so unlike the simulators the stream varies run to run —
/// the point of live tracing is inspecting *one* real execution
/// (waterfalls, Chrome export), not cross-run comparison.
///
/// # Panics
///
/// As [`run_live`].
pub fn run_live_traced(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
) -> (SimReport, LiveStats, TraceLog) {
    run_live_with(trace, config, stack, RingRecorder::unbounded())
}

fn run_live_with<R: Recorder>(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
    rec: R,
) -> (SimReport, LiveStats, TraceLog) {
    config.validate();
    let executor = exec::Executor::new(config.exec_threads);
    let wall_start = Instant::now();
    let (report, peak_inflight, log) =
        executor.block_on(replay(trace, config, stack, executor.handle(), rec));
    let wall = wall_start.elapsed();
    let stats = executor.stats();
    executor.shutdown();
    (
        report,
        LiveStats {
            peak_inflight,
            peak_tasks: stats.peak_tasks,
            peak_timers: stats.peak_timers,
            timer_fires: stats.timer_fires,
            peak_blocking_threads: stats.peak_blocking_threads,
            workers: stats.workers,
            wall,
        },
        log,
    )
}

/// The replay driver: the [`Orchestrator`] core on the wall clock.
/// Every event the core schedules — and, up front, every arrival and
/// crash of the trace — goes into this loop's own [`TimedMailbox`], so
/// the whole trace sits in one heap behind one reactor registration,
/// not in tasks or OS threads; the loop steps each event when its
/// deadline passes, stamped with the clock's reading.
async fn replay<R: Recorder>(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
    exec: exec::Handle,
    rec: R,
) -> (SimReport, u64, TraceLog) {
    let mut core = Orchestrator::new(trace.functions().iter().cloned(), &config.sim, stack, rec);
    let mut clock = WallClock::start(config.time_scale);
    let mut timers = TimedMailbox::new(exec);
    {
        let mut out = |at: TimePoint, ev: Event| timers.schedule(clock.deadline(at), ev);
        core.admit_trace(trace, &mut out);
        if !trace.is_empty() {
            out(TimePoint::ZERO + config.sim.tick, Event::Tick);
        }
        core.schedule_crashes(&mut out);
    }
    let total = core.incomplete();
    let mut peak_inflight = 0;
    while core.incomplete() > 0 {
        // Never empty here: the tick chain outlives the last request.
        let ev = timers.next_timed().await;
        let now = clock.now();
        core.step(now, ev, &mut |at, ev| {
            timers.schedule(clock.deadline(at), ev)
        });
        if ev == Event::Tick && core.incomplete() > 0 {
            if timers.is_empty() {
                // As in the simulator's loop: with only the tick chain
                // left, deferred placements are the last possible
                // source of progress.
                core.retry_deferred(&mut |at, ev| timers.schedule(clock.deadline(at), ev));
            }
            assert!(
                !timers.is_empty(),
                "live replay is stuck: {} unserved request(s) but no actionable events remain",
                core.incomplete()
            );
            timers.schedule(clock.deadline(now + config.sim.tick), Event::Tick);
        }
        // Arrived but not finished: the "concurrent in-flight" statistic.
        let finished = total - core.incomplete();
        peak_inflight = peak_inflight.max(core.arrived() - finished);
    }
    let (report, log) = core.finish();
    (report, peak_inflight, log)
}

/// The wall clock read in simulated time: real time since `start`,
/// stretched by `1 / time_scale`. The one place live time is made
/// monotone for the core.
pub(crate) struct WallClock {
    start: Instant,
    time_scale: f64,
    last: TimePoint,
}

impl WallClock {
    pub(crate) fn start(time_scale: f64) -> Self {
        Self {
            start: Instant::now(),
            time_scale,
            last: TimePoint::ZERO,
        }
    }

    /// Current simulated time, never below an earlier reading.
    pub(crate) fn now(&mut self) -> TimePoint {
        self.last = self
            .last
            .max(TimePoint::ZERO + self.to_sim(self.start.elapsed()));
        self.last
    }

    /// The real instant at which simulated time reaches `at`.
    pub(crate) fn deadline(&self, at: TimePoint) -> Instant {
        let since_start = at.saturating_since(TimePoint::ZERO).as_secs_f64();
        self.start + Duration::from_secs_f64(since_start * self.time_scale)
    }

    /// A measured real duration in simulated time units.
    pub(crate) fn to_sim(&self, real: Duration) -> TimeDelta {
        TimeDelta::from_micros((real.as_secs_f64() / self.time_scale * 1e6) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_obs::ObsEvent;
    use faas_sim::{baseline_lru_stack, FaultPlan, StartClass, WorkerId};
    use faas_trace::{gen, FunctionId, FunctionProfile, Invocation};

    fn tiny_trace() -> Trace {
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(500),
                exec: TimeDelta::from_millis(50),
            },
        ];
        Trace::new(vec![f], invs).expect("valid")
    }

    #[test]
    fn cold_then_warm_on_live_host() {
        // 1 simulated ms = 100 real µs: the 550 ms trace replays in
        // ~55 ms of real time, and the second arrival comes 35 ms after
        // the first request is done — room enough on a loaded test host.
        let config = LiveConfig::default().time_scale(0.1);
        let report = run_live(&tiny_trace(), &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 2);
        assert_eq!(report.requests[0].class, StartClass::Cold);
        assert_eq!(report.requests[1].class, StartClass::Warm);
        // Wall-clock jitter: the cold wait must be at least the cold
        // start latency; the overshoot margin absorbs scheduler noise
        // from neighboring tests (the executor suite runs 10k tasks).
        let wait = report.requests[0].wait.as_millis_f64();
        assert!((100.0..300.0).contains(&wait), "cold wait {wait} ms");
    }

    #[test]
    fn conservation_on_generated_workload() {
        let trace = gen::fc(3).functions(5).minutes(1).build();
        let config = LiveConfig::default().time_scale(0.0005);
        let report = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), trace.len());
        let total = report.ratio(StartClass::Warm)
            + report.ratio(StartClass::Cold)
            + report.ratio(StartClass::DelayedWarm);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_bad_scale() {
        let _ = LiveConfig::default().time_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_nan_scale_in_builder() {
        let _ = LiveConfig::default().time_scale(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_literal_constructed_bad_scale_at_entry() {
        // Regression: the fields are `pub`, so literal construction
        // bypasses the builder's check; a NaN scale used to reach
        // `Duration::from_secs_f64` deep inside the event loop. Entry
        // points validate up front now.
        let config = LiveConfig {
            sim: SimConfig::default(),
            time_scale: f64::NAN,
            exec_threads: 2,
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_negative_scale_at_entry() {
        let config = LiveConfig {
            sim: SimConfig::default(),
            time_scale: -0.5,
            exec_threads: 2,
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    fn stats_count_concurrent_inflight_requests() {
        // 200 simultaneous arrivals: every request is in flight at once
        // before any is served — and all 200 wait in the driver's own
        // heap, so the executor sees no task and the reactor one
        // registration at a time, however many arrivals are pending.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(20));
        let invs = (0..200)
            .map(|_| Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_secs(2),
                exec: TimeDelta::from_millis(10),
            })
            .collect();
        let trace = Trace::new(vec![f], invs).expect("valid");
        let config = LiveConfig::default().time_scale(0.02).exec_threads(2);
        let (report, stats) = run_live_stats(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 200);
        assert_eq!(stats.peak_inflight, 200);
        assert!(
            stats.peak_tasks <= 2 && stats.peak_timers <= 2,
            "a pending arrival is a heap entry, not a task or a timer: \
             peak_tasks {}, peak_timers {}",
            stats.peak_tasks,
            stats.peak_timers
        );
        assert_eq!(stats.workers, 2);
        assert!(stats.wall > Duration::ZERO);
    }

    #[test]
    fn traced_run_records_request_lifecycle() {
        let config = LiveConfig::default().time_scale(0.1);
        let (report, stats, log) = run_live_traced(&tiny_trace(), &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 2);
        assert!(stats.timer_fires > 0, "scheduled events fire via timers");
        let count = |pred: fn(&ObsEvent) -> bool| log.events().iter().filter(|e| pred(e)).count();
        assert_eq!(count(|e| matches!(e, ObsEvent::Start { .. })), 2);
        assert_eq!(count(|e| matches!(e, ObsEvent::Finish { .. })), 2);
        // The first request cold-started: admission + provisioning
        // provenance must be on the trace.
        assert!(count(|e| matches!(e, ObsEvent::Admit { .. })) >= 1);
        assert_eq!(count(|e| matches!(e, ObsEvent::ProvisionBegin { .. })), 1);
        assert_eq!(log.waterfalls().len(), 2);
    }

    #[test]
    fn provision_failures_retry_on_live_host() {
        let sim = SimConfig::default().workers_mb(vec![1024]).faults(
            FaultPlan::none()
                .seed(3)
                .provision_failures(0.8)
                .retry_backoff(TimeDelta::from_millis(10), TimeDelta::from_millis(80)),
        );
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let report = run_live(&tiny_trace(), &config, baseline_lru_stack());
        // Both requests complete despite failed provisions; every
        // failure is retried until one succeeds.
        assert_eq!(report.requests.len(), 2);
        assert!(report.provision_failures > 0, "seed 3 at p=0.8 must fail");
        assert_eq!(
            report.containers_created,
            report.provision_failures + report.count(StartClass::Cold)
        );
    }

    #[test]
    fn worker_crash_reexecutes_on_live_host() {
        // One long request on worker 0 of 2; the crash at simulated
        // t = 500 ms hits mid-execution, and the request re-executes.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![Invocation {
            func: FunctionId(0),
            arrival: TimePoint::ZERO,
            exec: TimeDelta::from_millis(1_000),
        }];
        let trace = Trace::new(vec![f], invs).expect("valid");
        let sim = SimConfig::default()
            .workers_mb(vec![1024, 1024])
            .faults(FaultPlan::none().crash_worker(TimePoint::from_millis(500), WorkerId(0)));
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let report = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 1);
        assert_eq!(report.crash_evictions, 1);
        assert_eq!(report.containers_created, 2);
        // The recorded wait covers the doomed first run plus the
        // re-provision: well above a plain 100 ms cold start.
        assert!(
            report.requests[0].wait > TimeDelta::from_millis(400),
            "wait {:?} should include the crashed attempt",
            report.requests[0].wait
        );
    }

    #[test]
    #[should_panic(expected = "live replay is stuck: 1 unserved request(s)")]
    fn a_request_nothing_can_ever_serve_stops_the_replay() {
        // The only worker crashes before the request arrives: its
        // provision is deferred for good. The replay owns its schedule,
        // so after the next tick it can see that the tick chain is all
        // that is left and say so (as the simulator does) instead of
        // ticking forever.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(200),
            exec: TimeDelta::from_millis(50),
        }];
        let trace = Trace::new(vec![f], invs).expect("valid");
        let sim = SimConfig::default()
            .workers_mb(vec![1024])
            .tick(TimeDelta::from_millis(500))
            .faults(FaultPlan::none().crash_worker(TimePoint::from_millis(100), WorkerId(0)));
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let _ = run_live(&trace, &config, baseline_lru_stack());
    }

    #[test]
    fn cold_only_waiter_behind_a_crash_refugee_is_served() {
        // The starvation `repair_cold_only` exists for, on the wall
        // clock (the replay used to hang here, ticking forever). X runs
        // long on worker 0; A cold-starts on worker 1, which crashes at
        // 1 s: A becomes a flexible refugee with X's busy container to
        // wait for, so no provision is started for it. B arrives at
        // 1.5 s, is cold-only under the always-cold scaler, and starts a
        // provision — which, once up, serves the *head* of the channel:
        // A. Nothing is left that may serve a cold-only B unless the
        // core notices and starts a fresh chain.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let at = |ms| Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(ms),
            exec: TimeDelta::from_millis(5_000),
        };
        let trace = Trace::new(vec![f], vec![at(0), at(200), at(1_500)]).expect("valid");
        let sim = SimConfig::default()
            .workers_mb(vec![1024, 1024])
            .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(1), WorkerId(1)));
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let report = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 3);
        assert_eq!(report.crash_evictions, 1);
        assert_eq!(report.count(StartClass::Cold), 3);
        assert_eq!(report.containers_created, 4);
    }
}
