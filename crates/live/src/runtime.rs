//! Live trace replay: `faas_sim`'s replay loop on the wall clock.
//!
//! This file owns what is particular to replaying in real time —
//! [`LiveConfig`], [`LiveStats`] and the compressed [`WallClock`]. The
//! loop and the mechanics are `faas-sim`'s: [`run_live`] hands
//! [`faas_sim::run_on_clock`] a clock that sleeps the caller's thread
//! until each event falls due, so the replay needs no executor and
//! holds only what is in flight, as the simulator does. The thread
//! sleeps at 1 ns timer slack for the replay's length (see `slack.rs`).

use std::time::{Duration, Instant};

use faas_obs::{NoopRecorder, Recorder, TraceLog};
use faas_sim::{PolicyStack, SimConfig, SimReport};
use faas_trace::{TimeDelta, TimePoint, Trace};

use crate::slack::TightTimers;

/// Configuration of a live run: the cluster shape (reusing
/// [`SimConfig`]) plus the real-seconds-per-simulated-second scale.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveConfig {
    /// Cluster shape, thread capacity, and tick interval.
    pub sim: SimConfig,
    /// Real seconds per simulated second. `0.001` replays a simulated
    /// minute in 60 real milliseconds.
    pub time_scale: f64,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            time_scale: 0.001,
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

    // Inert: the host is one thread and has no poll threads to size.
    // `benchmark/benches/adapter.rs` (frozen) still calls this; the next
    // `benchmark` PR removes both.
    #[doc(hidden)]
    pub fn exec_threads(self, _threads: usize) -> Self {
        self
    }

    /// Rejects configurations no live run can execute. Called at every
    /// entry point ([`run_live`], [`run_live_stats`],
    /// [`crate::FaasHost::start`]) as well as in the builder: the fields
    /// are `pub`, so literal construction can bypass builder checks —
    /// a non-finite or non-positive `time_scale` would otherwise turn
    /// into `Duration::from_secs_f64` panics (or a zero-length sleep
    /// for *every* deadline) deep inside the replay loop.
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

/// Statistics of a live replay, returned by [`run_live_stats`]
/// alongside the report.
#[derive(Debug, Clone, Copy)]
pub struct LiveStats {
    /// High-water mark of arrived-but-unserved requests, swept from the
    /// report's records: each is in flight from its arrival until
    /// `arrival + wait + exec`.
    pub peak_inflight: u64,
    /// Always 0: a replay runs on the caller's thread and spawns no
    /// task. Kept for callers written against the executor-backed
    /// replay this one replaced.
    pub peak_tasks: usize,
    /// Times the replay slept for an event to fall due. An event already
    /// due when the loop reaches it takes no sleep, so this is at most —
    /// and under load well below — the number of events stepped.
    pub timer_fires: u64,
    /// Real elapsed time of the replay.
    pub wall: Duration,
    /// The latest any event was stepped after it fell due, in simulated
    /// time: how late the replay's timers fired at worst.
    pub max_lateness: TimeDelta,
    /// The latest a step was taken after a sleep that aimed at its
    /// deadline, in simulated time: how far the OS woke the replay late.
    pub max_overshoot: TimeDelta,
    /// The most real time, in simulated units, between one clock call
    /// returning and the next one being called: the replay's own work
    /// between two steps, which makes the next step late if it runs
    /// past that step's deadline.
    pub max_step_work: TimeDelta,
}

/// Replays `trace` on the wall clock under `stack`, returning the same
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
/// the replay itself (so callers need no wall clock of their own).
///
/// # Panics
///
/// As [`run_live`].
pub fn run_live_stats(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
) -> (SimReport, LiveStats) {
    let (report, _, stats) = run_on_wall_clock(trace, config, stack, NoopRecorder);
    (report, stats)
}

/// [`run_live_stats`] under any recorder: a traced live replay returns
/// its log as [`faas_sim::run_traced`] does.
fn run_on_wall_clock<R: Recorder>(
    trace: &Trace,
    config: &LiveConfig,
    stack: PolicyStack,
    rec: R,
) -> (SimReport, TraceLog, LiveStats) {
    config.validate();
    // The sleeps below are the caller's thread's: its slack is restored
    // when the replay returns.
    let _tight = TightTimers::on_this_thread();
    let mut clock = WallClock::start(config.time_scale);
    let mut timer_fires = 0;
    let [mut max_lateness, mut max_overshoot, mut max_step_work] = [TimeDelta::ZERO; 3];
    let mut returned = None;
    let (report, log) = faas_sim::run_on_clock(trace, &config.sim, stack, rec, |at| {
        let called = Instant::now();
        if let Some(returned) = returned {
            max_step_work = max_step_work.max(clock.to_sim(called - returned));
        }
        let early = clock.deadline(at).saturating_duration_since(called);
        let slept = !early.is_zero();
        if slept {
            std::thread::sleep(early);
            timer_fires += 1;
        }
        let now = clock.now_at_least(at);
        max_lateness = max_lateness.max(now - at);
        if slept {
            max_overshoot = max_overshoot.max(now - at);
        }
        returned = Some(Instant::now());
        now
    });
    let stats = LiveStats {
        peak_inflight: peak_inflight(&report),
        peak_tasks: 0,
        timer_fires,
        wall: clock.start.elapsed(),
        max_lateness,
        max_overshoot,
        max_step_work,
    };
    (report, log, stats)
}

/// The most requests in flight at once: one sorted sweep over every
/// record's arrival (+1) and end (−1), ends first on a tie.
fn peak_inflight(report: &SimReport) -> u64 {
    let mut edges: Vec<(TimePoint, i64)> = report
        .requests
        .iter()
        .flat_map(|r| [(r.arrival, 1), (r.arrival + r.e2e(), -1)])
        .collect();
    edges.sort_unstable();
    let (mut inflight, mut peak) = (0i64, 0i64);
    for (_, step) in edges {
        inflight += step;
        peak = peak.max(inflight);
    }
    peak.unsigned_abs()
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

    /// The time to step an event due at `at`: the current reading, but
    /// never before `at`, however the reading rounds. Later readings do
    /// not go back below it.
    pub(crate) fn now_at_least(&mut self, at: TimePoint) -> TimePoint {
        self.last = self.now().max(at);
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
    use cidre_core::{cidre_stack, CidreConfig};
    use faas_obs::{ObsClass, ObsEvent};
    use faas_policies::faascache_stack;
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
        // A 1 s tick ends the replay 100 ms after the last request.
        let sim = SimConfig::default().tick(TimeDelta::from_secs(1));
        let config = LiveConfig::default().sim(sim).time_scale(0.1);
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

    /// No event is stepped before it is due: every cold start in `log`
    /// comes at or after its own container's `ProvisionEnd`, and that
    /// container took at least its function's provisioning latency to
    /// come up. A cold start itself may wait less than the latency: a
    /// fresh container serves the channel's head, which can have arrived
    /// after the provision began (DESIGN.md §4).
    fn assert_cold_starts_follow_their_provision(label: &str, trace: &Trace, log: &TraceLog) {
        use std::collections::BTreeMap;
        let mut begun = BTreeMap::new();
        let mut up = BTreeMap::new();
        let mut cold = 0;
        for event in log.events() {
            match *event {
                ObsEvent::ProvisionBegin { at, cid, func, .. } => {
                    begun.insert(cid, (at, func));
                }
                ObsEvent::ProvisionEnd { at, cid, ok: true } => {
                    let (began, func) = begun[&cid];
                    let latency = trace.function(func).expect("profile").cold_start;
                    let took = at.saturating_since(began);
                    assert!(
                        took >= latency,
                        "{label}: container {cid} came up in {took:?} < provisioning {latency:?}"
                    );
                    up.insert(cid, at);
                }
                ObsEvent::Start {
                    at,
                    cid,
                    class: ObsClass::Cold,
                    ..
                } => {
                    let ready = up.get(&cid).copied();
                    assert!(
                        ready.is_some_and(|ready| at >= ready),
                        "{label}: cold start at {at:?} on container {cid}, up at {ready:?}"
                    );
                    cold += 1;
                }
                _ => {}
            }
        }
        assert!(cold > 0, "{label}: no cold start to check");
    }

    #[test]
    fn cold_starts_follow_their_provision_on_either_clock() {
        let trace = gen::fc(4)
            .functions(6)
            .minutes(1)
            .rate_per_function(0.5)
            .build();
        let sim = SimConfig::with_cache_gb(6);
        let live = LiveConfig::default().sim(sim.clone()).time_scale(0.002);
        let stacks: [fn() -> PolicyStack; 2] =
            [faascache_stack, || cidre_stack(CidreConfig::default())];
        for mk in stacks {
            let (_, log) = faas_sim::run_traced(&trace, &sim, mk());
            assert_cold_starts_follow_their_provision("run_traced", &trace, &log);
            let (_, log, _) = run_on_wall_clock(&trace, &live, mk(), TraceLog::default());
            assert_cold_starts_follow_their_provision("run_on_clock", &trace, &log);
        }
    }

    #[test]
    fn a_due_event_is_stepped_no_earlier_than_it_is_due() {
        // A simulated second per 1000 real ones: the clock barely moves
        // while this runs, so what separates a reading from `at` is
        // rounding alone.
        let mut clock = WallClock::start(1000.0);
        // Read exactly at their deadlines, some times round a microsecond
        // below themselves...
        let at = (1..1_000)
            .map(TimePoint::from_micros)
            .find(|&at| TimePoint::ZERO + clock.to_sim(clock.deadline(at) - clock.start) < at)
            .expect("deadline → reading loses a microsecond somewhere in the first millisecond");
        // ...so both drivers step a due event at `now_at_least(at)`.
        assert!(clock.now_at_least(at) >= at);
        assert!(clock.now() >= at, "a later reading does not go back");
    }

    #[test]
    fn the_replay_restores_the_callers_timer_slack() {
        let sim = SimConfig::default().tick(TimeDelta::from_secs(1));
        let config = LiveConfig::default().sim(sim).time_scale(0.01);
        let (before, after) = std::thread::spawn(move || {
            let before = crate::slack::this_thread_slack();
            let report = run_live(&tiny_trace(), &config, baseline_lru_stack());
            assert_eq!(report.requests.len(), 2);
            (before, crate::slack::this_thread_slack())
        })
        .join()
        .expect("replay thread");
        assert_ne!(before, Some(1), "a thread starts at the default slack");
        assert_eq!(after, before);
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
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_negative_scale_at_entry() {
        let config = LiveConfig {
            sim: SimConfig::default(),
            time_scale: -0.5,
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    fn stats_count_concurrent_inflight_requests() {
        // 200 simultaneous arrivals: every request is in flight at once
        // before any is served, and the replay spawns nothing for them.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(20));
        let invs = (0..200)
            .map(|_| Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_secs(2),
                exec: TimeDelta::from_millis(10),
            })
            .collect();
        let trace = Trace::new(vec![f], invs).expect("valid");
        let config = LiveConfig::default().time_scale(0.02);
        let (report, stats) = run_live_stats(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 200);
        assert_eq!(stats.peak_inflight, 200);
        assert_eq!(stats.peak_tasks, 0);
        assert!(stats.timer_fires > 0, "the replay sleeps until 2 s");
        assert!(stats.wall > Duration::ZERO);
        // The 200 arrivals fall due together and are stepped one after
        // another, so the last is stepped late; no event can be later,
        // no sleep overshoot longer and no step's work longer than the
        // whole replay.
        assert!(stats.max_lateness > TimeDelta::ZERO);
        let wall = WallClock::start(0.02).to_sim(stats.wall);
        for late in [stats.max_lateness, stats.max_overshoot, stats.max_step_work] {
            assert!(
                (TimeDelta::ZERO..=wall).contains(&late),
                "{late:?} > {wall:?}"
            );
        }
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
    #[should_panic(expected = "fault plan crashes every worker that can host fn0")]
    fn a_request_only_crashed_workers_could_serve_is_refused() {
        // The only worker that can host the function crashes before the
        // request arrives (the other is too small): no provision for it
        // could ever be placed, so the request is refused when it is
        // admitted instead of leaving the replay ticking forever.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![Invocation {
            func: FunctionId(0),
            arrival: TimePoint::from_millis(200),
            exec: TimeDelta::from_millis(50),
        }];
        let trace = Trace::new(vec![f], invs).expect("valid");
        let sim = SimConfig::default()
            .workers_mb(vec![1024, 64])
            .tick(TimeDelta::from_millis(500))
            .faults(FaultPlan::none().crash_worker(TimePoint::from_millis(100), WorkerId(0)));
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let _ = run_live(&trace, &config, baseline_lru_stack());
    }

    #[test]
    fn cold_only_waiter_behind_a_crash_refugee_is_served() {
        // The starvation `serve_backlog`'s coverage step prevents, on the wall
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
