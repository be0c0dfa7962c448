//! The trace-replay driver: the [`Orchestrator`] core under a clock the
//! caller passes to [`run_on_clock`]. [`run`] and [`run_traced`] pass
//! the identity, which makes this the discrete-event simulator; the
//! live replay of `faas_live` passes a clock that sleeps until each
//! event falls due. Everything below holds for both.
//!
//! Two time-ordered sources feed the core. **Arrivals** are read straight
//! off the trace — it is sorted by `(arrival, func)` — through a cursor,
//! and a request is admitted to the core at the moment it arrives.
//! **Everything the core asks to have delivered** goes onto one
//! [`EventQueue`] (FIFO within a timestamp) and comes back in order of
//! the requested time. Each turn takes whichever is earlier, the arrival
//! on a tie, and steps it at `clock(at)` — under the identity, exactly
//! the requested time. That is what makes runs deterministic and the
//! goldens possible, and it keeps the per-event cost a function of what
//! is in flight: the heap holds one entry per running execution,
//! provisioning container, retry in backoff and pending crash, plus the
//! tick, and the core's request window holds the requests that have
//! arrived and not finished — neither ever holds the trace.
//!
//! The merge is exact, not approximate. Were every arrival pushed onto
//! the queue before the first step (the reference driver in
//! `tests/orchestrator_drivers.rs` still does that), arrivals would hold
//! the lowest sequence numbers: at an equal timestamp each would precede
//! every scheduled event, in trace order — precisely what `<=` yields
//! here — and scheduled events keep their relative push order either way.
//!
//! Beyond the merge this driver owns two decisions: it re-arms
//! [`Event::Tick`] while requests are unserved or still to arrive, and
//! it knows when the tick chain is the only event left and no arrival
//! remains — the one moment "no progress possible" can be asserted.
//! Deferred placements are the core's alone: every event that can make
//! room for one retries them, so a driver never does.

use faas_obs::{NoopRecorder, Recorder, TraceLog};
use faas_trace::{TimePoint, Trace};

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::orchestrator::Orchestrator;
use crate::policy::PolicyStack;
use crate::report::SimReport;

/// Runs `trace` through the simulated cluster under `stack`'s policies.
///
/// The run executes to completion: every request in the trace is
/// eventually served (the mechanics are deadlock-free because busy
/// containers always finish and idle containers are always evictable).
///
/// # Panics
///
/// Panics if some function's memory footprint exceeds every worker's
/// capacity, if the fault plan crashes every worker that can host a
/// function the trace invokes ([`Orchestrator::admit`]), or if an
/// internal invariant is violated (a bug).
///
/// # Examples
///
/// ```
/// use faas_sim::{run, baseline_lru_stack, SimConfig};
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(5).minutes(1).build();
/// let report = run(&trace, &SimConfig::default(), baseline_lru_stack());
/// assert_eq!(report.requests.len(), trace.len());
/// ```
pub fn run(trace: &Trace, config: &SimConfig, stack: PolicyStack) -> SimReport {
    run_on_clock(trace, config, stack, NoopRecorder, |at| at).0
}

/// Runs `trace` like [`run`] while recording the structured trace:
/// request lifecycle spans, decision provenance (admissions, eviction
/// candidates, retry scheduling), and fault events (DESIGN.md §12).
///
/// The report is byte-identical to [`run`]'s — recording observes,
/// never steers.
///
/// # Examples
///
/// ```
/// use faas_sim::{run_traced, baseline_lru_stack, SimConfig};
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(5).minutes(1).build();
/// let (report, log) = run_traced(&trace, &SimConfig::default(), baseline_lru_stack());
/// assert_eq!(report.requests.len(), trace.len());
/// assert!(!log.is_empty());
/// ```
pub fn run_traced(trace: &Trace, config: &SimConfig, stack: PolicyStack) -> (SimReport, TraceLog) {
    run_on_clock(trace, config, stack, TraceLog::default(), |at| at)
}

/// The replay loop of [`run`] and [`run_traced`] with the clock as an
/// argument: every event due at `at` — a streamed arrival or a popped
/// event — is stepped at `clock(at)`. The identity clock is the
/// simulator; a clock that sleeps until `at` falls due on the wall
/// clock and returns its reading is a live replay (`faas_live`).
///
/// `clock` must not return less than `at`, nor less than it returned
/// before: the core's time never runs backwards.
///
/// # Panics
///
/// As [`run`].
///
/// # Examples
///
/// ```
/// use faas_obs::NoopRecorder;
/// use faas_sim::{run, run_on_clock, baseline_lru_stack, SimConfig};
/// use faas_trace::{gen, TimeDelta};
///
/// let trace = gen::azure(1).functions(5).minutes(1).build();
/// let config = SimConfig::default();
/// // Every event a millisecond late: same requests, longer waits.
/// let late = |at| at + TimeDelta::from_millis(1);
/// let (report, _) = run_on_clock(&trace, &config, baseline_lru_stack(), NoopRecorder, late);
/// assert_eq!(report.requests.len(), trace.len());
/// ```
pub fn run_on_clock<R: Recorder>(
    trace: &Trace,
    config: &SimConfig,
    stack: PolicyStack,
    rec: R,
    mut clock: impl FnMut(TimePoint) -> TimePoint,
) -> (SimReport, TraceLog) {
    let mut core = Orchestrator::new(trace.functions().iter().cloned(), config, stack, rec);
    let mut events = EventQueue::new();
    if !trace.is_empty() {
        events.push(TimePoint::ZERO + config.tick, Event::Tick);
    }
    core.schedule_crashes(&mut |at, ev| events.push(at, ev));
    // Arrivals not yet streamed into the core, earliest first.
    let mut arrivals = trace.invocations();
    loop {
        let (at, ev) = match arrivals.first() {
            Some(inv) if events.peek_time().is_none_or(|t| inv.arrival <= t) => {
                arrivals = &arrivals[1..];
                let rid = core.admit(inv.func, inv.arrival, Some(inv.exec));
                (inv.arrival, Event::Arrival(rid))
            }
            _ => match events.pop() {
                Some(next) => next,
                None => break,
            },
        };
        let now = clock(at);
        core.step(now, ev, &mut |at, ev| events.push(at, ev));
        if ev == Event::Tick && core.incomplete() + arrivals.len() as u64 > 0 {
            // The tick chain alone, with nothing in flight to complete
            // and nothing to arrive, never serves anyone.
            assert!(
                !(events.is_empty() && arrivals.is_empty()),
                "replay is stuck: {} unserved request(s) but no actionable events remain",
                core.incomplete()
            );
            events.push(now + config.tick, Event::Tick);
        }
    }
    assert_eq!(
        core.incomplete(),
        0,
        "simulation drained events with unserved requests"
    );
    #[cfg(debug_assertions)]
    core.check_drained();
    core.finish()
}
