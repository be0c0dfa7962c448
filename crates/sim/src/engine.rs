//! The sequential discrete-event driver: the [`Orchestrator`] core under
//! a virtual clock.
//!
//! Two time-ordered sources feed the core. **Arrivals** are read straight
//! off the trace — it is sorted by `(arrival, func)` — through a cursor,
//! and a request is admitted to the core at the moment it arrives.
//! **Everything the core asks to have delivered** goes onto one
//! [`EventQueue`] (FIFO within a timestamp) and comes back at exactly
//! the requested time. Each turn takes whichever is earlier, the arrival
//! on a tie. That is what makes runs deterministic and the goldens
//! possible, and it keeps the per-event cost a function of what is in
//! flight: the heap holds one entry per running execution, provisioning
//! container, retry in backoff and pending crash, plus the tick, and
//! the core's request window holds the requests that have arrived and
//! not finished — neither ever holds the trace.
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
//! remains — the one moment deferred placements need an explicit retry,
//! and the one moment "no progress possible" can be asserted.

use faas_obs::{NoopRecorder, Recorder, RingRecorder, TraceLog};
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
/// capacity, or if an internal invariant is violated (a bug).
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
    drive(trace, config, stack, NoopRecorder).0
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
    drive(trace, config, stack, RingRecorder::unbounded())
}

fn drive<R: Recorder>(
    trace: &Trace,
    config: &SimConfig,
    stack: PolicyStack,
    rec: R,
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
        let (now, ev) = match arrivals.first() {
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
        core.step(now, ev, &mut |at, ev| events.push(at, ev));
        if ev == Event::Tick && core.incomplete() + arrivals.len() as u64 > 0 {
            if events.is_empty() && arrivals.is_empty() {
                // The tick chain is all that's left: nothing in flight
                // can complete and nothing will arrive, so deferred
                // placements are the last possible source of progress
                // (tick evictions may have freed room with no other
                // event to notice it).
                core.retry_deferred(&mut |at, ev| events.push(at, ev));
                assert!(
                    !events.is_empty(),
                    "simulation is stuck: {} unserved request(s) but no actionable events remain",
                    core.incomplete()
                );
            }
            events.push(now + config.tick, Event::Tick);
        }
    }
    assert_eq!(
        core.incomplete(),
        0,
        "simulation drained events with unserved requests"
    );
    core.finish()
}
