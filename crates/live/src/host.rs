//! A programmable FaaS host: deploy real Rust handlers, invoke them, and
//! let a keep-alive/scaling policy manage the container fleet.
//!
//! Where [`crate::run_live`] replays a pre-recorded trace, [`FaasHost`]
//! is the interactive mode: callers deploy functions (a profile plus a
//! handler closure), fire invocations from any thread, and receive
//! [`InvokeOutcome`]s carrying the handler's output together with the
//! start class (warm / delayed warm / cold) and the invocation overhead
//! the policy produced.
//!
//! A running host is one OS thread plus a blocking pool. The thread runs
//! the orchestrator loop and owns its timers, a [`faas_sim::EventQueue`]
//! in simulated time as in trace replay: what is due comes off it, and
//! otherwise the thread blocks on its `std::sync::mpsc` channel —
//! `recv_timeout` until the head's wall-clock deadline, `recv` with
//! nothing scheduled. Invocations, handler returns and shutdown arrive on
//! that channel. Each *running* invocation occupies a pool thread for as
//! long as its handler runs (waiting invocations are entries in the
//! orchestrator's queues, not threads). Provisioning latency — the part
//! of a cold start a host cannot execute for you — is realised as a timed
//! delay of `profile.cold_start` scaled by [`LiveConfig::time_scale`].
//! The host thread waits at 1 ns timer slack, so such a delay ends within
//! microseconds of its deadline; pool threads inherit the slack, and a
//! handler that sleeps gets the same precision.
//!
//! A handler that panics fails its own request, not the host: the unwind
//! stops on the pool thread, the caller's handle resolves `None`, the
//! report counts the request with its measured run, and the container is
//! released as after any return (see `serve`).
//!
//! The host is a driver of [`faas_sim::Orchestrator`] (DESIGN.md §4)
//! and forwards whatever the core schedules, so the provision failures
//! and stragglers of [`LiveConfig`]`.sim.faults` apply here as they do in
//! trace replay: failed provisions back off and retry, and the report
//! counts them. Worker crashes do not: replay owns every request's
//! lifecycle and can void and re-queue a crashed execution, but the host
//! hands outputs to external callers the moment handlers return and
//! cannot un-deliver them — [`FaasHost::start`] rejects a plan that
//! schedules any.
//!
//! ```
//! use faas_live::{FaasHost, LiveConfig};
//! use faas_sim::baseline_lru_stack;
//! use faas_trace::{FunctionId, FunctionProfile, TimeDelta};
//! use std::sync::Arc;
//!
//! let profile = FunctionProfile::new(FunctionId(0), "double", 128, TimeDelta::from_millis(50));
//! let host = FaasHost::start(
//!     LiveConfig::default().time_scale(0.01),
//!     baseline_lru_stack(),
//!     vec![(profile, Arc::new(|x: Vec<u8>| x.iter().map(|b| b * 2).collect()))],
//! );
//! let out = host.invoke(FunctionId(0), vec![1, 2, 3]).wait().expect("function ran");
//! assert_eq!(out.output, vec![2, 4, 6]);
//! let report = host.shutdown();
//! assert_eq!(report.requests.len(), 1);
//! ```

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faas_obs::NoopRecorder;
use faas_sim::{
    ContainerId, Event, EventQueue, Orchestrator, PolicyStack, RequestId, SimReport, StartClass,
};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

use crate::exec::{BlockingPool, BLOCKING_CAP};
use crate::runtime::{LiveConfig, WallClock};
use crate::slack::TightTimers;

/// A deployed function's handler: bytes in, bytes out. Runs on a
/// blocking-pool thread for every invocation.
pub type Handler = Arc<dyn Fn(Vec<u8>) -> Vec<u8> + Send + Sync>;

/// The outcome of one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeOutcome {
    /// The handler's output.
    pub output: Vec<u8>,
    /// How the request started (warm / delayed warm / cold).
    pub class: StartClass,
    /// Invocation overhead (queueing + provisioning before the handler
    /// began), in simulated time units.
    pub wait: TimeDelta,
}

/// Handle on an in-flight invocation.
#[derive(Debug)]
pub struct InvokeHandle {
    rx: mpsc::Receiver<InvokeOutcome>,
}

impl InvokeHandle {
    /// Blocks until the invocation completes. Returns `None` if its
    /// handler panicked (the report still counts the request), if the
    /// function was never deployed (the host admits nothing), or if the
    /// host thread itself died; the host keeps serving everyone else in
    /// the first two cases.
    pub fn wait(self) -> Option<InvokeOutcome> {
        self.rx.recv().ok()
    }
}

enum Msg {
    Invoke(FunctionId, Vec<u8>, mpsc::Sender<InvokeOutcome>),
    /// A handler returned: where it ran, for whom, its output (`None` if
    /// it panicked), and how long it really took.
    Returned(ContainerId, RequestId, Option<Vec<u8>>, Duration),
    /// Drain what is in flight, then stop.
    Shutdown,
}

/// A running FaaS host. See the module docs for the lifecycle. Dropping
/// it drains and stops it as [`FaasHost::shutdown`] does, discarding the
/// report.
pub struct FaasHost {
    tx: mpsc::Sender<Msg>,
    /// The host thread, which returns the run's report; `None` once
    /// joined.
    thread: Option<JoinHandle<SimReport>>,
}

impl std::fmt::Debug for FaasHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasHost").finish_non_exhaustive()
    }
}

impl FaasHost {
    /// Starts the host thread with the given deployments.
    ///
    /// # Panics
    ///
    /// Panics if a deployed function's memory footprint exceeds every
    /// worker, if two deployments share a [`FunctionId`], if
    /// `config.sim.faults` schedules worker crashes (see the module
    /// docs), or if `config` fails [`LiveConfig`] validation.
    pub fn start(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
    ) -> Self {
        config.validate();
        assert!(
            config.sim.faults.worker_crashes.is_empty(),
            "FaasHost cannot replay worker crashes: a crashed execution's output may already \
             be with its caller; use run_live for crash plans"
        );
        let mut handlers = HashMap::new();
        let mut profiles = Vec::new();
        for (profile, handler) in deployments {
            assert!(
                handlers.insert(profile.id, handler).is_none(),
                "duplicate deployment of {}",
                profile.id
            );
            profiles.push(profile);
        }
        let core = Orchestrator::new(profiles, &config.sim, stack, NoopRecorder);
        let (tx, rx) = mpsc::channel();
        let io = Dispatcher {
            handlers,
            pool: BlockingPool::new(BLOCKING_CAP),
            tx: tx.clone(),
            clock: WallClock::start(config.time_scale),
            timers: EventQueue::new(),
            flights: HashMap::new(),
        };
        let tick = config.sim.tick;
        let thread = std::thread::Builder::new()
            .name("faas-host".into())
            .spawn(move || {
                // Before the pool's first thread, which inherits it.
                let _tight = TightTimers::on_this_thread();
                serve(core, io, &rx, tick)
            })
            .expect("spawn the host thread");
        Self {
            tx,
            thread: Some(thread),
        }
    }

    /// Fires an invocation; returns immediately with a handle.
    pub fn invoke(&self, func: FunctionId, payload: Vec<u8>) -> InvokeHandle {
        let (otx, orx) = mpsc::channel();
        // The host thread outlives every handle until shutdown.
        let _ = self.tx.send(Msg::Invoke(func, payload, otx));
        InvokeHandle { rx: orx }
    }

    /// Drains in-flight invocations and returns the run report.
    ///
    /// # Panics
    ///
    /// Re-raises a panic of the host thread itself, a bug in the host. A
    /// handler's panic is its request's outcome (see
    /// [`InvokeHandle::wait`]), not a panic here.
    pub fn shutdown(mut self) -> SimReport {
        let joined = self.stop().expect("the host thread is joined once");
        joined.unwrap_or_else(|payload| resume_unwind(payload))
    }

    /// Asks the loop to drain and stop, and joins its thread; `None` if
    /// it was already joined.
    fn stop(&mut self) -> Option<std::thread::Result<SimReport>> {
        let thread = self.thread.take()?;
        let _ = self.tx.send(Msg::Shutdown);
        Some(thread.join())
    }
}

impl Drop for FaasHost {
    fn drop(&mut self) {
        // A destructor does not re-raise a panic of the host thread.
        let _ = self.stop();
    }
}

/// An invocation between `invoke` and its reply.
struct Flight {
    func: FunctionId,
    payload: Vec<u8>,
    reply: mpsc::Sender<InvokeOutcome>,
}

/// The host's sink: everything needed to act on "deliver this event at
/// time T". Timed events go into the loop's own event queue; an
/// `ExecDone` is not a timer here but a handler to run, and is delivered
/// (as [`Msg::Returned`]) whenever that handler returns.
struct Dispatcher {
    handlers: HashMap<FunctionId, Handler>,
    pool: BlockingPool,
    tx: mpsc::Sender<Msg>,
    clock: WallClock,
    /// Timed events, at the simulated time each is due.
    timers: EventQueue,
    flights: HashMap<RequestId, Flight>,
}

impl Dispatcher {
    fn deliver(&mut self, at: TimePoint, event: Event) {
        let Event::ExecDone(cid, rid) = event else {
            return self.timers.push(at, event);
        };
        // `at` is the core's far-future placeholder for an execution of
        // unknown length; the handler decides when it really ends.
        let flight = self.flights.get_mut(&rid).expect("in-flight request");
        let payload = std::mem::take(&mut flight.payload);
        let handler = Arc::clone(&self.handlers[&flight.func]);
        let done = self.tx.clone();
        // One pool thread per *running* invocation, reused across
        // bursts. A handler's panic stops here: it returns like any
        // handler, with no output.
        self.pool.submit(Box::new(move || {
            let begun = Instant::now();
            let output = catch_unwind(AssertUnwindSafe(|| handler(payload))).ok();
            let _ = done.send(Msg::Returned(cid, rid, output, begun.elapsed()));
        }));
    }
}

/// What [`next`] woke the loop for.
enum Next {
    /// A scheduled event whose deadline passed, and the simulated time
    /// it was due at.
    Due(TimePoint, Event),
    /// A channel message.
    Message(Msg),
}

/// The loop's one blocking point: the queue's head once its deadline on
/// `clock` has passed, else a message, else a wait for whichever comes
/// first — a message or that deadline (`recv_timeout`; with nothing
/// scheduled, `recv`). Events come off in the queue's simulated order,
/// so two that share a real instant are stepped as the replay steps
/// them. Due events go first: finitely many are due at any instant,
/// while a busy channel need never run dry, and a loop kept awake by
/// messages meets its deadlines by the clock reading it takes per turn.
/// `None` once every sender is gone.
fn next(timers: &mut EventQueue, clock: &WallClock, rx: &mpsc::Receiver<Msg>) -> Option<Next> {
    loop {
        let now = Instant::now();
        let deadline = timers.peek_time().map(|at| clock.deadline(at));
        if deadline.is_some_and(|deadline| deadline <= now) {
            return timers.pop().map(|(at, event)| Next::Due(at, event));
        }
        let received = match deadline {
            Some(deadline) => rx.recv_timeout(deadline - now),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match received {
            Ok(msg) => return Some(Next::Message(msg)),
            // The head's deadline passed; it pops on the next turn.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return None,
        }
    }
}

/// The host thread: feeds invocations, timed events and handler returns
/// to the [`Orchestrator`] core, stamped with the wall clock; answers
/// callers; and after `Shutdown` drains until nothing is in flight, then
/// returns the report.
///
/// A panicked handler ends its request like any return: the core records
/// the measured run and steps `ExecDone`, so the container is released,
/// not evicted. The unwind stopped on the pool thread and the handler is
/// shared by every container of its function, so the container holds
/// nothing the panic broke; evicting it would only charge a later
/// request a cold start. The caller hears of it by its dropped reply.
fn serve(
    mut core: Orchestrator<NoopRecorder>,
    mut io: Dispatcher,
    rx: &mpsc::Receiver<Msg>,
    tick: TimeDelta,
) -> SimReport {
    let mut stopping = false;
    io.deliver(TimePoint::ZERO + tick, Event::Tick);
    while let Some(woke) = next(&mut io.timers, &io.clock, rx) {
        // A due event is stepped at or after `at`, however the reading
        // rounds; a message at the clock's reading, which that floor
        // keeps from going back.
        let now = match woke {
            Next::Due(at, _) => io.clock.now_at_least(at),
            Next::Message(_) => io.clock.now(),
        };
        match woke {
            // An undeployed function is one caller's mistake, not the
            // host's: dropping `reply` resolves that handle `None`.
            Next::Message(Msg::Invoke(func, ..)) if !io.handlers.contains_key(&func) => {}
            Next::Message(Msg::Invoke(func, payload, reply)) => {
                // Execution time unknown: the handler's run is measured.
                let rid = core.admit(func, now, None);
                let flight = Flight {
                    func,
                    payload,
                    reply,
                };
                io.flights.insert(rid, flight);
                core.step(now, Event::Arrival(rid), &mut |at, ev| io.deliver(at, ev));
            }
            Next::Due(_, event) => {
                core.step(now, event, &mut |at, ev| io.deliver(at, ev));
                if event == Event::Tick {
                    io.deliver(now + tick, Event::Tick);
                }
            }
            Next::Message(Msg::Returned(cid, rid, output, real_exec)) => {
                // Record in simulated units: the measured wall time
                // mapped back through the compression factor.
                let record = core
                    .record_exec(cid, rid, io.clock.to_sim(real_exec))
                    .expect("no crash plan on the host: containers outlive their executions");
                let flight = io.flights.remove(&rid).expect("in-flight request");
                if let Some(output) = output {
                    let _ = flight.reply.send(InvokeOutcome {
                        output,
                        class: record.class,
                        wait: record.wait,
                    });
                }
                core.step(now, Event::ExecDone(cid, rid), &mut |at, ev| {
                    io.deliver(at, ev)
                });
            }
            Next::Message(Msg::Shutdown) => stopping = true,
        }
        if stopping && core.incomplete() == 0 {
            break;
        }
    }
    // Handler panics stop inside their jobs: one that reaches the pool
    // is the host's own, and leaves through `join`.
    if let Some(payload) = io.pool.shutdown() {
        resume_unwind(payload);
    }
    core.finish().0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Far enough that a loop waiting it out fails its test visibly: on
    /// [`clock`], ten real seconds.
    const LATER: TimePoint = TimePoint::from_secs(10);

    /// One simulated second per real second.
    fn clock() -> WallClock {
        WallClock::start(1.0)
    }

    fn is_shutdown(woke: Option<Next>) -> bool {
        matches!(woke, Some(Next::Message(Msg::Shutdown)))
    }

    /// Sends `Shutdown` on `tx` after 20 ms, from another thread.
    fn send_soon(tx: mpsc::Sender<Msg>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send(Msg::Shutdown).expect("receiver alive");
        })
    }

    #[test]
    fn a_message_beats_a_later_deadline() {
        let start = Instant::now();
        let clock = clock();
        let mut timers = EventQueue::new();
        let (tx, rx) = mpsc::channel();
        timers.push(LATER, Event::Tick);
        tx.send(Msg::Shutdown).expect("receiver alive");
        assert!(is_shutdown(next(&mut timers, &clock, &rx)));
        // Sent while the loop waits for the deadline, a message wakes it.
        let sender = send_soon(tx);
        assert!(is_shutdown(next(&mut timers, &clock, &rx)));
        assert!(start.elapsed() < Duration::from_secs(5));
        sender.join().expect("sender");
        assert_eq!(timers.len(), 1, "the timed event is still owed");
    }

    #[test]
    fn an_earlier_deadline_is_not_held_behind_a_later_one() {
        let start = Instant::now();
        let clock = clock();
        let mut timers = EventQueue::new();
        let (tx, rx) = mpsc::channel();
        timers.push(LATER, Event::Tick);
        // The loop has seen the later deadline as its earliest...
        tx.send(Msg::Shutdown).expect("receiver alive");
        assert!(is_shutdown(next(&mut timers, &clock, &rx)));
        // ...and an earlier one scheduled since is the one it waits for.
        let near = (
            TimePoint::from_millis(20),
            Event::ProvisionDone(ContainerId(1)),
        );
        timers.push(near.0, near.1);
        let woke = next(&mut timers, &clock, &rx);
        assert!(matches!(woke, Some(Next::Due(at, e)) if (at, e) == near));
        let waited = start.elapsed();
        assert!(waited >= Duration::from_millis(20) && waited < Duration::from_secs(5));
        assert_eq!(timers.peek_time(), Some(LATER));
    }

    #[test]
    fn an_empty_heap_waits_on_the_channel() {
        let clock = clock();
        let mut timers = EventQueue::new();
        let (tx, rx) = mpsc::channel();
        let sender = send_soon(tx);
        assert!(is_shutdown(next(&mut timers, &clock, &rx)));
        sender.join().expect("sender");
        assert!(timers.is_empty());
    }

    #[test]
    fn a_disconnected_channel_yields_none() {
        let clock = clock();
        let mut timers = EventQueue::new();
        let (tx, rx) = mpsc::channel();
        drop(tx);
        assert!(next(&mut timers, &clock, &rx).is_none());
        // A pending deadline does not keep a loop nobody can reach.
        timers.push(LATER, Event::Tick);
        assert!(next(&mut timers, &clock, &rx).is_none());
    }

    /// At 1 simulated second per real nanosecond, 1 µs and 2 µs share
    /// one real instant, already passed: both are due at once, and come
    /// back in simulated order, not in the order they were pushed.
    #[test]
    fn events_on_one_real_instant_come_back_in_simulated_order() {
        let clock = WallClock::start(1e-9);
        let (early, late) = (TimePoint::from_micros(1), TimePoint::from_micros(2));
        assert_eq!(clock.deadline(early), clock.deadline(late));
        let mut timers = EventQueue::new();
        let (_tx, rx) = mpsc::channel();
        timers.push(late, Event::Tick);
        timers.push(early, Event::ProvisionDone(ContainerId(1)));
        let mut due = || match next(&mut timers, &clock, &rx) {
            Some(Next::Due(at, _)) => at,
            _ => panic!("a due event, not a message"),
        };
        assert_eq!(due(), early);
        assert_eq!(due(), late);
        assert!(timers.is_empty());
    }
}
