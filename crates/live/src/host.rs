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
//! Handler execution is real: each *running* invocation occupies a
//! thread of the executor's cached blocking pool for as long as the
//! handler runs (waiting invocations are entries in the orchestrator's
//! queues, not threads or tasks). Provisioning latency — the part of a
//! cold start a host cannot execute for you — is realised as a timed
//! delay of `profile.cold_start` scaled by
//! [`crate::LiveConfig::time_scale`]. The whole host is one task: the
//! orchestrator loop, which owns its timers
//! (`crate::mailbox::TimedMailbox`) and wakes for whichever comes
//! first, a caller's message or the earliest deadline.
//!
//! The host is a driver of [`faas_sim::Orchestrator`] (DESIGN.md §4)
//! and forwards whatever the core schedules, so the provision failures
//! and stragglers of [`crate::LiveConfig`]`.sim.faults` apply here as
//! they do in trace replay: failed provisions back off and retry, and
//! the report counts them. Worker crashes do not: replay owns every
//! request's lifecycle and can void and re-queue a crashed execution,
//! but the host hands outputs to external callers the moment handlers
//! return and cannot un-deliver them — [`FaasHost::start`] rejects a
//! plan that schedules any.
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
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use faas_obs::{NoopRecorder, Recorder, RingRecorder, TraceLog};
use faas_sim::{ContainerId, Event, Orchestrator, PolicyStack, RequestId, SimReport, StartClass};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

use crate::exec;
use crate::mailbox::{Next, TimedMailbox};
use crate::runtime::{LiveConfig, WallClock};

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
    /// Blocks until the invocation completes. Returns `None` if the
    /// function was never deployed (the host admits nothing and keeps
    /// serving everyone else) or the host went away without serving it
    /// (cannot happen before [`FaasHost::shutdown`]).
    pub fn wait(self) -> Option<InvokeOutcome> {
        self.rx.recv().ok()
    }
}

enum Msg {
    Invoke(FunctionId, Vec<u8>, mpsc::Sender<InvokeOutcome>),
    /// A handler returned: where it ran, for whom, its output, and how
    /// long it really took.
    Returned(ContainerId, RequestId, Vec<u8>, Duration),
    Shutdown(mpsc::Sender<(SimReport, TraceLog)>),
}

/// A running FaaS host. See the module docs for the lifecycle.
pub struct FaasHost {
    tx: exec::channel::Sender<Msg>,
    executor: Option<exec::Executor>,
}

impl std::fmt::Debug for FaasHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasHost").finish_non_exhaustive()
    }
}

impl FaasHost {
    /// Starts the host with the given deployments. The orchestrator
    /// runs as a task on an in-process [`exec::Executor`].
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
        Self::start_with(config, stack, deployments, NoopRecorder)
    }

    /// Like [`FaasHost::start`], but with provenance recording enabled:
    /// [`FaasHost::shutdown_traced`] returns the accumulated
    /// [`TraceLog`] alongside the report. Event timestamps are virtual
    /// times derived from the wall clock, so the stream varies run to
    /// run (live tracing inspects one real execution, it is not a
    /// determinism oracle).
    ///
    /// # Panics
    ///
    /// As [`FaasHost::start`].
    pub fn start_traced(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
    ) -> Self {
        Self::start_with(config, stack, deployments, RingRecorder::unbounded())
    }

    fn start_with<R: Recorder + Send + 'static>(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
        rec: R,
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
        let core = Orchestrator::new(profiles, &config.sim, stack, rec);
        let executor = exec::Executor::new(config.exec_threads);
        let (tx, rx) = exec::channel::channel();
        let io = Dispatcher {
            handlers,
            exec: executor.handle(),
            tx: tx.clone(),
            clock: WallClock::start(config.time_scale),
            timers: TimedMailbox::new(executor.handle()),
            flights: HashMap::new(),
            running: 0,
        };
        drop(executor.spawn(serve(core, io, rx, config.sim.tick)));
        Self {
            tx,
            executor: Some(executor),
        }
    }

    /// Fires an invocation; returns immediately with a handle.
    pub fn invoke(&self, func: FunctionId, payload: Vec<u8>) -> InvokeHandle {
        let (otx, orx) = mpsc::channel();
        // The orchestrator outlives every handle until shutdown.
        let _ = self.tx.send(Msg::Invoke(func, payload, otx));
        InvokeHandle { rx: orx }
    }

    /// Drains in-flight invocations and returns the run report.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any handler hit (the executor captures
    /// handler panics instead of letting them kill a request thread).
    pub fn shutdown(self) -> SimReport {
        self.shutdown_traced().0
    }

    /// Like [`FaasHost::shutdown`], additionally returning the
    /// provenance [`TraceLog`] — empty unless the host was started with
    /// [`FaasHost::start_traced`].
    ///
    /// # Panics
    ///
    /// As [`FaasHost::shutdown`].
    pub fn shutdown_traced(mut self) -> (SimReport, TraceLog) {
        let (rtx, rrx) = mpsc::channel();
        let _ = self.tx.send(Msg::Shutdown(rtx));
        let report = rrx.recv();
        let executor = self.executor.take().expect("executor lives until shutdown");
        // Rethrows captured orchestrator/handler panics.
        executor.shutdown();
        report.expect("orchestrator returns a report")
    }
}

/// An invocation between `invoke` and its reply.
struct Flight {
    func: FunctionId,
    payload: Vec<u8>,
    reply: mpsc::Sender<InvokeOutcome>,
}

/// The host's sink: everything needed to act on "deliver this event at
/// time T". Timed events go into the driver's own [`TimedMailbox`]; an
/// `ExecDone` is not a timer here but a handler to run, and is
/// delivered (as [`Msg::Returned`]) whenever that handler returns.
struct Dispatcher {
    handlers: HashMap<FunctionId, Handler>,
    exec: exec::Handle,
    tx: exec::channel::Sender<Msg>,
    clock: WallClock,
    timers: TimedMailbox<Event>,
    flights: HashMap<RequestId, Flight>,
    /// Handlers out on the blocking pool.
    running: usize,
}

impl Dispatcher {
    fn deliver(&mut self, at: TimePoint, event: Event) {
        let Event::ExecDone(cid, rid) = event else {
            return self.timers.schedule(self.clock.deadline(at), event);
        };
        // `at` is the core's far-future placeholder for an execution of
        // unknown length; the handler decides when it really ends.
        let flight = self.flights.get_mut(&rid).expect("in-flight request");
        let payload = std::mem::take(&mut flight.payload);
        let handler = Arc::clone(&self.handlers[&flight.func]);
        let done = self.tx.clone();
        self.running += 1;
        // The handler runs on the executor's cached blocking pool: one
        // pool thread per *running* invocation, reused across bursts,
        // instead of a fresh OS thread per request.
        drop(self.exec.spawn_blocking(move || {
            let begun = Instant::now();
            let output = handler(payload);
            let _ = done.send(Msg::Returned(cid, rid, output, begun.elapsed()));
        }));
    }
}

/// The host driver: feeds invocations, timed events and handler returns
/// to the [`Orchestrator`] core, stamped with the wall clock; answers
/// callers; and after `Shutdown` drains until nothing is in flight.
async fn serve<R: Recorder>(
    mut core: Orchestrator<R>,
    mut io: Dispatcher,
    mut rx: exec::channel::Receiver<Msg>,
    tick: TimeDelta,
) {
    let mut shutdown_reply = None;
    io.deliver(TimePoint::ZERO + tick, Event::Tick);
    while let Some(next) = io.timers.next(&mut rx).await {
        let now = io.clock.now();
        match next {
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
            Next::Due(event) => {
                core.step(now, event, &mut |at, ev| io.deliver(at, ev));
                if event == Event::Tick {
                    if core.incomplete() > 0 && io.timers.is_empty() && io.running == 0 {
                        // As in the simulator's loop: the tick chain is
                        // all that is left and no handler can return,
                        // so deferred placements are the last possible
                        // source of progress.
                        core.retry_deferred(&mut |at, ev| io.deliver(at, ev));
                    }
                    io.deliver(now + tick, Event::Tick);
                }
            }
            Next::Message(Msg::Returned(cid, rid, output, real_exec)) => {
                io.running -= 1;
                // Record in simulated units: the measured wall time
                // mapped back through the compression factor.
                let record = core
                    .record_exec(cid, rid, io.clock.to_sim(real_exec))
                    .expect("no crash plan on the host: containers outlive their executions");
                let flight = io.flights.remove(&rid).expect("in-flight request");
                let _ = flight.reply.send(InvokeOutcome {
                    output,
                    class: record.class,
                    wait: record.wait,
                });
                core.step(now, Event::ExecDone(cid, rid), &mut |at, ev| {
                    io.deliver(at, ev)
                });
            }
            Next::Message(Msg::Shutdown(reply)) => shutdown_reply = Some(reply),
        }
        if core.incomplete() == 0 {
            if let Some(reply) = shutdown_reply.take() {
                let _ = reply.send(core.finish());
                return;
            }
        }
    }
}
