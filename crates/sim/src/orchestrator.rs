//! The orchestration core: one sans-IO state machine for every driver.
//!
//! [`Orchestrator`] owns all FaaS mechanics described in §3.1 of the
//! paper:
//!
//! * **Dispatch**: an arriving request runs immediately on a warm
//!   container with a free thread (true warm start). Otherwise the
//!   request's fate is decided by the [`Scaler`](crate::Scaler) policy.
//! * **Per-function channel**: blocked requests join a FIFO channel.
//!   The first resource to become available — a busy container freeing
//!   a thread (delayed warm start) or a fresh container completing
//!   provisioning, one waiter per thread (cold start) — serves the head
//!   of the channel. This first-available-wins mechanic *is* the
//!   speculative-scaling race.
//! * **Memory pressure**: provisioning charges the hosting worker's
//!   memory; when no worker fits, the core evicts idle containers in
//!   ascending [`KeepAlive::priority`](crate::KeepAlive::priority) order
//!   (the paper's REPLACE subroutine). If even eviction cannot make room
//!   (everything is busy), the provision is deferred and retried as
//!   memory frees.
//! * **Classification**: a request's class is determined by the event
//!   that dispatched it — arrival onto an idle container → warm start,
//!   a container freeing a thread → delayed warm start, provisioning
//!   completing → cold start.
//!
//! The core does no IO and reads no clock. Its only input is
//! [`Orchestrator::step`]`(now, event, out)`; its only outward effect is
//! calling `out(at, event)`: "deliver this event back to me at time
//! `at`". What `at` means is the driver's business (DESIGN.md §4): the
//! sequential engine pushes onto a virtual-time heap, the live replay
//! sleeps until the scaled wall-clock deadline, and the live host runs a
//! real handler when it is handed an `ExecDone`. `out` is a generic
//! closure, so each driver's sink is inlined into the handlers — no
//! boxing, no per-step buffer.

use std::collections::{BTreeMap, VecDeque};

use faas_core::RoundHeap;
use faas_obs::{EvictReason, ObsEvent, Recorder, TraceLog};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

use crate::cluster::{ClusterState, FnRuntime};
use crate::config::{ScanMode, SimConfig};
use crate::container::ContainerInfo;
use crate::event::Event;
use crate::fault::FaultState;
use crate::ids::{ContainerId, RequestId, WorkerId};
use crate::policy::{PolicyStack, PriorityDeps, ScaleDecision, StartClass};
use crate::report::{RequestRecord, SimReport};
use crate::request::RequestState;

/// Execution horizon assumed for a running request whose execution time
/// the driver measures: its expected end sits this far ahead, so oracle
/// queries see the thread as busy for the foreseeable future.
const UNMEASURED_HORIZON: TimeDelta = TimeDelta::from_secs(3600);

/// When a running request's execution is expected to end — the entry
/// [`FnRuntime::running`] holds for it meanwhile.
fn busy_end(req: &RequestState) -> TimePoint {
    let exec = if req.measured {
        UNMEASURED_HORIZON
    } else {
        req.exec
    };
    req.started + exec
}

/// Whether `req` is executing: started, and neither finished nor voided
/// by a crash. Its `container` and `record` are meaningful.
fn is_running(req: &RequestState) -> bool {
    req.class.is_some() && !req.finished
}

/// Whether `rt`'s channel holds a request any container may serve.
fn has_flexible(rt: &FnRuntime) -> bool {
    rt.pending.len() > rt.pending.cold_only_len()
}

/// A REPLACE round's victim source, one per scan mode: both yield
/// ascending `(priority, id)`.
enum RoundVictims {
    Heap(RoundHeap<ContainerId>),
    Sorted(std::vec::IntoIter<(f64, ContainerId)>),
}

/// The orchestration state machine, generic over the trace recorder
/// (DESIGN.md §12): with [`faas_obs::NoopRecorder`] monomorphization
/// folds every emission site to nothing.
///
/// A driver admits requests ([`Orchestrator::admit`]), feeds events in
/// whatever order and at whatever (non-decreasing) times its clock
/// produces them ([`Orchestrator::step`]), re-arms [`Event::Tick`]
/// itself, and takes the report when [`Orchestrator::incomplete`]
/// reaches zero ([`Orchestrator::finish`]).
///
/// # Examples
///
/// A minimal virtual-time driver. It queues every arrival before the
/// first step, which is the simplest correct thing to do; [`crate::run`]
/// gives the same result while holding only what is in flight, by
/// merging arrivals from the trace and admitting each as it arrives
/// (`engine.rs`):
///
/// ```
/// use faas_obs::NoopRecorder;
/// use faas_sim::{baseline_lru_stack, Event, EventQueue, Orchestrator, SimConfig};
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(3).minutes(1).build();
/// let mut core = Orchestrator::new(
///     trace.functions().iter().cloned(),
///     &SimConfig::default(),
///     baseline_lru_stack(),
///     NoopRecorder,
/// );
/// let mut events = EventQueue::new();
/// for inv in trace.invocations() {
///     let rid = core.admit(inv.func, inv.arrival, Some(inv.exec));
///     events.push(inv.arrival, Event::Arrival(rid));
/// }
/// while let Some((now, ev)) = events.pop() {
///     core.step(now, ev, &mut |at, ev| events.push(at, ev));
/// }
/// assert_eq!(core.incomplete(), 0);
/// assert_eq!(core.finish().0.requests.len(), trace.len());
/// ```
pub struct Orchestrator<R: Recorder> {
    cluster: ClusterState,
    /// State of every request that has not finished, in id order — a
    /// sliding window: requests are admitted at the back and retired
    /// from the front, so a long-lived host holds state for what is in
    /// flight, not for everything it ever served.
    requests: VecDeque<RequestState>,
    /// Requests retired from the front of `requests`: the id of
    /// `requests[0]`.
    retired: u64,
    /// Provisions no worker could host, `(func, speculative, attempt)`
    /// in the order they were deferred; each also counts in its
    /// function's `FnRuntime::unplaced`.
    deferred: VecDeque<(FunctionId, bool, u32)>,
    policies: PolicyStack,
    /// Time of the step being processed (of the last one, between steps).
    now: TimePoint,
    incomplete: u64,
    records: Vec<RequestRecord>,
    finished_at: TimePoint,
    faults: FaultState,
    /// Arrival events processed so far (request-conservation invariant).
    arrived: u64,
    /// Functions, sorted, whose every host the fault plan crashes, so
    /// that none of their requests can be served after the last such
    /// crash: `admit` refuses them. Empty without crashes.
    stranded: Vec<FunctionId>,
    /// Whether the policy declares [`PriorityDeps::Function`]: an indexed
    /// round then evaluates one candidate per function (`fn_priority`).
    per_function: bool,
    /// Scratch of a REPLACE round, kept between rounds so that a round
    /// allocates nothing: the heap of the round's priorities, the
    /// victims handed to `KeepAlive::on_admit`, and, by function slot,
    /// the priority a round evaluated for that function, stamped with
    /// the round (`rounds`) so that no value outlives it.
    round_heap: RoundHeap<ContainerId>,
    evicted: Vec<ContainerInfo>,
    fn_priority: Vec<(u64, f64)>,
    rounds: u64,
    /// Structured trace sink (DESIGN.md §12).
    rec: R,
}

impl<R: Recorder> Orchestrator<R> {
    /// Builds the core for a cluster hosting `functions` under
    /// `policies`. Of `config` it reads the cluster shape, the scan
    /// mode and the fault plan; the tick interval is the driver's, but
    /// every driver builds its core here, so it is checked here.
    ///
    /// # Panics
    ///
    /// Panics if some function's memory footprint exceeds every worker's
    /// capacity, if `config.tick` is zero (a driver would re-arm the
    /// tick at the same instant forever), or if the fault plan fails
    /// [`FaultPlan::validate`](crate::FaultPlan::validate).
    pub fn new(
        functions: impl IntoIterator<Item = FunctionProfile>,
        config: &SimConfig,
        policies: PolicyStack,
        rec: R,
    ) -> Self {
        assert!(
            config.tick > TimeDelta::ZERO,
            "SimConfig::tick must be positive"
        );
        config.faults.validate();
        let max_worker = config.workers_mb.iter().copied().max().unwrap_or(0);
        let functions = functions.into_iter().inspect(|f| {
            assert!(
                u64::from(f.mem_mb) <= max_worker,
                "function {} ({} MB) exceeds the largest worker ({} MB)",
                f.id,
                f.mem_mb,
                max_worker
            );
        });
        let mut cluster = ClusterState::with_placement(
            &config.workers_mb,
            functions,
            config.threads,
            config.placement,
        );
        cluster.set_scan(config.scan);
        let crashes = &config.faults.worker_crashes;
        let stranded = cluster
            .profiles()
            .filter(|f| {
                cluster
                    .workers()
                    .iter()
                    .filter(|w| w.capacity_mb >= u64::from(f.mem_mb))
                    .all(|w| crashes.iter().any(|&(_, c)| c == w.id))
            })
            .map(|f| f.id)
            .collect();
        let per_function = policies.keepalive.priority_deps() == PriorityDeps::Function;
        let fn_priority = vec![(0, 0.0); cluster.function_ids().len()];
        Self {
            cluster,
            requests: VecDeque::new(),
            retired: 0,
            deferred: VecDeque::new(),
            policies,
            now: TimePoint::ZERO,
            incomplete: 0,
            records: Vec::new(),
            finished_at: TimePoint::ZERO,
            faults: FaultState::new(config.faults.clone()),
            arrived: 0,
            stranded,
            per_function,
            round_heap: RoundHeap::default(),
            evicted: Vec::new(),
            fn_priority,
            rounds: 0,
            rec,
        }
    }

    /// Registers a request; the driver delivers its [`Event::Arrival`].
    /// `exec` is the execution time when it is known up front (trace
    /// replay), or `None` when the driver measures it: the core then
    /// hands `ExecDone` to `out` like any other event, but expects it
    /// back whenever the execution really ended, preceded by
    /// [`Orchestrator::record_exec`].
    ///
    /// # Panics
    ///
    /// Panics if the fault plan crashes every worker that can host
    /// `func`: a request for it in flight at the last such crash, or
    /// arriving after it, could never be served. A core under such a
    /// plan runs only traces that never invoke `func`.
    pub fn admit(
        &mut self,
        func: FunctionId,
        arrival: TimePoint,
        exec: Option<TimeDelta>,
    ) -> RequestId {
        assert!(
            self.stranded.binary_search(&func).is_err(),
            "fault plan crashes every worker that can host {func} ({:?}): none of its requests \
             can be served after the last such crash",
            self.faults.plan().worker_crashes
        );
        let rid = RequestId(self.retired + self.requests.len() as u64);
        self.requests.push_back(RequestState {
            func,
            arrival,
            exec: exec.unwrap_or(TimeDelta::ZERO),
            measured: exec.is_none(),
            class: None,
            finished: false,
            started: TimePoint::ZERO,
            container: ContainerId(0),
            record: 0,
        });
        self.incomplete += 1;
        rid
    }

    /// Schedules the fault plan's worker crashes through `out`.
    ///
    /// # Panics
    ///
    /// Panics if the plan crashes a worker the cluster does not have.
    pub fn schedule_crashes(&self, out: &mut impl FnMut(TimePoint, Event)) {
        for &(at, worker) in &self.faults.plan().worker_crashes {
            assert!(
                usize::from(worker.0) < self.cluster.workers().len(),
                "fault plan crashes unknown worker {worker:?}"
            );
            out(at, Event::WorkerDown(worker));
        }
    }

    /// Processes `event` at time `now`. Every follow-up the mechanics
    /// call for is handed to `out(at, event)` for delivery at `at`;
    /// re-arming [`Event::Tick`] is left to the driver. `now` must not
    /// decrease between steps — a wall-clock driver clamps it — but it
    /// may run *ahead* of the `at` an event was scheduled for: lateness
    /// is part of the contract.
    #[inline]
    pub fn step(&mut self, now: TimePoint, event: Event, out: &mut impl FnMut(TimePoint, Event)) {
        debug_assert!(now >= self.now, "time ran backwards: {now} < {}", self.now);
        self.now = now;
        match event {
            Event::Arrival(rid) => self.on_arrival(rid, out),
            Event::ProvisionDone(cid) => self.on_provision_done(cid, out),
            Event::ExecDone(cid, rid) => self.on_exec_done(cid, rid, out),
            Event::Tick => self.on_tick(out),
            Event::ProvisionFailed(cid, attempt) => self.on_provision_failed(cid, attempt, out),
            Event::RetryProvision(func, attempt, spec) => {
                self.on_retry_provision(func, attempt, spec, out)
            }
            Event::WorkerDown(worker) => self.on_worker_down(worker, out),
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
    }

    /// Asserts the structural invariants: the cluster's bookkeeping and
    /// backlog ([`ClusterState::validate`]); request conservation — every
    /// arrived request has started (it has a record) or waits on a
    /// function channel or a container, and a crash voids the records of
    /// the executions it re-queues, so the identity holds through
    /// failures; and, in debug builds, that each function's
    /// [`FnRuntime::unplaced`] counts at least its deferred provisions: a
    /// recount of the deferral queue, which in a release soak that calls
    /// this after every step holds thousands of entries. Debug builds run
    /// this after every step.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant (a bug in the core or the
    /// cluster bookkeeping).
    pub fn check_invariants(&self) {
        self.cluster.validate();
        let started = self.records.len();
        let waiting = self.cluster.total_pending() + self.cluster.total_local_queued();
        assert_eq!(
            self.arrived,
            (started + waiting) as u64,
            "request conservation violated: {} arrived but {started} started + {waiting} waiting",
            self.arrived
        );
        #[cfg(debug_assertions)]
        for (func, deferred) in self.deferred_per_function() {
            let unplaced = self.unplaced(func);
            assert!(
                unplaced >= deferred,
                "{func}: {unplaced} unplaced chains, {deferred} of them deferred"
            );
        }
    }

    /// Asserts, once the driver's queue has drained, that every chain
    /// without a container is a deferred provision: with no
    /// `RetryProvision` left to fire, each function's
    /// [`FnRuntime::unplaced`](crate::FnRuntime::unplaced) equals its
    /// entries in the deferral queue.
    ///
    /// # Panics
    ///
    /// Panics if some function's count differs.
    pub fn check_drained(&self) {
        let deferred = self.deferred_per_function();
        for &func in self.cluster.function_ids() {
            let queued = deferred.get(&func).copied().unwrap_or(0);
            assert_eq!(
                self.unplaced(func),
                queued,
                "{func}: unplaced chains against deferred provisions, nothing else in flight"
            );
        }
    }

    fn unplaced(&self, func: FunctionId) -> usize {
        self.cluster
            .fn_runtime(func)
            .map_or(0, |rt| rt.unplaced as usize)
    }

    /// Entries of the deferral queue per function: a scan, for the
    /// checks above only.
    fn deferred_per_function(&self) -> BTreeMap<FunctionId, usize> {
        let mut per = BTreeMap::new();
        for &(func, _, _) in &self.deferred {
            *per.entry(func).or_default() += 1;
        }
        per
    }

    /// Fills in the execution time of a request admitted with
    /// `exec: None`, measured by the driver, and returns its finished
    /// record. Call it right before stepping the request's
    /// `ExecDone(cid, rid)`. `None` means the execution is void — `cid`
    /// died in a worker crash and the request was re-queued — and the
    /// `ExecDone` will be ignored too.
    pub fn record_exec(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
        exec: TimeDelta,
    ) -> Option<RequestRecord> {
        self.cluster.container(cid)?;
        let slot = self.slot(rid);
        let record = &mut self.records[self.requests[slot].record];
        record.exec = exec;
        Some(*record)
    }

    /// Where `rid`'s state sits in the `requests` window. Nothing refers
    /// to a request after its execution finished: its `ExecDone` is the
    /// last event carrying its id.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "on every event's path, so no checked conversion: the difference is an \
                  index into the in-memory `requests` window"
    )]
    fn slot(&self, rid: RequestId) -> usize {
        (rid.0 - self.retired) as usize
    }

    /// Admitted requests that have not finished executing.
    pub fn incomplete(&self) -> u64 {
        self.incomplete
    }

    /// The cluster bookkeeping, for invariant checks and inspection.
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Settles the ledger and returns the report with the recorded
    /// trace (empty under [`faas_obs::NoopRecorder`]).
    pub fn finish(mut self) -> (SimReport, TraceLog) {
        // Charge still-resident containers up to the ledger's high-water
        // mark (the last charging mutation).
        let settle_at = self.cluster.settle_ledger();
        let report = SimReport {
            requests: self.records,
            containers_created: self.cluster.containers_created,
            containers_evicted: self.cluster.containers_evicted,
            wasted_cold_starts: self.cluster.wasted_cold_starts,
            provision_failures: self.cluster.provision_failures,
            crash_evictions: self.cluster.crash_evictions,
            finished_at: self.finished_at,
            ledger: self.cluster.ledger,
            ledger_settled_at: settle_at,
        };
        (report, self.rec.take_log())
    }

    // -- event handlers --------------------------------------------------
    //
    // `step`, the three per-request handlers and `start_exec` carry
    // `#[inline]`: the drivers' loops live in other modules (other
    // codegen units, for `faas-live` another crate), and without the
    // hint the per-event call chain stays out of line — measured at 3–4%
    // of a warm replay against the loop-and-handlers-in-one-impl engine
    // this core was extracted from.

    #[inline]
    fn on_arrival(&mut self, rid: RequestId, out: &mut impl FnMut(TimePoint, Event)) {
        self.arrived += 1;
        let func = self.requests[self.slot(rid)].func;
        self.cluster.note_arrival(func, self.now);
        if let Some(cid) = self.cluster.pick_available(func) {
            self.start_exec(cid, rid, StartClass::Warm, out);
            return;
        }
        let info = self.requests[self.slot(rid)].info(rid);
        let ctx = self.cluster.policy_ctx(self.now);
        let mut decision = self.policies.scaler.on_blocked(&info, &ctx);

        // A pure wait is only meaningful if some container of the function
        // exists (busy or provisioning) to wait for; otherwise escalate.
        if decision == ScaleDecision::WaitWarm
            && ctx.warm_count(func) == 0
            && ctx.provisioning_count(func) == 0
        {
            decision = ScaleDecision::Race;
        }
        // An EnqueueOn target must still be a live saturated container.
        if let ScaleDecision::EnqueueOn(cid) = decision {
            let valid = self
                .cluster
                .container(cid)
                .map(|c| c.func == func && c.is_saturated())
                .unwrap_or(false);
            if !valid {
                decision = ScaleDecision::ColdStart;
            }
        }

        // Decision provenance: the *final* decision, after escalation
        // and validation — what the engine will actually do. Warm hits
        // above emit no Admit record (there was no choice to make).
        obs!(
            self.rec,
            ObsEvent::Admit {
                at: self.now,
                rid: rid.0,
                func,
                decision: decision.into(),
                note: self.policies.scaler.explain(),
            }
        );

        match decision {
            ScaleDecision::ColdStart => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, true);
                self.request_provision(func, false, 0, out);
            }
            ScaleDecision::WaitWarm => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, false);
            }
            ScaleDecision::Race => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, false);
                self.request_provision(func, true, 0, out);
            }
            ScaleDecision::EnqueueOn(cid) => {
                let ok = self.cluster.enqueue_local(cid, rid);
                debug_assert!(ok, "validated above");
            }
        }
    }

    #[inline]
    fn on_provision_done(&mut self, cid: ContainerId, out: &mut impl FnMut(TimePoint, Event)) {
        if self.cluster.container(cid).is_none() {
            // Stale event: the container's worker crashed while it was
            // provisioning. Ids are never reused, so this is the only way
            // the container can be gone; fault-free runs never hit this.
            return;
        }
        self.cluster.finish_provision(cid, self.now);
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: true,
            }
        );
        let c = self.cluster.container(cid).expect("just provisioned");
        let (func, threads) = (c.func, c.thread_capacity);
        // Each of the fresh container's threads takes the head of the
        // channel, cold-only or not, as a cold start.
        let mut served = 0;
        while served < threads {
            let Some((rid, _)) = self.cluster.fn_runtime_mut(func).pending.pop_any() else {
                break;
            };
            self.start_exec(cid, rid, StartClass::Cold, out);
            served += 1;
        }
        if served == 0 {
            // Idle immediately: if speculative, the container may turn out
            // wasted; either way it is now evictable, so deferred
            // provisions may fit.
            self.retry_deferred(out);
        }
        self.serve_backlog(func, out);
    }

    #[inline]
    fn on_exec_done(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        if self.cluster.container(cid).is_none() {
            // Stale event: the container's worker crashed mid-execution
            // and the request was re-queued; a fresh ExecDone will fire
            // when it re-executes elsewhere.
            return;
        }
        self.finished_at = self.finished_at.max(self.now);
        self.incomplete -= 1;
        obs!(
            self.rec,
            ObsEvent::Finish {
                at: self.now,
                rid: rid.0,
                cid: cid.0,
            }
        );
        let slot = self.slot(rid);
        self.requests[slot].finished = true;
        let req = &self.requests[slot];
        let (func, end) = (req.func, busy_end(req));
        // Slide the window past every request that is done with.
        while self.requests.front().is_some_and(|r| r.finished) {
            self.requests.pop_front();
            self.retired += 1;
        }
        // Retire the request's *own* expected end: the virtual clock
        // delivers ExecDone exactly then (`end == now`), a wall clock
        // delivers it late, and a measured execution never knew it. Work
        // conservation: the freed thread serves the container-local queue
        // first (`release_thread` pops its head), then the function channel.
        if let Some(next) = self.cluster.release_thread(cid, self.now, end) {
            self.start_exec(cid, next, StartClass::DelayedWarm, out);
            return;
        }
        if !self.serve_backlog(func, out) {
            // No waiter took the freed thread (a waiter would take this
            // one: no other thread of the function was free). The
            // container (or one of its threads) idles; idle memory is
            // evictable, so deferred provisions may now fit.
            self.retry_deferred(out);
        }
    }

    fn on_tick(&mut self, out: &mut impl FnMut(TimePoint, Event)) {
        // TTL-style expirations.
        let expired = {
            let ctx = self.cluster.policy_ctx(self.now);
            self.policies.keepalive.expirations(&ctx)
        };
        for cid in expired {
            let still_idle = self
                .cluster
                .container(cid)
                .map(|c| c.is_idle() && c.local_queue.is_empty())
                .unwrap_or(false);
            if still_idle {
                self.evict_container(cid, EvictReason::Expire);
            }
        }
        // Prewarming.
        if self.policies.prewarm.is_some() {
            let wants = {
                let ctx = self.cluster.policy_ctx(self.now);
                self.policies
                    .prewarm
                    .as_mut()
                    .expect("prewarm is Some: guarded by the is_some check above")
                    .on_tick(&ctx)
            };
            for func in wants {
                // Prewarms are best-effort: skip rather than defer.
                self.place(func, false, 0, out);
            }
        }
    }

    /// Provision `attempt` of a chain failed (fault injection): abandon
    /// the container, signal the policies, and schedule the next attempt
    /// with capped exponential backoff.
    fn on_provision_failed(
        &mut self,
        cid: ContainerId,
        attempt: u32,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        let Some(c) = self.cluster.container(cid) else {
            // The container's worker crashed before the failure fired.
            // The crash handler already re-provisioned for the backlog.
            return;
        };
        let func = c.func;
        let speculative = c.speculative_unused;
        let info = self.cluster.fail_provision(cid, self.now);
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: false,
            }
        );
        {
            let ctx = self.cluster.policy_ctx(self.now);
            // Drop any policy state keyed on the dead container (e.g.
            // CIP's logical clock).
            self.policies.keepalive.on_evict(&info, &ctx);
            if speculative {
                // A failed speculative cold start is the strongest
                // "wasted" signal: it burned a provision and served
                // nobody (Ti = ∞ for CSS).
                self.policies.scaler.on_cold_outcome(func, None, &ctx);
            }
        }
        let next = attempt + 1;
        let backoff = self.faults.plan().backoff(next);
        obs!(
            self.rec,
            ObsEvent::RetryScheduled {
                at: self.now,
                func,
                attempt: next,
                backoff,
                speculative,
            }
        );
        out(
            self.now + backoff,
            Event::RetryProvision(func, next, speculative),
        );
        self.cluster.fn_runtime_mut(func).unplaced += 1;
        // The failure released memory a deferred provision may want.
        self.retry_deferred(out);
    }

    /// A failed provision's backoff expired: retry, unless the backlog
    /// drained during the wait (every cold-only request keeps the
    /// function's channel non-empty until a provision serves it, so
    /// skipping on an empty channel never strands anyone).
    fn on_retry_provision(
        &mut self,
        func: FunctionId,
        attempt: u32,
        speculative: bool,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        let rt = self.cluster.fn_runtime_mut(func);
        rt.unplaced -= 1;
        if !rt.pending.is_empty() {
            self.request_provision(func, speculative, attempt, out);
        }
    }

    /// A worker crashes: every container on it dies. In-flight requests
    /// and container-local queues are re-queued on their function
    /// channels (their records are voided — they will re-execute), and
    /// each affected function's backlog is served by `serve_backlog`.
    fn on_worker_down(&mut self, worker: WorkerId, out: &mut impl FnMut(TimePoint, Event)) {
        if !self.cluster.worker_is_alive(worker) {
            return; // duplicate crash event
        }
        self.cluster.mark_worker_down(worker);
        obs!(
            self.rec,
            ObsEvent::WorkerDown {
                at: self.now,
                worker: worker.0,
            }
        );
        let victims = self.cluster.containers_on(worker);
        let mut voided: Vec<usize> = Vec::new();
        let mut requeue: Vec<(FunctionId, RequestId)> = Vec::new();
        // The executions the crash kills: every running request in the
        // window whose container is a victim (`victims` is sorted).
        for (i, req) in (self.retired..).zip(self.requests.iter_mut()) {
            if is_running(req) && victims.binary_search(&req.container).is_ok() {
                voided.push(req.record);
                req.class = None;
                requeue.push((req.func, RequestId(i)));
            }
        }
        let mut affected: Vec<FunctionId> = Vec::new();
        for cid in victims {
            let (info, local_queued) = self.cluster.crash_evict(cid, self.now);
            obs!(
                self.rec,
                ObsEvent::Evict {
                    at: self.now,
                    cid: cid.0,
                    func: info.func,
                    worker: info.worker.0,
                    reason: EvictReason::Crash,
                    // No policy note: a crash is the fault plan's
                    // doing, not a keep-alive decision.
                    note: None,
                }
            );
            affected.push(info.func);
            for rid in local_queued {
                requeue.push((info.func, rid));
            }
            let ctx = self.cluster.policy_ctx(self.now);
            self.policies.keepalive.on_evict(&info, &ctx);
            // Deliberately no `on_cold_outcome` here: a crash says
            // nothing about whether speculation was wasteful, unlike a
            // provision failure or an idle eviction.
        }
        self.remove_records(voided);
        // Re-queue in deterministic request order, never cold-only: any
        // resource may serve a crash refugee.
        requeue.sort_by_key(|&(_, rid)| rid);
        for &(func, rid) in &requeue {
            self.cluster.fn_runtime_mut(func).pending.push(rid, false);
        }
        affected.sort_unstable();
        affected.dedup();
        for func in affected {
            self.serve_backlog(func, out);
        }
        self.retry_deferred(out);
    }

    /// Voids the given record indices (crash-killed executions) and
    /// remaps the surviving in-flight records' indices.
    fn remove_records(&mut self, mut voided: Vec<usize>) {
        if voided.is_empty() {
            return;
        }
        voided.sort_unstable();
        let old = std::mem::take(&mut self.records);
        let mut vi = 0;
        for (i, r) in old.into_iter().enumerate() {
            if vi < voided.len() && voided[vi] == i {
                vi += 1;
            } else {
                self.records.push(r);
            }
        }
        for req in self.requests.iter_mut().filter(|r| is_running(r)) {
            req.record -= voided.partition_point(|&v| v < req.record);
        }
    }

    // -- mechanics ---------------------------------------------------------

    /// Starts `rid` on container `cid`, recording its outcome and firing
    /// policy hooks.
    #[inline]
    fn start_exec(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
        class: StartClass,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        let slot = self.slot(rid);
        let req = &mut self.requests[slot];
        req.class = Some(class);
        req.started = self.now;
        req.container = cid;
        req.record = self.records.len();
        // A measured execution shows policies and the record zero until
        // `record_exec` fills it in.
        let (func, arrival, exec) = (req.func, req.arrival, req.exec);
        let wait = self.now.saturating_since(arrival);
        let end = busy_end(req);
        let dispatch = self.cluster.occupy_thread(cid, self.now, end);
        out(end, Event::ExecDone(cid, rid));
        self.records.push(RequestRecord {
            func,
            arrival,
            wait,
            exec,
            class,
        });
        obs!(
            self.rec,
            ObsEvent::Start {
                at: self.now,
                rid: rid.0,
                cid: cid.0,
                func,
                class,
                wait,
            }
        );

        let info = self.requests[slot].info(rid);
        let ctx = self.cluster.policy_ctx(self.now);
        if class != StartClass::Cold {
            self.policies.keepalive.on_reuse(&dispatch.info, &ctx);
        }
        self.policies
            .scaler
            .on_start(&info, class, wait, exec, &ctx);
        if dispatch.was_speculative {
            let idle = self.now.saturating_since(dispatch.warm_at);
            self.policies.scaler.on_cold_outcome(func, Some(idle), &ctx);
        }
    }

    /// Provisions a container for `func`, or defers it when no worker
    /// can make room. `attempt` is the retry attempt carried through
    /// fault-injected failures (0 for first tries).
    fn request_provision(
        &mut self,
        func: FunctionId,
        speculative: bool,
        attempt: u32,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        if !self.place(func, speculative, attempt, out) {
            self.defer(func, speculative, attempt);
        }
    }

    /// Provisions a container for `func` on the worker placement picks,
    /// evicting idle containers there if necessary. Returns whether it
    /// placed one: `false` when no worker can make room. This is the
    /// one `pick_worker` call, so a stateful placement (`RoundRobin`'s
    /// cursor) moves once per placement.
    fn place(
        &mut self,
        func: FunctionId,
        speculative: bool,
        attempt: u32,
        out: &mut impl FnMut(TimePoint, Event),
    ) -> bool {
        let mem = self.cluster.profile(func).mem_mb;
        let Some(worker) = self.cluster.pick_worker(mem) else {
            return false;
        };
        let mem = u64::from(mem);
        // REPLACE (Algorithm 2): evict the lowest-priority idle containers
        // on the chosen worker until the new container fits. Priorities
        // are computed once per replacement (the paper's lazily resorted
        // priority queue), not once per victim.
        let mut evicted = std::mem::take(&mut self.evicted);
        evicted.clear();
        if self.free_mb(worker) < mem {
            // Victim-selection provenance: snapshot every candidate and
            // its priority before popping. Computed fresh only when
            // recording (`priority` is `&self` and side-effect-free),
            // and sorted in the eviction order all scan modes follow,
            // so the record is identical across engines and scan modes.
            if self.rec.enabled() {
                let candidates =
                    crate::reference::sorted_eviction_candidates(self.candidates(worker).collect())
                        .into_iter()
                        .map(|(p, cid)| (cid.0, p))
                        .collect();
                self.rec.record(ObsEvent::EvictCandidates {
                    at: self.now,
                    worker: worker.0,
                    incoming: func,
                    candidates,
                });
            }
            // Two victim sources, one eviction order: a per-round
            // `RoundHeap` (O(n) + O(victims log n)) from the worker's
            // idle list, whose entries are the frozen `ContainerInfo`s
            // the priority reads, or, under the reference scan, a full
            // sort from the container table. Under
            // `PriorityDeps::Function` the heap reads one priority per
            // function; the reference round and the provenance record
            // still evaluate every candidate, so the oracle checks the
            // declaration.
            let mut round = match self.cluster.scan() {
                ScanMode::Indexed => {
                    let mut heap = std::mem::take(&mut self.round_heap);
                    let ctx = self.cluster.policy_ctx(self.now);
                    let ka = &self.policies.keepalive;
                    let idle = self.cluster.workers()[usize::from(worker.0)].idle();
                    let candidates = idle.iter().filter(|c| c.local_queue_len == 0);
                    if self.per_function {
                        self.rounds += 1;
                        let (round, memo, cluster) =
                            (self.rounds, &mut self.fn_priority, &self.cluster);
                        heap.refill(candidates.map(|c| {
                            let slot = cluster.slot(c.func).expect("deployed function");
                            let (stamp, priority) = &mut memo[slot];
                            if *stamp != round {
                                (*stamp, *priority) = (round, ka.priority(c, &ctx));
                            }
                            (*priority, c.id)
                        }));
                    } else {
                        heap.refill(candidates.map(|c| (ka.priority(c, &ctx), c.id)));
                    }
                    RoundVictims::Heap(heap)
                }
                ScanMode::Reference => RoundVictims::Sorted(
                    crate::reference::sorted_eviction_candidates(self.candidates(worker).collect())
                        .into_iter(),
                ),
            };
            while self.free_mb(worker) < mem {
                let victim = match &mut round {
                    RoundVictims::Heap(heap) => heap.pop(),
                    RoundVictims::Sorted(sorted) => sorted.next(),
                };
                // Raced with our own accounting: pick_worker said this
                // fits, so there must be victims. Defensive fallback:
                // nothing is placed below.
                let Some((_, victim)) = victim else { break };
                evicted.push(self.evict_container(victim, EvictReason::Replace));
            }
            if let RoundVictims::Heap(heap) = round {
                self.round_heap = heap;
            }
        }
        let placed = self.free_mb(worker) >= mem;
        if placed {
            self.finish_admission(func, worker, speculative, &evicted, attempt, out);
        }
        self.evicted = evicted;
        placed
    }

    fn free_mb(&self, worker: WorkerId) -> u64 {
        self.cluster.workers()[usize::from(worker.0)].free_mb()
    }

    /// Queues a provision no worker can host right now; `retry_deferred`
    /// re-issues it as memory frees.
    fn defer(&mut self, func: FunctionId, speculative: bool, attempt: u32) {
        obs!(
            self.rec,
            ObsEvent::Defer {
                at: self.now,
                func,
                speculative,
            }
        );
        self.deferred.push_back((func, speculative, attempt));
        self.cluster.fn_runtime_mut(func).unplaced += 1;
    }

    /// Fresh `(priority, id)` of every eviction candidate on `worker`:
    /// fully idle containers with an empty local queue, each read from
    /// the container table rather than from its idle-list snapshot, so
    /// the reference round and the provenance record check the indexed
    /// round independently. `priority` is `&self` and side-effect-free,
    /// so taking this snapshot cannot perturb the run. Yielded in no
    /// particular order: every caller orders by `(priority, id)`.
    fn candidates(&self, worker: WorkerId) -> impl Iterator<Item = (f64, ContainerId)> + '_ {
        let ctx = self.cluster.policy_ctx(self.now);
        let ka = &self.policies.keepalive;
        let idle = self.cluster.workers()[usize::from(worker.0)].idle();
        let ids = idle.iter().map(|snapshot| snapshot.id);
        ids.filter_map(move |cid| {
            let c = self.cluster.container(cid)?;
            c.local_queue
                .is_empty()
                .then(|| (ka.priority(&ContainerInfo::from(c), &ctx), cid))
        })
    }

    /// Charges memory, registers the container, and fires admission
    /// hooks after room has been made on `worker`.
    fn finish_admission(
        &mut self,
        func: FunctionId,
        worker: WorkerId,
        speculative: bool,
        evicted: &[ContainerInfo],
        attempt: u32,
        out: &mut impl FnMut(TimePoint, Event),
    ) {
        if !evicted.is_empty() {
            self.cluster.note_replace_round();
        }
        let cid = self
            .cluster
            .begin_provision(func, worker, self.now, speculative);
        obs!(
            self.rec,
            ObsEvent::ProvisionBegin {
                at: self.now,
                cid: cid.0,
                func,
                worker: worker.0,
                speculative,
                attempt,
            }
        );
        let cinfo = self
            .cluster
            .container(cid)
            .map(ContainerInfo::from)
            .expect("just created");
        let mut cold = {
            let ctx = self.cluster.policy_ctx(self.now);
            self.policies.keepalive.on_admit(&cinfo, evicted, &ctx);
            self.policies
                .keepalive
                .provision_latency(func, &ctx)
                .unwrap_or_else(|| self.cluster.profile(func).cold_start)
        };
        if self.faults.provision_fails() {
            // The failure surfaces only after the full provisioning
            // latency was spent — like a real timed-out cold start.
            out(self.now + cold, Event::ProvisionFailed(cid, attempt));
            return;
        }
        let factor = self.faults.straggler_factor();
        if factor > 1.0 {
            cold = cold.scale(factor);
        }
        out(self.now + cold, Event::ProvisionDone(cid));
    }

    /// Evicts one idle container, firing policy hooks.
    fn evict_container(&mut self, cid: ContainerId, reason: EvictReason) -> ContainerInfo {
        let was_unused = self
            .cluster
            .container(cid)
            .map(|c| c.speculative_unused)
            .unwrap_or(false);
        let info = self.cluster.evict(cid, self.now);
        // Provenance note reflects the keep-alive state that drove the
        // choice, so it is taken before `on_evict` mutates it.
        obs!(
            self.rec,
            ObsEvent::Evict {
                at: self.now,
                cid: cid.0,
                func: info.func,
                worker: info.worker.0,
                reason,
                note: self.policies.keepalive.explain(),
            }
        );
        let ctx = self.cluster.policy_ctx(self.now);
        self.policies.keepalive.on_evict(&info, &ctx);
        if was_unused {
            // A speculative cold start died without serving anyone: the
            // strongest "that cold start was wasted" signal for CSS.
            self.policies.scaler.on_cold_outcome(info.func, None, &ctx);
        }
        info
    }

    /// The one rule that serves `func`'s channel. Each flexible waiter
    /// takes a free thread while one exists, as a delayed warm start.
    /// Then non-speculative provisions start until the function's chains
    /// (provisioning containers, and chains without a container) cover
    /// what is left: every cold-only waiter, which only a `ProvisionDone`
    /// serves, and one chain for flexible waiters that have no warm
    /// container to free a thread. A waiter with neither would wait for
    /// nothing (the "replay is stuck" assert of `run_on_clock`). Returns
    /// whether a waiter took a free thread.
    fn serve_backlog(&mut self, func: FunctionId, out: &mut impl FnMut(TimePoint, Event)) -> bool {
        let mut served = false;
        while self.cluster.fn_runtime(func).is_some_and(has_flexible) {
            let Some(cid) = self.cluster.pick_available(func) else {
                break;
            };
            let rid = self.cluster.fn_runtime_mut(func).pending.pop_flexible();
            let rid = rid.expect("a flexible waiter, checked above");
            self.start_exec(cid, rid, StartClass::DelayedWarm, out);
            served = true;
        }
        let Some(rt) = self.cluster.fn_runtime(func) else {
            return served;
        };
        let stranded = has_flexible(rt) && rt.warm.is_empty();
        let needed = rt.pending.cold_only_len().max(usize::from(stranded));
        let chains = (rt.provisioning + rt.unplaced) as usize;
        for _ in chains..needed {
            self.request_provision(func, false, 0, out);
        }
        served
    }

    /// Retries deferred provisions after memory was freed or became
    /// evictable. The queue is FIFO with head blocking: placements are
    /// issued in order until the head no longer fits, which keeps the
    /// retry cost amortised O(1) per successful placement instead of
    /// rescanning the whole backlog on every event.
    ///
    /// A provision is deferred only when no alive worker's free plus
    /// idle memory fits it, and every event that raises that sum — a
    /// container turning fully idle, a failed provision — calls this.
    /// A tick expiry only turns idle memory into free, so no driver has
    /// a retry of its own to make.
    fn retry_deferred(&mut self, out: &mut impl FnMut(TimePoint, Event)) {
        while let Some(&(func, speculative, attempt)) = self.deferred.front() {
            if !self.place(func, speculative, attempt, out) {
                break;
            }
            self.deferred.pop_front();
            self.cluster.fn_runtime_mut(func).unplaced -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PolicyCtx;
    use crate::fault::FaultPlan;
    use crate::policy::{AlwaysCold, KeepAlive, Scaler};
    use crate::request::RequestInfo;
    use crate::run;
    use faas_trace::{Invocation, Trace};

    /// LRU keep-alive used as the test harness policy.
    #[derive(Debug, Default)]
    struct TestLru;

    impl KeepAlive for TestLru {
        fn name(&self) -> &str {
            "test-lru"
        }
        fn priority(&self, c: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
            c.last_used.as_micros() as f64
        }
    }

    /// Scaler that always races (basic speculative scaling).
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

    /// Scaler that always waits for a busy container.
    #[derive(Debug, Default)]
    struct AlwaysWait;

    impl Scaler for AlwaysWait {
        fn name(&self) -> &str {
            "wait"
        }
        fn on_blocked(&mut self, _r: &RequestInfo, _c: &PolicyCtx<'_>) -> ScaleDecision {
            ScaleDecision::WaitWarm
        }
    }

    fn stack(scaler: Box<dyn Scaler + Send>) -> PolicyStack {
        PolicyStack::new(Box::new(TestLru), scaler)
    }

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

    fn cfg(mb: u64) -> SimConfig {
        SimConfig::default().workers_mb(vec![mb])
    }

    #[test]
    fn sequential_requests_warm_start() {
        // Req0 at 0 (cold, waits 100ms), req1 at 500ms reuses warm idle.
        let trace = one_fn_trace(&[0, 500], 50, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysCold)));
        assert_eq!(report.requests.len(), 2);
        let r0 = &report.requests[0];
        let r1 = &report.requests[1];
        assert_eq!(r0.class, StartClass::Cold);
        assert_eq!(r0.wait, TimeDelta::from_millis(100));
        assert_eq!(r1.class, StartClass::Warm);
        assert_eq!(r1.wait, TimeDelta::ZERO);
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn concurrent_requests_vanilla_double_cold() {
        let trace = one_fn_trace(&[0, 0], 50, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysCold)));
        assert_eq!(report.count(StartClass::Cold), 2);
        assert!(report
            .requests
            .iter()
            .all(|r| r.wait == TimeDelta::from_millis(100)));
        assert_eq!(report.containers_created, 2);
    }

    #[test]
    fn race_prefers_freed_busy_container_when_faster() {
        // Exec 50ms << cold 500ms: the second request should win the race
        // via the busy container freeing at t=550 (cold start at t=0 took
        // 500ms; first exec runs 500..550; second waits 0->550? No:
        // req1 arrives at t=0 too; req0 cold starts, runs 500..550.
        // req1 races: provision (done at 500) vs busy. Provision handles
        // req1 at t=500 as Cold -- both pending served FIFO by provisions.
        // Use arrivals 0 and 510 instead: req1 arrives while c0 busy
        // (500..560); race provision would finish at 1010; c0 frees at 560.
        let trace = one_fn_trace(&[0, 510], 60, 500, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysRace)));
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::DelayedWarm);
        assert_eq!(r1.wait, TimeDelta::from_millis(50)); // 560 - 510
                                                         // The raced container was still created and ends up unused.
        assert_eq!(report.containers_created, 2);
    }

    #[test]
    fn race_falls_back_to_cold_when_faster() {
        // Exec 10s >> cold 100ms: the raced provision wins.
        let trace = one_fn_trace(&[0, 10], 10_000, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysRace)));
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::Cold);
        assert_eq!(r1.wait, TimeDelta::from_millis(100));
    }

    #[test]
    fn wait_warm_escalates_without_containers() {
        // First-ever request with a WaitWarm scaler must still provision.
        let trace = one_fn_trace(&[0], 10, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysWait)));
        assert_eq!(report.requests[0].class, StartClass::Cold);
    }

    #[test]
    fn wait_warm_queues_on_busy() {
        let trace = one_fn_trace(&[0, 10, 20], 100, 50, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysWait)));
        // r0 cold (50ms), runs 50..150. r1 waits -> 150 (140ms wait).
        // r2 waits -> 250.
        assert_eq!(report.requests[1].class, StartClass::DelayedWarm);
        assert_eq!(report.requests[1].wait, TimeDelta::from_millis(140));
        assert_eq!(report.requests[2].class, StartClass::DelayedWarm);
        assert_eq!(report.requests[2].wait, TimeDelta::from_millis(230));
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn eviction_makes_room_for_new_function() {
        // Worker fits one 600 MB container; two functions alternate.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 600, TimeDelta::from_millis(100));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 600, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(10),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_millis(500),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
        assert_eq!(report.count(StartClass::Cold), 2);
        assert_eq!(report.containers_evicted, 1);
    }

    #[test]
    fn provision_defers_until_memory_frees() {
        // Worker fits one container; both requests concurrent: second
        // provision must wait for the first container to go idle & be
        // evicted... but an idle container can serve fn0 request directly.
        // Use two functions so reuse is impossible.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 600, TimeDelta::from_millis(100));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 600, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(300),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_millis(10),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
        // fn1's provision can only start once fn0's container idles at
        // t=400 (100 cold + 300 exec) and is evicted; provision done 500.
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::Cold);
        assert_eq!(r1.wait, TimeDelta::from_millis(490));
        assert_eq!(report.requests.len(), 2);
    }

    #[test]
    fn multithread_container_serves_concurrently() {
        let trace = one_fn_trace(&[0, 110], 1_000, 100, 128);
        let config = cfg(1024).container_threads(2);
        let report = run(&trace, &config, stack(Box::new(AlwaysCold)));
        // r0 cold; container warm at 100 with 2 threads; r1 at 110 takes
        // the free thread -> warm.
        assert_eq!(report.requests[1].class, StartClass::Warm);
        assert_eq!(report.requests[1].wait, TimeDelta::ZERO);
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn all_requests_complete_and_classified() {
        let trace = one_fn_trace(&[0, 1, 2, 3, 4, 100, 200, 1000], 20, 50, 128);
        let report = run(&trace, &cfg(512), stack(Box::new(AlwaysRace)));
        assert_eq!(report.requests.len(), 8);
        let sum = report.count(StartClass::Warm)
            + report.count(StartClass::Cold)
            + report.count(StartClass::DelayedWarm);
        assert_eq!(sum, 8);
    }

    #[test]
    fn wasted_cold_start_counted() {
        // Race triggers a provision, busy container wins, extra container
        // idles unused; force its eviction via a third function's demand.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 400, TimeDelta::from_millis(500));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 400, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(510),
                exec: TimeDelta::from_millis(50),
            },
            // fn1 demand evicts the unused speculative container.
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_secs(5),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        // 1000 MB: fn0 warm (400) + speculative fn0 (400) = 800; fn1 needs
        // 400 -> evicts one fn0 container (LRU = the unused one, which has
        // the older last_used timestamp... the unused one's last_used is
        // its creation time 510 < reused one's 560). Victim = speculative.
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysRace)));
        assert_eq!(report.wasted_cold_starts, 1);
    }

    #[test]
    fn deterministic_runs() {
        let trace = faas_trace::gen::fc(3).functions(10).minutes(1).build();
        let a = run(&trace, &cfg(2048), stack(Box::new(AlwaysRace)));
        let b = run(&trace, &cfg(2048), stack(Box::new(AlwaysRace)));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.containers_created, b.containers_created);
    }

    #[test]
    #[should_panic(expected = "request conservation violated")]
    fn lost_request_detected() {
        let trace = one_fn_trace(&[0], 10, 10, 128);
        let mut core = Orchestrator::new(
            trace.functions().iter().cloned(),
            &cfg(1000),
            stack(Box::new(AlwaysCold)),
            faas_obs::NoopRecorder,
        );
        // An arrival that nothing started or queued.
        core.arrived = 1;
        core.check_invariants();
    }

    #[test]
    #[should_panic(expected = "exceeds the largest worker")]
    fn oversized_function_rejected() {
        let trace = one_fn_trace(&[0], 10, 10, 4096);
        let _ = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
    }

    // Each setting below would keep every driver spinning forever.

    #[test]
    #[should_panic(expected = "SimConfig::tick must be positive")]
    fn zero_tick_rejected() {
        let trace = one_fn_trace(&[0], 10, 10, 128);
        let config = cfg(1000).tick(TimeDelta::ZERO);
        let _ = run(&trace, &config, stack(Box::new(AlwaysCold)));
    }

    #[test]
    #[should_panic(expected = "provision_fail_p must be in [0, 1), got 1")]
    fn certain_provision_failure_rejected_past_the_builder() {
        let trace = one_fn_trace(&[0], 10, 10, 128);
        let plan = FaultPlan {
            provision_fail_p: 1.0,
            ..FaultPlan::none()
        };
        let _ = run(&trace, &cfg(1000).faults(plan), stack(Box::new(AlwaysCold)));
    }
}
