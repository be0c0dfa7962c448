//! The sharded parallel simulation engine (DESIGN.md §9).
//!
//! Functions are partitioned across `config.shards` worker threads.
//! Each shard owns a *mini* [`ClusterState`] holding only its
//! functions' profiles and containers (the workers are mirrored: a
//! mini's per-worker counters track only the shard's own memory and
//! idle contributions, so any global figure is a sum over minis).
//! Shards run their own event loops over the purely function-local
//! events — warm-hit arrivals and quiet execution completions — and
//! *escalate* everything with a possible cross-shard effect to the
//! sequential **conductor**: blocked arrivals (scaling decisions,
//! provisioning, eviction), completions that could unblock a deferred
//! provision, provisioning lifecycle events, policy ticks, and worker
//! crashes.
//!
//! # Determinism
//!
//! Every event carries a lineage key ([`EvKey`]) that totally orders
//! the event population exactly as the sequential engine's
//! `(time, push-sequence)` heap does, without a shared push counter:
//! root events (trace arrivals, the tick chain, scheduled crashes) are
//! ranked in their initial push order, and a child pushed `j`-th by an
//! event with path `p` processed at time `t` gets path
//! `[Time(t)] ++ p ++ [Idx(j)]`. Comparing `(time, path)`
//! lexicographically reproduces the sequential pop order: roots first
//! at equal times, then children by their parents' processing order,
//! then by push index. At every barrier the conductor *rebases* all
//! queued events back to fresh root ranks (assigned in key order from
//! a monotone counter), which keeps paths short and makes phases
//! independent of how deep the lineage grew.
//!
//! # Conservative phases with rollback
//!
//! A phase optimistically runs every shard in parallel up to a bound
//! (the conductor's next event, capped by an adaptive time window).
//! Shards park at their first escalation; the conductor takes the
//! minimum escalation key `m`, rolls back any shard that overran `m`
//! (checkpoint restore + deterministic replay strictly below `m` —
//! replay can never escalate below `m`, asserted), then merges all
//! shard-local effect logs in key order. Merged replay applies record
//! appends and policy hooks in the exact sequential order; shard-local
//! hooks run against recorded [`HookSnapshot`] scalars (see the
//! shard-safety rules in DESIGN.md §9). Finally the conductor executes
//! the escalated event itself with full sequential semantics against
//! the merged cross-shard view.
//!
//! The result is byte-identical to the sequential engine for every
//! shard count — `tests/equivalence.rs` proves it against both
//! sequential scan modes, and `tests/determinism.rs` pins it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};

use faas_core::RoundHeap;
use faas_metrics::TimeSeries;
use faas_obs::{EvictReason, NoopRecorder, ObsEvent, Recorder, RingRecorder, TraceLog};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint, Trace};

use crate::cluster::{ClusterState, PolicyCtx};
use crate::config::{Placement, ScanMode, SimConfig};
use crate::container::{Container, ContainerInfo};
use crate::fault::FaultState;
use crate::ids::{ContainerId, RequestId, WorkerId};
use crate::ledger::CostLedger;
use crate::policy::{PolicyStack, ScaleDecision, StartClass};
use crate::report::{RequestRecord, SimReport};
use crate::request::RequestInfo;

/// One element of an event's lineage path. The declaration order is
/// load-bearing for the derived `Ord`: at equal times, root events
/// (`Root`, smallest) sort before freshly pushed children (`Time`
/// prefix), matching the sequential heap where roots were pushed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PathElem {
    /// A root event: rank in initial (or rebased) push order.
    Root(u64),
    /// Prefix element: the time the parent event was processed.
    Time(TimePoint),
    /// Suffix element: the push index among the parent's children.
    Idx(u32),
}

/// Deterministic event ordering key: scheduled time, then lineage path.
///
/// Reproduces the sequential engine's `(time, push-seq)` order without
/// a global counter (see the module docs for the construction).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EvKey {
    time: TimePoint,
    path: Vec<PathElem>,
}

impl EvKey {
    fn root(time: TimePoint, rank: u64) -> Self {
        Self {
            time,
            path: vec![PathElem::Root(rank)],
        }
    }

    /// A synthetic window-cut bound: the empty path sorts before every
    /// real event at the same time, so `key < cut` ⇔ `key.time < time`.
    fn cut(time: TimePoint) -> Self {
        Self {
            time,
            path: Vec::new(),
        }
    }

    /// Key of the `j`-th child pushed by the event with this key, to
    /// fire at `at`. The parent is processed at its scheduled time, so
    /// the `Time` prefix is `self.time`.
    fn child(&self, j: u32, at: TimePoint) -> EvKey {
        let mut path = Vec::with_capacity(self.path.len() + 2);
        path.push(PathElem::Time(self.time));
        path.extend(self.path.iter().copied());
        path.push(PathElem::Idx(j));
        EvKey { time: at, path }
    }
}

/// Shard-local events. Everything else lives on the conductor heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SEvent {
    /// Execution completes on a shard-owned container.
    ExecDone(ContainerId, RequestId),
}

/// Conductor events (cross-shard effects).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum CEvent {
    Tick,
    ProvisionDone(ContainerId),
    ProvisionFailed(ContainerId),
    RetryProvision(FunctionId, u32, bool),
    WorkerDown(WorkerId),
}

/// Per-function scalars a policy hook may read from a shard-local
/// context (the shard-safety whitelist of DESIGN.md §9).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HookScalars {
    pub(crate) warm_count: u32,
    pub(crate) provisioning_count: u32,
    pub(crate) pending_len: usize,
    pub(crate) invocations: u64,
    pub(crate) freq_per_minute: f64,
}

/// Scalars of the hooked function, recorded by a shard at hook time and
/// replayed by the conductor at the next barrier.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HookSnapshot {
    func: FunctionId,
    scalars: HookScalars,
}

impl HookSnapshot {
    /// The recorded scalars. Panics if a hook asks about a function
    /// other than the one it was invoked for — cross-function state is
    /// not available shard-locally (DESIGN.md §9).
    pub(crate) fn scalars(&self, func: FunctionId) -> &HookScalars {
        assert_eq!(
            func, self.func,
            "policy hook read another function's stats from a shard-local \
             hook; only the hooked function's scalars are recorded — see \
             DESIGN.md §9 shard-safety rules"
        );
        &self.scalars
    }
}

/// A start effect recorded by a shard, applied by the conductor at the
/// next barrier in merged key order.
#[derive(Debug, Clone)]
struct StartEffect {
    key: EvKey,
    cid: ContainerId,
    rid: RequestId,
    class: StartClass,
    record: RequestRecord,
    cinfo: ContainerInfo,
    now: TimePoint,
    /// `Some(idle)` when this start consumed a speculative container:
    /// replays `on_cold_outcome(func, Some(idle))`.
    spec_idle: Option<TimeDelta>,
    snap: HookSnapshot,
}

/// One shard-local effect, keyed for the deterministic barrier merge.
#[derive(Debug, Clone)]
enum LogEntry {
    /// An execution completed (`ExecDone` bookkeeping).
    Complete {
        key: EvKey,
        cid: ContainerId,
        rid: RequestId,
        end: TimePoint,
    },
    /// A request started executing (record + policy hooks). Boxed: the
    /// payload dwarfs `Complete` and the log is append-heavy.
    Start(Box<StartEffect>),
}

impl LogEntry {
    /// Merge order: event key, then `Complete` before `Start` (the
    /// sequential `ExecDone` handler finishes its bookkeeping before a
    /// delayed-warm start pushes the next record).
    fn sort_key(&self) -> (&EvKey, u8) {
        match self {
            LogEntry::Complete { key, .. } => (key, 0),
            LogEntry::Start(s) => (&s.key, 1),
        }
    }
}

/// Rollback checkpoint of a shard's mutable frontier state.
#[derive(Debug)]
struct Checkpoint {
    mini: ClusterState,
    heap: BinaryHeap<Reverse<(EvKey, SEvent)>>,
    busy_until: HashMap<ContainerId, Vec<TimePoint>>,
    cursor: usize,
}

/// One simulation shard: a mini cluster for its functions, its event
/// heap, and the arrival stream cursor.
#[derive(Debug)]
pub(crate) struct ShardCore {
    mini: ClusterState,
    heap: BinaryHeap<Reverse<(EvKey, SEvent)>>,
    busy_until: HashMap<ContainerId, Vec<TimePoint>>,
    /// This shard's arrivals, sorted by `(time, rid)` — exactly the
    /// root-key order — consumed through `cursor` instead of living in
    /// the heap.
    arrivals: Vec<(TimePoint, RequestId)>,
    cursor: usize,
    /// Effects since the last barrier, merged and drained at sync.
    logs: Vec<LogEntry>,
    /// Key of the last event processed in the current phase run (for
    /// the conductor's overrun test).
    last_done: Option<EvKey>,
    /// Whether the conductor's deferred-provision queue is non-empty
    /// this phase (constant between barriers): an execution completion
    /// that idles a container might then unblock it, so it escalates.
    deferred_nonempty: bool,
    ckpt: Option<Checkpoint>,
}

impl ShardCore {
    /// Key of this shard's next event (heap head or arrival cursor).
    fn next_key(&self) -> Option<EvKey> {
        let arr = self
            .arrivals
            .get(self.cursor)
            .map(|&(t, rid)| EvKey::root(t, rid.0));
        let heap = self.heap.peek().map(|Reverse((k, _))| k.clone());
        match (arr, heap) {
            (None, h) => h,
            (a, None) => a,
            (Some(a), Some(h)) => Some(if a < h { a } else { h }),
        }
    }

    fn save_checkpoint(&mut self) {
        self.ckpt = Some(Checkpoint {
            mini: self.mini.clone(),
            heap: self.heap.clone(),
            busy_until: self.busy_until.clone(),
            cursor: self.cursor,
        });
    }

    fn restore_checkpoint(&mut self) {
        let c = self.ckpt.take().expect("rollback without checkpoint");
        self.mini = c.mini;
        self.heap = c.heap;
        self.busy_until = c.busy_until;
        self.cursor = c.cursor;
        self.logs.clear();
    }

    /// Runs shard-local events with keys strictly below `bound` (no
    /// bound when `None`). Returns the key of the first escalation —
    /// the event is left unprocessed (parked) — or `None` when the
    /// shard drained everything below the bound.
    fn run_until(&mut self, bound: Option<&EvKey>, trace: &Trace) -> Option<EvKey> {
        self.last_done = None;
        loop {
            let arr_key = self
                .arrivals
                .get(self.cursor)
                .map(|&(t, rid)| EvKey::root(t, rid.0));
            let heap_key = self.heap.peek().map(|Reverse((k, _))| k);
            let (is_arrival, key) = match (arr_key, heap_key) {
                (None, None) => return None,
                (Some(a), None) => (true, a),
                (None, Some(h)) => (false, h.clone()),
                (Some(a), Some(h)) => {
                    if a < *h {
                        (true, a)
                    } else {
                        (false, h.clone())
                    }
                }
            };
            if let Some(b) = bound {
                if key >= *b {
                    return None;
                }
            }
            if is_arrival {
                let (t, rid) = self.arrivals[self.cursor];
                let func = trace.invocations()[rid.0 as usize].func;
                // Escalation pre-check: a blocked arrival needs the
                // scaler and possibly cross-shard provisioning. The
                // pick is independent of the arrival stats, so checking
                // before `note_arrival` mutates nothing — the conductor
                // re-runs the full handler from scratch.
                let Some(cid) = self.mini.pick_available(func) else {
                    return Some(key);
                };
                self.cursor += 1;
                self.mini.note_arrival(func, t);
                self.start_local(cid, rid, StartClass::Warm, &key, t, trace);
            } else {
                let Reverse((_, SEvent::ExecDone(cid, rid))) =
                    *self.heap.peek().expect("peeked above");
                let Some(c) = self.mini.container(cid) else {
                    // Stale completion: the container's worker crashed
                    // and the request was re-queued (a pure no-op, as
                    // in the sequential engine).
                    self.heap.pop();
                    self.last_done = Some(key);
                    continue;
                };
                let func = c.func;
                // Escalate when the freed thread idles the container
                // with nothing queued to serve: the grown reclaimable
                // memory may unblock a deferred provision (the only
                // cross-shard effect a completion can have).
                let reaches_idle = c.local_queue.is_empty()
                    && self
                        .mini
                        .fn_runtime(func)
                        .map(|rt| rt.pending.flexible_len() == 0)
                        .unwrap_or(true);
                if self.deferred_nonempty && reaches_idle && c.threads_in_use == 1 {
                    return Some(key);
                }
                self.heap.pop();
                let end = key.time;
                self.logs.push(LogEntry::Complete {
                    key: key.clone(),
                    cid,
                    rid,
                    end,
                });
                self.mini.note_completion(func);
                remove_busy(&mut self.busy_until, cid, end);
                self.mini.release_thread(cid, end);
                if let Some(next) = self.mini.dequeue_local(cid) {
                    self.start_local(cid, next, StartClass::DelayedWarm, &key, end, trace);
                } else if let Some(next) = self.mini.fn_runtime_mut(func).pending.pop_flexible() {
                    self.start_local(cid, next, StartClass::DelayedWarm, &key, end, trace);
                }
            }
            self.last_done = Some(key);
        }
    }

    /// Shard-local mirror of the sequential `start_exec`: occupies the
    /// thread, schedules the completion as this event's only child
    /// (`j = 0`), and records the start effect for barrier replay.
    fn start_local(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
        class: StartClass,
        parent: &EvKey,
        now: TimePoint,
        trace: &Trace,
    ) {
        let (was_speculative, warm_at) = {
            let c = self.mini.container(cid).expect("live container");
            (c.speculative_unused, c.warm_at)
        };
        self.mini.occupy_thread(cid, now);
        let inv = &trace.invocations()[rid.0 as usize];
        let (func, arrival, exec) = (inv.func, inv.arrival, inv.exec);
        let wait = now.saturating_since(arrival);
        let end = now + exec;
        self.busy_until.entry(cid).or_default().push(end);
        self.heap
            .push(Reverse((parent.child(0, end), SEvent::ExecDone(cid, rid))));
        let cinfo = self
            .mini
            .container(cid)
            .map(ContainerInfo::from)
            .expect("live container");
        let rt = self.mini.fn_runtime(func).expect("noted arrival");
        let snap = HookSnapshot {
            func,
            scalars: HookScalars {
                warm_count: self.mini.warm_count(func),
                provisioning_count: rt.provisioning.len() as u32,
                pending_len: rt.pending.len(),
                invocations: rt.stats.invocations,
                freq_per_minute: self.mini.freq_per_minute(func, now),
            },
        };
        self.logs.push(LogEntry::Start(Box::new(StartEffect {
            key: parent.clone(),
            cid,
            rid,
            class,
            record: RequestRecord {
                func,
                arrival,
                wait,
                exec,
                class,
            },
            cinfo,
            now,
            spec_idle: was_speculative.then(|| now.saturating_since(warm_at)),
            snap,
        })));
    }
}

/// Removes one completion time from a container's busy list (mirror of
/// the sequential engine's `busy_until` maintenance).
fn remove_busy(
    busy_until: &mut HashMap<ContainerId, Vec<TimePoint>>,
    cid: ContainerId,
    end: TimePoint,
) {
    if let Some(ends) = busy_until.get_mut(&cid) {
        if let Some(pos) = ends.iter().position(|&t| t == end) {
            ends.swap_remove(pos);
        }
        if ends.is_empty() {
            busy_until.remove(&cid);
        }
    }
}

/// Read-only cross-shard view the conductor hands to policies: every
/// accessor answers exactly as the sequential cluster would, by
/// routing per-function queries to the owning shard's mini cluster and
/// summing per-worker figures across minis.
#[derive(Debug)]
pub(crate) struct MergedView<'a> {
    shards: &'a [ShardCore],
    fn_shard: &'a HashMap<FunctionId, usize>,
    function_ids: &'a [FunctionId],
}

impl<'a> MergedView<'a> {
    /// The mini cluster owning `func`.
    pub(crate) fn cluster_of(&self, func: FunctionId) -> &'a ClusterState {
        let si = *self.fn_shard.get(&func).expect("unknown function profile");
        &self.shards[si].mini
    }

    pub(crate) fn profile(&self, func: FunctionId) -> &'a FunctionProfile {
        self.cluster_of(func).profile(func)
    }

    pub(crate) fn container(&self, id: ContainerId) -> Option<&'a Container> {
        self.shards.iter().find_map(|s| s.mini.container(id))
    }

    pub(crate) fn busy_until(&self, id: ContainerId) -> Option<&'a Vec<TimePoint>> {
        self.shards.iter().find_map(|s| s.busy_until.get(&id))
    }

    pub(crate) fn oracle_earliest_free(&self, func: FunctionId) -> Option<TimePoint> {
        let si = *self.fn_shard.get(&func)?;
        let shard = &self.shards[si];
        shard.mini.oracle_earliest_free(func, &shard.busy_until)
    }

    /// Every live container across all shards, merged in id order (the
    /// same order the sequential cluster's id-keyed map iterates).
    pub(crate) fn all_iter(&self) -> impl Iterator<Item = &'a Container> + '_ {
        faas_core::kmerge_by_key(
            self.shards.iter().map(|s| s.mini.all_iter()).collect(),
            |c| c.id,
        )
    }

    pub(crate) fn functions(&self) -> &'a [FunctionId] {
        self.function_ids
    }

    pub(crate) fn used_mb(&self) -> u64 {
        self.shards.iter().map(|s| s.mini.used_mb()).sum()
    }

    pub(crate) fn capacity_mb(&self) -> u64 {
        self.shards[0].mini.capacity_mb()
    }
}

/// Where a phase's bound came from, deciding the conductor op after
/// the barrier.
#[derive(Debug, Clone, PartialEq)]
enum PhaseEnd {
    /// A shard escalated: run that shard's parked event.
    Escalated(usize),
    /// The conductor's own next event bounded the phase: pop and run it.
    Conductor,
    /// The adaptive window bounded the phase: no event, just advance.
    WindowCut,
    /// Everything drained.
    Drained,
}

/// The sharded engine's sequential conductor.
struct ShardedSim<'a, R: Recorder> {
    trace: &'a Trace,
    config: &'a SimConfig,
    policies: PolicyStack,
    shards: Vec<ShardCore>,
    fn_shard: HashMap<FunctionId, usize>,
    function_ids: Vec<FunctionId>,
    cond: BinaryHeap<Reverse<(EvKey, CEvent)>>,
    deferred: VecDeque<(FunctionId, bool, u32)>,
    /// Worker liveness (the conductor's authority; minis mirror it).
    alive: Vec<bool>,
    round_robin_next: usize,
    /// Global container-id allocator: minis are aligned to it before
    /// every provision so ids match the sequential allocation order.
    next_container: u64,
    /// Monotone root-rank allocator for rebasing (starts above every
    /// initial root rank, so arrivals keep sorting first at equal
    /// times).
    rank: u64,
    now: TimePoint,
    /// Key of the conductor op being executed (children derive from it).
    cur_key: EvKey,
    child_seq: u32,
    incomplete: u64,
    records: Vec<RequestRecord>,
    memory: TimeSeries,
    finished_at: TimePoint,
    faults: FaultState,
    fault_active: bool,
    attempts: HashMap<ContainerId, u32>,
    /// Outstanding `RetryProvision` events per function (fault runs
    /// only), mirroring the sequential engine's counter exactly so
    /// `repair_cold_only` fires on the same events.
    retrying: HashMap<FunctionId, u32>,
    running: BTreeMap<ContainerId, Vec<(RequestId, usize)>>,
    arrived: u64,
    /// Adaptive phase window: how far past the next shard event a
    /// parallel phase may optimistically run.
    window: TimeDelta,
    jobs: usize,
    /// Structured trace sink (DESIGN.md §12). Events are only emitted
    /// in conductor context — directly by conductor ops, or at `sync`
    /// when committed shard effects replay in merged key order — so
    /// the stream is byte-identical to the sequential engine's.
    rec: R,
}

/// Floor / ceiling of the adaptive phase window.
const WINDOW_MIN: TimeDelta = TimeDelta::from_millis(1);
const WINDOW_MAX: TimeDelta = TimeDelta::from_secs(60);

/// Entry point: runs `trace` sharded across `config.shards` threads.
/// Byte-identical to [`crate::run`] with `shards: 1`.
pub(crate) fn run_sharded(trace: &Trace, config: &SimConfig, policies: PolicyStack) -> SimReport {
    run_sharded_with(trace, config, policies, NoopRecorder).0
}

/// Traced entry point: same simulation, with every provenance event
/// recorded. Emission happens only in conductor context (conductor ops
/// and the `sync` merge), so the stream is byte-identical to the
/// sequential engine's at any shard count (DESIGN.md §12).
pub(crate) fn run_sharded_traced(
    trace: &Trace,
    config: &SimConfig,
    policies: PolicyStack,
) -> (SimReport, TraceLog) {
    let (report, rec) = run_sharded_with(trace, config, policies, RingRecorder::unbounded());
    (report, rec.into_log())
}

fn run_sharded_with<R: Recorder>(
    trace: &Trace,
    config: &SimConfig,
    policies: PolicyStack,
    rec: R,
) -> (SimReport, R) {
    let max_worker = config.workers_mb.iter().copied().max().unwrap_or(0);
    for f in trace.functions() {
        assert!(
            u64::from(f.mem_mb) <= max_worker,
            "function {} ({} MB) exceeds the largest worker ({} MB)",
            f.id,
            f.mem_mb,
            max_worker
        );
    }
    let nshards = config.shards.max(2);
    // lint:allow(O1): the ids are sorted immediately below.
    let mut function_ids: Vec<FunctionId> = trace.functions().iter().map(|f| f.id).collect();
    function_ids.sort_unstable();
    let fn_shard: HashMap<FunctionId, usize> = function_ids
        .iter()
        .enumerate()
        .map(|(i, f)| (*f, i % nshards))
        .collect();
    let shards: Vec<ShardCore> = (0..nshards)
        .map(|si| {
            let profiles: Vec<FunctionProfile> = trace
                .functions()
                .iter()
                .filter(|f| fn_shard[&f.id] == si)
                .cloned()
                .collect();
            let mut mini = ClusterState::with_placement(
                &config.workers_mb,
                profiles,
                config.threads,
                config.placement,
            );
            mini.set_scan(config.scan);
            let mut arrivals: Vec<(TimePoint, RequestId)> = trace
                .invocations()
                .iter()
                .enumerate()
                .filter(|(_, inv)| fn_shard[&inv.func] == si)
                .map(|(i, inv)| (inv.arrival, RequestId(i as u64)))
                .collect();
            arrivals.sort_unstable_by_key(|&(t, rid)| (t, rid));
            ShardCore {
                mini,
                heap: BinaryHeap::new(),
                busy_until: HashMap::new(),
                arrivals,
                cursor: 0,
                logs: Vec::new(),
                last_done: None,
                deferred_nonempty: false,
                ckpt: None,
            }
        })
        .collect();
    let n = trace.len() as u64;
    let mut cond = BinaryHeap::new();
    if !trace.is_empty() {
        cond.push(Reverse((
            EvKey::root(TimePoint::ZERO + config.tick, n),
            CEvent::Tick,
        )));
    }
    for (i, &(at, worker)) in config.faults.worker_crashes.iter().enumerate() {
        assert!(
            (worker.0 as usize) < config.workers_mb.len(),
            "fault plan crashes unknown worker {worker:?}"
        );
        cond.push(Reverse((
            EvKey::root(at, n + 1 + i as u64),
            CEvent::WorkerDown(worker),
        )));
    }
    let rank = n + 1 + config.faults.worker_crashes.len() as u64;
    let fault_active = !config.faults.is_none();
    ShardedSim {
        trace,
        config,
        policies,
        shards,
        fn_shard,
        function_ids,
        cond,
        deferred: VecDeque::new(),
        alive: vec![true; config.workers_mb.len()],
        round_robin_next: 0,
        next_container: 0,
        rank,
        now: TimePoint::ZERO,
        cur_key: EvKey::cut(TimePoint::ZERO),
        child_seq: 0,
        incomplete: n,
        records: Vec::new(),
        memory: TimeSeries::new(),
        finished_at: TimePoint::ZERO,
        faults: FaultState::new(config.faults.clone()),
        fault_active,
        attempts: HashMap::new(),
        retrying: HashMap::new(),
        running: BTreeMap::new(),
        arrived: 0,
        window: TimeDelta::from_millis(50),
        jobs: faas_testkit::default_jobs().min(nshards),
        rec,
    }
    .run()
}

impl<'a, R: Recorder> ShardedSim<'a, R> {
    fn run(mut self) -> (SimReport, R) {
        loop {
            let shard_min: Option<(EvKey, usize)> = self
                .shards
                .iter()
                .enumerate()
                .filter_map(|(i, s)| s.next_key().map(|k| (k, i)))
                .min();
            let cond_min: Option<EvKey> = self.cond.peek().map(|Reverse((k, _))| k.clone());
            match (shard_min, cond_min) {
                (None, None) => break,
                (shard, Some(c)) if shard.as_ref().is_none_or(|(k, _)| c < *k) => {
                    // Fast path: the conductor's own event is globally
                    // next — no shard can act below it, so no phase,
                    // no checkpoint, no barrier.
                    let Reverse((key, ev)) = self.cond.pop().expect("peeked above");
                    self.dispatch_conductor(key, ev);
                    self.debug_invariants();
                }
                (Some(_), cond) => self.phase(cond),
                (None, Some(_)) => unreachable!("guarded above"),
            }
        }
        assert_eq!(
            self.incomplete, 0,
            "simulation drained events with unserved requests"
        );
        // Settle every mini at the GLOBAL high-water mark — the max over
        // shards of the last charging mutation — which equals the single
        // cluster's high-water mark in the sequential engine, so tail
        // charges match byte-for-byte.
        let settle_at = self
            .shards
            .iter()
            .map(|s| s.mini.ledger_hwm())
            .max()
            .unwrap_or(TimePoint::ZERO);
        let mut ledger = CostLedger::default();
        for s in &mut self.shards {
            s.mini.settle_ledger_at(settle_at);
            ledger.merge(&s.mini.ledger);
        }
        let report = SimReport {
            requests: self.records,
            memory: self.memory,
            containers_created: self.shards.iter().map(|s| s.mini.containers_created).sum(),
            containers_evicted: self.shards.iter().map(|s| s.mini.containers_evicted).sum(),
            wasted_cold_starts: self.shards.iter().map(|s| s.mini.wasted_cold_starts).sum(),
            provision_failures: self.shards.iter().map(|s| s.mini.provision_failures).sum(),
            crash_evictions: self.shards.iter().map(|s| s.mini.crash_evictions).sum(),
            finished_at: self.finished_at,
            ledger,
            ledger_settled_at: settle_at,
        };
        (report, self.rec)
    }

    /// One parallel phase: run shards to a bound, resolve the earliest
    /// escalation, roll back overruns, merge effects, rebase, and
    /// execute the bounding conductor op.
    fn phase(&mut self, cond_min: Option<EvKey>) {
        let trace = self.trace;
        let dn = !self.deferred.is_empty();
        for s in &mut self.shards {
            s.deferred_nonempty = dn;
        }
        // Active = shards that could process at least one event before
        // the conductor's next op (ignoring the window).
        let keys: Vec<Option<EvKey>> = self.shards.iter().map(ShardCore::next_key).collect();
        let active: Vec<usize> = (0..self.shards.len())
            .filter(|&i| {
                keys[i]
                    .as_ref()
                    .is_some_and(|k| cond_min.as_ref().is_none_or(|c| k < c))
            })
            .collect();
        debug_assert!(!active.is_empty(), "phase entered with no shard work");
        let end = if active.len() == 1 {
            // Inline fast path: with one working shard there is nothing
            // to overrun, so no checkpoint, no window, no thread pool.
            let i = active[0];
            match self.shards[i].run_until(cond_min.as_ref(), trace) {
                Some(_) => PhaseEnd::Escalated(i),
                None if cond_min.is_some() => PhaseEnd::Conductor,
                None => PhaseEnd::Drained,
            }
        } else {
            let first = keys
                .iter()
                .flatten()
                .min()
                .expect("active shards have keys")
                .time;
            let cut = EvKey::cut(first + self.window);
            let bound = match &cond_min {
                Some(c) if *c < cut => c.clone(),
                _ => cut.clone(),
            };
            for &i in &active {
                self.shards[i].save_checkpoint();
            }
            let jobs = self.jobs;
            let parked: Vec<Option<EvKey>> =
                faas_testkit::par_map_mut(&mut self.shards, jobs, |_, core| {
                    core.run_until(Some(&bound), trace)
                });
            let m: Option<(EvKey, usize)> = parked
                .iter()
                .enumerate()
                .filter_map(|(i, p)| p.clone().map(|k| (k, i)))
                .min();
            let end = if let Some((m, mi)) = m {
                // Roll back shards that ran past the earliest
                // escalation and deterministically replay them below it.
                for s in &mut self.shards {
                    if s.last_done.as_ref().is_some_and(|k| *k > m) {
                        s.restore_checkpoint();
                        let replay = s.run_until(Some(&m), trace);
                        assert!(
                            replay.is_none(),
                            "deterministic replay escalated below the phase cut"
                        );
                    }
                }
                self.window = (self.window.scale(0.5)).max(WINDOW_MIN);
                PhaseEnd::Escalated(mi)
            } else if cond_min.is_some() && bound != cut {
                PhaseEnd::Conductor
            } else {
                self.window = (self.window.scale(2.0)).min(WINDOW_MAX);
                PhaseEnd::WindowCut
            };
            for &i in &active {
                self.shards[i].ckpt = None;
            }
            end
        };
        self.sync();
        self.rebase();
        match end {
            PhaseEnd::Escalated(i) => self.dispatch_shard_min(i),
            PhaseEnd::Conductor => {
                let Reverse((key, ev)) = self.cond.pop().expect("bound came from the heap");
                self.dispatch_conductor(key, ev);
            }
            PhaseEnd::WindowCut | PhaseEnd::Drained => {}
        }
        self.debug_invariants();
    }

    /// Applies every shard's logged effects in merged key order: the
    /// exact record/hook sequence the sequential engine produced.
    fn sync(&mut self) {
        let mut entries: Vec<LogEntry> = self
            .shards
            .iter_mut()
            .flat_map(|s| s.logs.drain(..))
            .collect();
        entries.sort_unstable_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        for e in entries {
            match e {
                LogEntry::Complete { cid, rid, end, .. } => {
                    self.finished_at = self.finished_at.max(end);
                    self.incomplete -= 1;
                    obs!(
                        self.rec,
                        ObsEvent::Finish {
                            at: end,
                            rid: rid.0,
                            cid: cid.0,
                        }
                    );
                    if self.fault_active {
                        if let Some(runs) = self.running.get_mut(&cid) {
                            if let Some(pos) = runs.iter().position(|&(r, _)| r == rid) {
                                runs.swap_remove(pos);
                            }
                            if runs.is_empty() {
                                self.running.remove(&cid);
                            }
                        }
                    }
                }
                LogEntry::Start(s) => {
                    if s.class == StartClass::Warm {
                        self.arrived += 1;
                    }
                    self.records.push(s.record);
                    obs!(
                        self.rec,
                        ObsEvent::Start {
                            at: s.now,
                            rid: s.rid.0,
                            cid: s.cid.0,
                            func: s.record.func,
                            class: s.class.into(),
                            wait: s.record.wait,
                        }
                    );
                    if self.fault_active {
                        self.running
                            .entry(s.cid)
                            .or_default()
                            .push((s.rid, self.records.len() - 1));
                    }
                    let rinfo = RequestInfo {
                        id: s.rid,
                        func: s.record.func,
                        arrival: s.record.arrival,
                    };
                    let ctx = PolicyCtx::snapshot(s.now, &s.snap);
                    if s.class != StartClass::Cold {
                        self.policies.keepalive.on_reuse(&s.cinfo, &ctx);
                    }
                    self.policies.scaler.on_start(
                        &rinfo,
                        s.class,
                        s.record.wait,
                        s.record.exec,
                        &ctx,
                    );
                    if let Some(idle) = s.spec_idle {
                        self.policies
                            .scaler
                            .on_cold_outcome(s.record.func, Some(idle), &ctx);
                    }
                }
            }
        }
    }

    /// Rebases every queued event onto fresh root ranks assigned in
    /// current key order (see the module docs for why this preserves
    /// the sequential order for all future children).
    fn rebase(&mut self) {
        enum Loc {
            Shard(usize, SEvent),
            Cond(CEvent),
        }
        let mut all: Vec<(EvKey, Loc)> = Vec::new();
        for (i, s) in self.shards.iter_mut().enumerate() {
            for Reverse((k, ev)) in s.heap.drain() {
                all.push((k, Loc::Shard(i, ev)));
            }
        }
        for Reverse((k, ev)) in self.cond.drain() {
            all.push((k, Loc::Cond(ev)));
        }
        all.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for (k, loc) in all {
            let nk = EvKey::root(k.time, self.rank);
            self.rank += 1;
            match loc {
                Loc::Shard(i, ev) => self.shards[i].heap.push(Reverse((nk, ev))),
                Loc::Cond(ev) => self.cond.push(Reverse((nk, ev))),
            }
        }
    }

    /// Pops shard `si`'s parked minimum event and runs the full
    /// sequential handler for it.
    fn dispatch_shard_min(&mut self, si: usize) {
        let core = &mut self.shards[si];
        let arr_key = core
            .arrivals
            .get(core.cursor)
            .map(|&(t, rid)| EvKey::root(t, rid.0));
        let heap_key = core.heap.peek().map(|Reverse((k, _))| k.clone());
        let take_arrival = match (&arr_key, &heap_key) {
            (Some(a), Some(h)) => a < h,
            (Some(_), None) => true,
            _ => false,
        };
        if take_arrival {
            let (_, rid) = core.arrivals[core.cursor];
            core.cursor += 1;
            self.begin_op(arr_key.expect("checked above"));
            self.on_arrival(rid);
        } else {
            let Reverse((key, SEvent::ExecDone(cid, rid))) =
                core.heap.pop().expect("escalation parked an event");
            self.begin_op(key);
            self.on_exec_done(cid, rid);
        }
    }

    fn begin_op(&mut self, key: EvKey) {
        self.now = key.time;
        self.cur_key = key;
        self.child_seq = 0;
    }

    fn dispatch_conductor(&mut self, key: EvKey, ev: CEvent) {
        self.begin_op(key);
        match ev {
            CEvent::Tick => self.on_tick(),
            CEvent::ProvisionDone(cid) => self.on_provision_done(cid),
            CEvent::ProvisionFailed(cid) => self.on_provision_failed(cid),
            CEvent::RetryProvision(func, attempt, spec) => {
                self.on_retry_provision(func, attempt, spec)
            }
            CEvent::WorkerDown(worker) => self.on_worker_down(worker),
        }
    }

    /// Pushes a conductor child event keyed off the current op.
    fn push_cond(&mut self, at: TimePoint, ev: CEvent) {
        let key = self.cur_key.child(self.child_seq, at);
        self.child_seq += 1;
        self.cond.push(Reverse((key, ev)));
    }

    // -- merged worker stats (summed over minis) -------------------------

    fn merged_free_mb(&self, w: WorkerId) -> u64 {
        let wi = w.0 as usize;
        let cap = self.shards[0].mini.workers()[wi].capacity_mb;
        let used: u64 = self
            .shards
            .iter()
            .map(|s| s.mini.workers()[wi].used_mb)
            .sum();
        cap - used
    }

    fn merged_reclaimable_mb(&self, w: WorkerId) -> u64 {
        let wi = w.0 as usize;
        self.merged_free_mb(w)
            + self
                .shards
                .iter()
                .map(|s| s.mini.workers()[wi].idle_mb)
                .sum::<u64>()
    }

    /// Placement over the merged worker stats, mirroring
    /// [`ClusterState::pick_worker`]'s strategy semantics exactly
    /// (including advancing the round-robin cursor only on success).
    fn merged_pick_worker(&mut self, mem_mb: u32) -> Option<WorkerId> {
        let need = u64::from(mem_mb);
        let n = self.alive.len();
        let ids = || (0..n).map(|i| WorkerId(i as u16));
        match self.config.placement {
            Placement::MaxFree => {
                // Filter-then-max with ties toward the lowest id, the
                // proven-equivalent reference semantics of both
                // sequential scan modes.
                let best = |metric: &dyn Fn(WorkerId) -> u64| -> Option<WorkerId> {
                    let mut best: Option<(u64, WorkerId)> = None;
                    for w in ids() {
                        if !self.alive[w.0 as usize] {
                            continue;
                        }
                        let m = metric(w);
                        if m >= need && best.is_none_or(|(bm, _)| m > bm) {
                            best = Some((m, w));
                        }
                    }
                    best.map(|(_, w)| w)
                };
                best(&|w| self.merged_free_mb(w))
                    .or_else(|| best(&|w| self.merged_reclaimable_mb(w)))
            }
            Placement::FirstFit => ids()
                .find(|&w| self.alive[w.0 as usize] && self.merged_free_mb(w) >= need)
                .or_else(|| {
                    ids().find(|&w| {
                        self.alive[w.0 as usize] && self.merged_reclaimable_mb(w) >= need
                    })
                }),
            Placement::RoundRobin => {
                for pass in 0..2 {
                    for off in 0..n {
                        let idx = (self.round_robin_next + off) % n;
                        let w = WorkerId(idx as u16);
                        if !self.alive[idx] {
                            continue;
                        }
                        let fits = if pass == 0 {
                            self.merged_free_mb(w) >= need
                        } else {
                            self.merged_reclaimable_mb(w) >= need
                        };
                        if fits {
                            self.round_robin_next = (idx + 1) % n;
                            return Some(w);
                        }
                    }
                }
                None
            }
        }
    }

    /// The shard index owning container `cid`, by probing the minis.
    fn owner_of(&self, cid: ContainerId) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.mini.container(cid).is_some())
    }

    // -- conductor event handlers (full sequential semantics) ------------

    fn on_arrival(&mut self, rid: RequestId) {
        self.arrived += 1;
        let inv = &self.trace.invocations()[rid.0 as usize];
        let (func, arrival) = (inv.func, inv.arrival);
        let si = self.fn_shard[&func];
        self.shards[si].mini.note_arrival(func, self.now);
        if let Some(cid) = self.shards[si].mini.pick_available(func) {
            self.start_exec(cid, rid, StartClass::Warm);
            return;
        }
        let info = RequestInfo {
            id: rid,
            func,
            arrival,
        };
        let mut decision = {
            let view = MergedView {
                shards: &self.shards,
                fn_shard: &self.fn_shard,
                function_ids: &self.function_ids,
            };
            let ctx = PolicyCtx::sharded(self.now, &view);
            let mut decision = self.policies.scaler.on_blocked(&info, &ctx);
            if decision == ScaleDecision::WaitWarm
                && ctx.warm_count(func) == 0
                && ctx.provisioning_count(func) == 0
            {
                decision = ScaleDecision::Race;
            }
            decision
        };
        if let ScaleDecision::EnqueueOn(cid) = decision {
            let valid = self.shards[si]
                .mini
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
                self.shards[si]
                    .mini
                    .fn_runtime_mut(func)
                    .pending
                    .push(rid, true);
                self.request_provision(func, false, 0);
            }
            ScaleDecision::WaitWarm => {
                self.shards[si]
                    .mini
                    .fn_runtime_mut(func)
                    .pending
                    .push(rid, false);
            }
            ScaleDecision::Race => {
                self.shards[si]
                    .mini
                    .fn_runtime_mut(func)
                    .pending
                    .push(rid, false);
                self.request_provision(func, true, 0);
            }
            ScaleDecision::EnqueueOn(cid) => {
                let ok = self.shards[si].mini.enqueue_local(cid, rid);
                debug_assert!(ok, "validated above");
            }
        }
    }

    fn on_provision_done(&mut self, cid: ContainerId) {
        let Some(si) = self.owner_of(cid) else {
            return; // stale: the worker crashed while provisioning
        };
        self.attempts.remove(&cid);
        self.shards[si].mini.finish_provision(cid, self.now);
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: true,
            }
        );
        let func = self.shards[si]
            .mini
            .container(cid)
            .expect("just provisioned")
            .func;
        if let Some(rid) = self.pop_pending(func, true) {
            self.start_exec(cid, rid, StartClass::Cold);
        } else {
            self.retry_deferred();
        }
        self.repair_cold_only(func);
    }

    /// Mirror of the sequential engine's `repair_cold_only` (see its
    /// doc comment): when the chain that just ended was stolen by a
    /// flexible request via `pop_any`, re-cover the cold-only backlog
    /// so no waiter is stranded behind `pop_flexible`.
    fn repair_cold_only(&mut self, func: FunctionId) {
        let Some(rt) = self.shards[self.fn_shard[&func]].mini.fn_runtime(func) else {
            return;
        };
        let cold_only = rt.pending.cold_only_len();
        if cold_only == 0 {
            return;
        }
        let chains = rt.provisioning.len()
            + self.retrying.get(&func).map_or(0, |&n| n as usize)
            + self.deferred.iter().filter(|&&(f, _, _)| f == func).count();
        for _ in chains..cold_only {
            self.request_provision(func, false, 0);
        }
    }

    fn on_exec_done(&mut self, cid: ContainerId, rid: RequestId) {
        let Some(si) = self.owner_of(cid) else {
            return; // stale: crashed mid-execution and re-queued
        };
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
        if self.fault_active {
            if let Some(runs) = self.running.get_mut(&cid) {
                if let Some(pos) = runs.iter().position(|&(r, _)| r == rid) {
                    runs.swap_remove(pos);
                }
                if runs.is_empty() {
                    self.running.remove(&cid);
                }
            }
        }
        let func = self.trace.invocations()[rid.0 as usize].func;
        self.shards[si].mini.note_completion(func);
        remove_busy(&mut self.shards[si].busy_until, cid, self.now);
        self.shards[si].mini.release_thread(cid, self.now);
        if let Some(next) = self.shards[si].mini.dequeue_local(cid) {
            self.start_exec(cid, next, StartClass::DelayedWarm);
            return;
        }
        if let Some(next) = self.pop_pending(func, false) {
            self.start_exec(cid, next, StartClass::DelayedWarm);
            return;
        }
        self.retry_deferred();
    }

    fn on_tick(&mut self) {
        let expired = {
            let view = MergedView {
                shards: &self.shards,
                fn_shard: &self.fn_shard,
                function_ids: &self.function_ids,
            };
            let ctx = PolicyCtx::sharded(self.now, &view);
            self.policies.keepalive.expirations(&ctx)
        };
        for cid in expired {
            let still_idle = self
                .owner_of(cid)
                .and_then(|si| self.shards[si].mini.container(cid))
                .map(|c| c.is_idle() && c.local_queue.is_empty())
                .unwrap_or(false);
            if still_idle {
                self.evict_container(cid, EvictReason::Expire);
            }
        }
        if self.policies.prewarm.is_some() {
            let wants = {
                let view = MergedView {
                    shards: &self.shards,
                    fn_shard: &self.fn_shard,
                    function_ids: &self.function_ids,
                };
                let ctx = PolicyCtx::sharded(self.now, &view);
                self.policies
                    .prewarm
                    .as_mut()
                    .expect("prewarm is Some: guarded by the is_some check above")
                    .on_tick(&ctx)
            };
            for func in wants {
                let mem = self.shards[self.fn_shard[&func]].mini.profile(func).mem_mb;
                if self.merged_pick_worker(mem).is_some() {
                    self.request_provision(func, false, 0);
                }
            }
        }
        if self.incomplete > 0 {
            let drained =
                |s: &Self| s.cond.is_empty() && s.shards.iter().all(|c| c.next_key().is_none());
            if drained(self) {
                // Same liveness backstop as the sequential engine's
                // `on_tick`: deferred placements are the last possible
                // source of progress once everything else drained.
                self.retry_deferred();
            }
            assert!(
                !drained(self),
                "simulation is stuck: {} unserved request(s) but no actionable events remain",
                self.incomplete
            );
            self.push_cond(self.now + self.config.tick, CEvent::Tick);
        }
    }

    fn on_provision_failed(&mut self, cid: ContainerId) {
        let Some(si) = self.owner_of(cid) else {
            return; // the worker crashed before the failure fired
        };
        let c = self.shards[si].mini.container(cid).expect("owned");
        let func = c.func;
        let speculative = c.speculative_unused;
        let attempt = self.attempts.remove(&cid).unwrap_or(0);
        let info = self.shards[si].mini.fail_provision(cid, self.now);
        self.note_memory();
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: false,
            }
        );
        {
            let view = MergedView {
                shards: &self.shards,
                fn_shard: &self.fn_shard,
                function_ids: &self.function_ids,
            };
            let ctx = PolicyCtx::sharded(self.now, &view);
            self.policies.keepalive.on_evict(&info, &ctx);
            if speculative {
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
        self.push_cond(
            self.now + backoff,
            CEvent::RetryProvision(func, next, speculative),
        );
        *self.retrying.entry(func).or_default() += 1;
        self.retry_deferred();
    }

    fn on_retry_provision(&mut self, func: FunctionId, attempt: u32, speculative: bool) {
        if let Some(n) = self.retrying.get_mut(&func) {
            *n -= 1;
            if *n == 0 {
                self.retrying.remove(&func);
            }
        }
        let backlog = self.shards[self.fn_shard[&func]]
            .mini
            .fn_runtime(func)
            .map(|rt| !rt.pending.is_empty())
            .unwrap_or(false);
        if backlog {
            self.request_provision(func, speculative, attempt);
        }
    }

    fn on_worker_down(&mut self, worker: WorkerId) {
        if !self.alive[worker.0 as usize] {
            return; // duplicate crash event
        }
        self.alive[worker.0 as usize] = false;
        for s in &mut self.shards {
            s.mini.mark_worker_down(worker);
        }
        obs!(
            self.rec,
            ObsEvent::WorkerDown {
                at: self.now,
                worker: worker.0,
            }
        );
        // lint:allow(O1): per-mini lists are id-sorted; the merge sorts.
        let mut victims: Vec<ContainerId> = self
            .shards
            .iter()
            .flat_map(|s| s.mini.containers_on(worker))
            .collect();
        victims.sort_unstable();
        let mut voided: Vec<usize> = Vec::new();
        let mut requeue: Vec<(FunctionId, RequestId)> = Vec::new();
        let mut affected: Vec<FunctionId> = Vec::new();
        for cid in victims {
            self.attempts.remove(&cid);
            if let Some(runs) = self.running.remove(&cid) {
                for (rid, rec_idx) in runs {
                    voided.push(rec_idx);
                    let func = self.trace.invocations()[rid.0 as usize].func;
                    requeue.push((func, rid));
                }
            }
            let si = self.owner_of(cid).expect("victim is live");
            self.shards[si].busy_until.remove(&cid);
            let (info, local_queued) = self.shards[si].mini.crash_evict(cid, self.now);
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
            let view = MergedView {
                shards: &self.shards,
                fn_shard: &self.fn_shard,
                function_ids: &self.function_ids,
            };
            let ctx = PolicyCtx::sharded(self.now, &view);
            self.policies.keepalive.on_evict(&info, &ctx);
        }
        self.note_memory();
        self.remove_records(voided);
        requeue.sort_by_key(|&(_, rid)| rid);
        for &(func, rid) in &requeue {
            self.shards[self.fn_shard[&func]]
                .mini
                .fn_runtime_mut(func)
                .pending
                .push(rid, false);
        }
        affected.extend(requeue.iter().map(|&(f, _)| f));
        affected.sort_unstable();
        affected.dedup();
        for func in affected {
            let Some(rt) = self.shards[self.fn_shard[&func]].mini.fn_runtime(func) else {
                continue;
            };
            let pending = rt.pending.len();
            let cold_only = rt.pending.cold_only_len();
            let provisioning = rt.provisioning.len();
            let warm = rt.warm.len();
            let mut need = cold_only.saturating_sub(provisioning);
            if need == 0 && pending > 0 && warm == 0 && provisioning == 0 {
                need = 1;
            }
            for _ in 0..need {
                self.request_provision(func, false, 0);
            }
        }
        self.retry_deferred();
    }

    /// Voids crash-killed records and remaps surviving in-flight record
    /// indices (verbatim sequential semantics).
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
        for runs in self.running.values_mut() {
            for (_, idx) in runs.iter_mut() {
                *idx -= voided.partition_point(|&v| v < *idx);
            }
        }
    }

    // -- conductor mechanics ---------------------------------------------

    /// Conductor-side `start_exec`: identical to the sequential one,
    /// with the completion pushed into the owning shard's heap.
    fn start_exec(&mut self, cid: ContainerId, rid: RequestId, class: StartClass) {
        let si = self.owner_of(cid).expect("live container");
        let (was_speculative, warm_at) = {
            let c = self.shards[si].mini.container(cid).expect("live container");
            (c.speculative_unused, c.warm_at)
        };
        self.shards[si].mini.occupy_thread(cid, self.now);
        let inv = &self.trace.invocations()[rid.0 as usize];
        let (func, arrival, exec) = (inv.func, inv.arrival, inv.exec);
        let wait = self.now.saturating_since(arrival);
        let end = self.now + exec;
        self.shards[si].busy_until.entry(cid).or_default().push(end);
        let ck = self.cur_key.child(self.child_seq, end);
        self.child_seq += 1;
        self.shards[si]
            .heap
            .push(Reverse((ck, SEvent::ExecDone(cid, rid))));
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
                class: class.into(),
                wait,
            }
        );
        if self.fault_active {
            self.running
                .entry(cid)
                .or_default()
                .push((rid, self.records.len() - 1));
        }
        let info = RequestInfo {
            id: rid,
            func,
            arrival,
        };
        let cinfo = self.shards[si]
            .mini
            .container(cid)
            .map(ContainerInfo::from)
            .expect("live container");
        let view = MergedView {
            shards: &self.shards,
            fn_shard: &self.fn_shard,
            function_ids: &self.function_ids,
        };
        let ctx = PolicyCtx::sharded(self.now, &view);
        if class != StartClass::Cold {
            self.policies.keepalive.on_reuse(&cinfo, &ctx);
        }
        self.policies
            .scaler
            .on_start(&info, class, wait, exec, &ctx);
        if was_speculative {
            let idle = self.now.saturating_since(warm_at);
            self.policies.scaler.on_cold_outcome(func, Some(idle), &ctx);
        }
    }

    /// REPLACE over the merged cluster: identical victim order to the
    /// sequential engine (same per-round `(priority, id)` ascent, with
    /// candidates merged across shards).
    fn request_provision(&mut self, func: FunctionId, speculative: bool, attempt: u32) {
        let mem = self.shards[self.fn_shard[&func]].mini.profile(func).mem_mb;
        let Some(worker) = self.merged_pick_worker(mem) else {
            obs!(
                self.rec,
                ObsEvent::Defer {
                    at: self.now,
                    func,
                    speculative,
                }
            );
            self.deferred.push_back((func, speculative, attempt));
            return;
        };
        if self.merged_free_mb(worker) < u64::from(mem) {
            let mut evicted = Vec::new();
            let candidates: Vec<(f64, ContainerId)> = {
                let view = MergedView {
                    shards: &self.shards,
                    fn_shard: &self.fn_shard,
                    function_ids: &self.function_ids,
                };
                let ctx = PolicyCtx::sharded(self.now, &view);
                let ka = &self.policies.keepalive;
                let mut cands = Vec::new();
                for s in &self.shards {
                    for &cid in &s.mini.workers()[worker.0 as usize].idle {
                        let queue_empty = s
                            .mini
                            .container(cid)
                            .map(|c| c.local_queue.is_empty())
                            .unwrap_or(false);
                        if queue_empty {
                            let cinfo = ctx.container(cid).expect("idle containers are live");
                            cands.push((ka.priority(&cinfo, &ctx), cid));
                        }
                    }
                }
                cands
            };
            // Victim-selection provenance: the same fresh-sorted
            // snapshot the sequential engine records — sorting
            // normalizes the per-mini collection order, so the record
            // is engine- and scan-mode-independent.
            obs!(
                self.rec,
                ObsEvent::EvictCandidates {
                    at: self.now,
                    worker: worker.0,
                    incoming: func,
                    candidates: crate::reference::sorted_eviction_candidates(candidates.clone())
                        .into_iter()
                        .map(|(p, cid)| (cid.0, p))
                        .collect(),
                }
            );
            match self.config.scan {
                ScanMode::Indexed => {
                    let mut heap = RoundHeap::default();
                    heap.refill(candidates);
                    while self.merged_free_mb(worker) < u64::from(mem) {
                        let Some((_, victim)) = heap.pop() else {
                            obs!(
                                self.rec,
                                ObsEvent::Defer {
                                    at: self.now,
                                    func,
                                    speculative,
                                }
                            );
                            self.deferred.push_back((func, speculative, attempt));
                            return;
                        };
                        evicted.push(self.evict_container(victim, EvictReason::Replace));
                    }
                }
                ScanMode::Reference => {
                    let sorted = crate::reference::sorted_eviction_candidates(candidates);
                    let mut victims = sorted.into_iter();
                    while self.merged_free_mb(worker) < u64::from(mem) {
                        let Some((_, victim)) = victims.next() else {
                            obs!(
                                self.rec,
                                ObsEvent::Defer {
                                    at: self.now,
                                    func,
                                    speculative,
                                }
                            );
                            self.deferred.push_back((func, speculative, attempt));
                            return;
                        };
                        evicted.push(self.evict_container(victim, EvictReason::Replace));
                    }
                }
            }
            return self.finish_admission(func, worker, speculative, evicted, attempt);
        }
        self.finish_admission(func, worker, speculative, Vec::new(), attempt);
    }

    fn finish_admission(
        &mut self,
        func: FunctionId,
        worker: WorkerId,
        speculative: bool,
        evicted: Vec<ContainerInfo>,
        attempt: u32,
    ) {
        let si = self.fn_shard[&func];
        if !evicted.is_empty() {
            // Charged to the admitted function's mini; ledgers are summed
            // at the end, so placement is irrelevant but deterministic.
            self.shards[si].mini.note_replace_round();
        }
        self.shards[si]
            .mini
            .align_next_container(self.next_container);
        let cid = self.shards[si]
            .mini
            .begin_provision(func, worker, self.now, speculative);
        self.next_container = cid.0 + 1;
        self.note_memory();
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
        let cinfo = self.shards[si]
            .mini
            .container(cid)
            .map(ContainerInfo::from)
            .expect("just created");
        let cold = {
            let view = MergedView {
                shards: &self.shards,
                fn_shard: &self.fn_shard,
                function_ids: &self.function_ids,
            };
            let ctx = PolicyCtx::sharded(self.now, &view);
            self.policies.keepalive.on_admit(&cinfo, &evicted, &ctx);
            self.policies
                .keepalive
                .provision_latency(func, &ctx)
                .unwrap_or_else(|| view.profile(func).cold_start)
        };
        if self.fault_active {
            self.attempts.insert(cid, attempt);
            if self.faults.provision_fails() {
                self.push_cond(self.now + cold, CEvent::ProvisionFailed(cid));
                return;
            }
            let factor = self.faults.straggler_factor();
            let cold = if factor > 1.0 {
                cold.scale(factor)
            } else {
                cold
            };
            self.push_cond(self.now + cold, CEvent::ProvisionDone(cid));
            return;
        }
        self.push_cond(self.now + cold, CEvent::ProvisionDone(cid));
    }

    fn evict_container(&mut self, cid: ContainerId, reason: EvictReason) -> ContainerInfo {
        let si = self.owner_of(cid).expect("evicting a live container");
        let was_unused = self.shards[si]
            .mini
            .container(cid)
            .map(|c| c.speculative_unused)
            .unwrap_or(false);
        let info = self.shards[si].mini.evict(cid, self.now);
        self.note_memory();
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
        let view = MergedView {
            shards: &self.shards,
            fn_shard: &self.fn_shard,
            function_ids: &self.function_ids,
        };
        let ctx = PolicyCtx::sharded(self.now, &view);
        self.policies.keepalive.on_evict(&info, &ctx);
        if was_unused {
            self.policies.scaler.on_cold_outcome(info.func, None, &ctx);
        }
        info
    }

    fn pop_pending(&mut self, func: FunctionId, any: bool) -> Option<RequestId> {
        let rt = self.shards[self.fn_shard[&func]].mini.fn_runtime_mut(func);
        if any {
            rt.pending.pop_any().map(|(rid, _)| rid)
        } else {
            rt.pending.pop_flexible()
        }
    }

    fn retry_deferred(&mut self) {
        while let Some(&(func, speculative, attempt)) = self.deferred.front() {
            let mem = self.shards[self.fn_shard[&func]].mini.profile(func).mem_mb;
            if self.merged_pick_worker(mem).is_none() {
                break;
            }
            self.deferred.pop_front();
            self.request_provision(func, speculative, attempt);
        }
    }

    fn note_memory(&mut self) {
        if self.config.record_memory {
            let used: u64 = self.shards.iter().map(|s| s.mini.used_mb()).sum();
            // lint:allow(C1): the series schema is f64 (same cast as the
            // sequential engine's note_memory); MB totals sit far below
            // f64's 2^53 exact-integer range.
            self.memory.push(self.now.as_micros(), used as f64);
        }
    }

    /// Debug-build barrier invariants: every mini validates, and
    /// request conservation holds globally (the sharded counterpart of
    /// the sequential per-event `InvariantChecker`).
    fn debug_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            let mut pending = 0;
            let mut local_queued = 0;
            for s in &self.shards {
                s.mini.validate();
                pending += s.mini.total_pending();
                local_queued += s.mini.total_local_queued();
            }
            assert_eq!(
                self.arrived as usize,
                self.records.len() + pending + local_queued,
                "request conservation violated at a shard barrier"
            );
        }
    }
}
