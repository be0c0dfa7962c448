//! Every call the benchmark makes into the workspace crates.
//!
//! The rest of the benchmark sees plain numbers and the opaque handles
//! defined here, and does all the timing; this file does none (but for
//! the timer-lateness probe, which has to hand the executor a deadline). A
//! refactor that removes or renames a public item below is therefore
//! preceded by a one-file benchmark change, not by four broken
//! workloads.
//!
//! API surface used (keep this list in step with the `use` lines):
//!
//! * `faas_trace`: `gen::azure(..).minutes(..).build()`, `Trace::{new,
//!   functions, invocations, len}`, `Invocation`, `FunctionProfile::new`,
//!   `FunctionId`, `TimePoint`, `TimeDelta`, `io::{to_string, from_str}`,
//!   `transform::slice_time`.
//! * `faas_obs`: `TraceLog::{len, waterfalls, to_chrome_json}`.
//! * `faas_sim`: `run`, `run_traced`, `SimConfig::{with_cache_gb,
//!   workers_mb, scan_mode, without_memory_timeseries, shards, tick}`,
//!   `ScanMode`, `SimReport` fields and `{ratio, count,
//!   avg_overhead_ratio, wait_summary, wait_cdf, requests_csv,
//!   gb_s_per_request}`, `StartClass`, `PolicyStack`, `EventQueue`,
//!   `Event`, `ClusterState::{new, begin_provision, finish_provision,
//!   note_arrival, container}`, `PolicyCtx::new`, `ContainerInfo`,
//!   `RequestInfo`, the `KeepAlive` and `Scaler` traits, and the id
//!   newtypes.
//! * `cidre_core`: `cidre_stack`, `CidreConfig`, `CssScaler`,
//!   `CipKeepAlive`.
//! * `faas_policies`: the nine `*_stack` constructors, `GdsfKeepAlive`.
//! * `faas_core`: `EvictionIndex`, `FreeThreadPool`, `PendingQueue`.
//! * `faas_live`: `FaasHost::{start, invoke, shutdown}`, `InvokeHandle::
//!   wait`, `LiveConfig`, `run_live_stats`, `LiveStats`, `exec::{Executor,
//!   channel}`.
//! * `faas_testkit`: `Rng::{seed_from_u64, u64_below, zipf}`, `par_map`.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use crate::estimator::Stopwatch;
use cidre_core::{cidre_stack, CidreConfig, CipKeepAlive, CssScaler};
use faas_core::{EvictionIndex, FreeThreadPool, PendingQueue};
use faas_live::{exec, FaasHost, InvokeHandle, LiveConfig};
use faas_policies::GdsfKeepAlive;
use faas_sim::{
    ClusterState, ContainerId, ContainerInfo, Event, EventQueue, KeepAlive, PolicyCtx, PolicyStack,
    RequestId, RequestInfo, Scaler, ScanMode, SimConfig, SimReport, StartClass, WorkerId,
};
use faas_testkit::Rng;

use faas_trace::{
    gen, FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace as FaasTrace,
};

/// The function population (memory sizes, rates, execution medians,
/// burst structure) is the one `gen::azure` draws from this seed, on
/// every run. `--seed` re-draws only each function's phase.
const POPULATION_SEED: u64 = 42;

// ---------------------------------------------------------------- trace

/// A generated workload trace.
pub struct Trace(FaasTrace);

impl Trace {
    /// `gen::azure(POPULATION_SEED).minutes(minutes)` with every
    /// function's arrivals rotated (modulo the duration) by an offset
    /// drawn from `seed`.
    ///
    /// Seeding `gen::azure` itself re-draws the population, and the ten
    /// populations of ten seeds differ by 2× in cold-start ratio and
    /// eviction count: no bound under 25% could hold across seeds. The
    /// rotation keeps each function's request count, execution times and
    /// burst shapes and changes how the functions interleave.
    pub fn generate(seed: u64, minutes: u64) -> Self {
        let base = gen::azure(POPULATION_SEED).minutes(minutes).build();
        let span_us = minutes * 60 * 1_000_000;
        let mut rng = Rng::seed_from_u64(seed);
        let offsets: Vec<u64> = base
            .functions()
            .iter()
            .map(|_| rng.u64_below(span_us))
            .collect();
        let invocations = base
            .invocations()
            .iter()
            .map(|inv| Invocation {
                arrival: TimePoint::from_micros(
                    (inv.arrival.as_micros() + offsets[inv.func.0 as usize]) % span_us,
                ),
                ..*inv
            })
            .collect();
        Trace(FaasTrace::new(base.functions().to_vec(), invocations).expect("same functions"))
    }

    pub fn requests(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn to_csv(&self) -> String {
        faas_trace::io::to_string(&self.0)
    }

    pub fn from_csv(text: &str) -> Self {
        Trace(faas_trace::io::from_str(text).expect("round trip of a generated trace"))
    }

    /// The first `secs` seconds, for probes too slow for the full trace.
    pub fn head(&self, secs: u64) -> Self {
        Trace(faas_trace::transform::slice_time(
            &self.0,
            TimePoint::ZERO,
            TimePoint::from_secs(secs),
        ))
    }

    pub fn same_as(&self, other: &Trace) -> bool {
        self.0 == other.0
    }
}

// --------------------------------------------------------------- replay

/// The ten Fig. 12 policy stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stack {
    Cidre,
    Ttl,
    Lru,
    FaasCache,
    RainbowCake,
    Flame,
    Ensure,
    IceBreaker,
    CodeCrunch,
    Offline,
}

impl Stack {
    /// The nine non-CIDRE stacks, in Fig. 12 order.
    pub const BASELINES: [Stack; 9] = [
        Stack::Ttl,
        Stack::Lru,
        Stack::FaasCache,
        Stack::RainbowCake,
        Stack::Flame,
        Stack::Ensure,
        Stack::IceBreaker,
        Stack::CodeCrunch,
        Stack::Offline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stack::Cidre => "cidre",
            Stack::Ttl => "ttl",
            Stack::Lru => "lru",
            Stack::FaasCache => "faascache",
            Stack::RainbowCake => "rainbowcake",
            Stack::Flame => "flame",
            Stack::Ensure => "ensure",
            Stack::IceBreaker => "icebreaker",
            Stack::CodeCrunch => "codecrunch",
            Stack::Offline => "offline",
        }
    }

    /// Name of the span around one replay under this stack.
    pub fn span(self) -> &'static str {
        match self {
            Stack::Cidre => "engine.run.cidre",
            Stack::Ttl => "engine.run.ttl",
            Stack::Lru => "engine.run.lru",
            Stack::FaasCache => "engine.run.faascache",
            Stack::RainbowCake => "engine.run.rainbowcake",
            Stack::Flame => "engine.run.flame",
            Stack::Ensure => "engine.run.ensure",
            Stack::IceBreaker => "engine.run.icebreaker",
            Stack::CodeCrunch => "engine.run.codecrunch",
            Stack::Offline => "engine.run.offline",
        }
    }

    fn build(self, trace: &FaasTrace) -> PolicyStack {
        match self {
            Stack::Cidre => cidre_stack(CidreConfig::default()),
            Stack::Ttl => faas_policies::ttl_stack(),
            Stack::Lru => faas_policies::lru_stack(),
            Stack::FaasCache => faas_policies::faascache_stack(),
            Stack::RainbowCake => faas_policies::rainbowcake_stack(),
            Stack::Flame => faas_policies::flame_stack(),
            Stack::Ensure => faas_policies::ensure_stack(),
            Stack::IceBreaker => faas_policies::icebreaker_stack(),
            Stack::CodeCrunch => faas_policies::codecrunch_stack(),
            Stack::Offline => faas_policies::offline_stack(trace),
        }
    }
}

/// Which engine variant replays the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `faas_sim::run`, sequential, indexed scans: what the end-to-end
    /// workloads time.
    Sequential,
    /// `ScanMode::Reference`: the retained linear scans.
    ReferenceScan,
    /// `without_memory_timeseries`.
    NoMemorySeries,
    /// `shards(2)`.
    Sharded2,
}

/// A trace and the cluster it replays on.
pub struct Replay {
    trace: FaasTrace,
    config: SimConfig,
    per_function: Vec<u64>,
}

impl Replay {
    pub fn new(trace: Trace, cache_gb: u64) -> Self {
        Replay::with_config(trace, SimConfig::with_cache_gb(cache_gb))
    }

    fn with_config(trace: Trace, config: SimConfig) -> Self {
        let mut per_function = vec![0; trace.0.functions().len()];
        for inv in trace.0.invocations() {
            per_function[inv.func.0 as usize] += 1;
        }
        Replay {
            trace: trace.0,
            config,
            per_function,
        }
    }

    pub fn requests(&self) -> u64 {
        self.trace.len() as u64
    }

    pub fn functions(&self) -> usize {
        self.trace.functions().len()
    }

    /// Policy tick of the simulated cluster, in seconds.
    pub fn tick_s(&self) -> f64 {
        self.config.tick.as_secs_f64()
    }

    /// The same cluster replaying only the first `secs` seconds.
    pub fn head(&self, secs: u64) -> Self {
        let trace = Trace(self.trace.clone()).head(secs);
        Replay::with_config(trace, self.config.clone())
    }

    pub fn run(&self, stack: Stack, engine: Engine) -> Outcome {
        let config = match engine {
            Engine::Sequential => self.config.clone(),
            Engine::ReferenceScan => self.config.clone().scan_mode(ScanMode::Reference),
            Engine::NoMemorySeries => self.config.clone().without_memory_timeseries(),
            Engine::Sharded2 => self.config.clone().shards(2),
        };
        Outcome(faas_sim::run(
            &self.trace,
            &config,
            stack.build(&self.trace),
        ))
    }

    /// `run_traced` under CIDRE: the report and the provenance log.
    pub fn run_traced(&self) -> (Outcome, ObsLog) {
        let (report, log) =
            faas_sim::run_traced(&self.trace, &self.config, Stack::Cidre.build(&self.trace));
        (Outcome(report), ObsLog(log))
    }

    /// `runs` CIDRE replays fanned out over `jobs` threads with
    /// `testkit::par_map`; returns the digests.
    pub fn run_par(&self, runs: usize, jobs: usize) -> Vec<u64> {
        let items: Vec<usize> = (0..runs).collect();
        faas_testkit::par_map(&items, jobs, |_, _| {
            self.run(Stack::Cidre, Engine::Sequential).digest()
        })
    }

    /// Replays on the wall clock with `faas_live::run_live_stats`.
    pub fn run_live(&self, time_scale: f64) -> LiveOutcome {
        let config = LiveConfig::default()
            .sim(self.config.clone())
            .time_scale(time_scale)
            .exec_threads(2);
        let (report, stats) =
            faas_live::run_live_stats(&self.trace, &config, Stack::Cidre.build(&self.trace));
        LiveOutcome {
            outcome: Outcome(report),
            wall_s: stats.wall.as_secs_f64(),
            scaled_span_s: self.trace.duration().as_secs_f64() * time_scale,
            timer_fires: stats.timer_fires,
            peak_tasks: stats.peak_tasks as u64,
        }
    }
}

/// What `run_live_stats` reported.
pub struct LiveOutcome {
    pub outcome: Outcome,
    pub wall_s: f64,
    pub scaled_span_s: f64,
    pub timer_fires: u64,
    pub peak_tasks: u64,
}

/// The report of one run.
pub struct Outcome(SimReport);

impl Outcome {
    pub fn requests(&self) -> u64 {
        self.0.requests.len() as u64
    }

    pub fn cold(&self) -> u64 {
        self.0.count(StartClass::Cold)
    }

    pub fn delayed(&self) -> u64 {
        self.0.count(StartClass::DelayedWarm)
    }

    pub fn evictions(&self) -> u64 {
        self.0.containers_evicted
    }

    /// Containers still alive when the run ended: the size the
    /// `faas-core` pool probes are run at.
    pub fn containers_alive(&self) -> u64 {
        self.0
            .containers_created
            .saturating_sub(self.0.containers_evicted)
            .saturating_sub(self.0.crash_evictions)
    }

    /// Events the sequential engine must have handled, from what the
    /// report shows: an arrival and a completion per request, a
    /// provision per container, a tick per `tick_s` of simulated time.
    pub fn events_est(&self, tick_s: f64) -> f64 {
        2.0 * self.0.requests.len() as f64
            + self.0.containers_created as f64
            + self.0.finished_at.as_secs_f64() / tick_s
    }

    pub fn overhead_ratio(&self) -> f64 {
        self.0.avg_overhead_ratio()
    }

    pub fn wait_p99_ms(&self) -> f64 {
        self.0.wait_cdf().quantile(0.99)
    }

    pub fn gbs_per_req(&self) -> f64 {
        self.0.gb_s_per_request()
    }

    /// The three post-processing steps every experiment applies to a
    /// report.
    pub fn summarize(&self) {
        black_box(self.0.wait_summary());
    }

    pub fn build_cdf(&self) {
        black_box(self.0.wait_cdf());
    }

    pub fn write_csv(&self) {
        black_box(self.0.requests_csv());
    }

    /// Operations of this run that failed: trace requests of `replay`
    /// without exactly one record (counted per function), plus every
    /// request if the three class shares do not sum to one.
    pub fn failed(&self, replay: &Replay) -> u64 {
        let mut seen = vec![0u64; replay.per_function.len()];
        let mut stray = 0u64;
        for r in &self.0.requests {
            match seen.get_mut(r.func.0 as usize) {
                Some(n) => *n += 1,
                None => stray += 1,
            }
        }
        let missing: u64 = seen
            .iter()
            .zip(&replay.per_function)
            .map(|(a, b)| a.abs_diff(*b))
            .sum();
        let shares = self.0.ratio(StartClass::Warm)
            + self.0.ratio(StartClass::Cold)
            + self.0.ratio(StartClass::DelayedWarm);
        let unclassified = if (shares - 1.0).abs() < 1e-9 {
            0
        } else {
            self.requests()
        };
        missing + stray + unclassified
    }

    /// Fingerprint of every request record in completion order, the
    /// container counters, the finish time and the ledger: two runs with
    /// the same digest produced the same report.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for r in &self.0.requests {
            h.word(u64::from(r.func.0));
            h.word(r.arrival.as_micros());
            h.word(r.wait.as_micros());
            h.word(r.exec.as_micros());
            h.word(r.class as u64);
        }
        let report = &self.0;
        let ledger = &report.ledger;
        for w in [
            report.containers_created,
            report.containers_evicted,
            report.wasted_cold_starts,
            report.provision_failures,
            report.crash_evictions,
            report.finished_at.as_micros(),
            report.ledger_settled_at.as_micros(),
            ledger.dispatches,
            ledger.replace_rounds,
        ] {
            h.word(w);
        }
        for w in [
            ledger.keep_warm_mb_us,
            ledger.idle_mb_us,
            ledger.cold_start_mb_us,
            ledger.speculative_mb_us,
        ] {
            h.word(w as u64);
            h.word((w >> 64) as u64);
        }
        h.0
    }
}

/// FNV-1a taken a 64-bit word at a time: a fingerprint, not a hash
/// anyone has to trust, and cheap enough to sit inside a timed call.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The provenance log of a traced run.
pub struct ObsLog(faas_obs::TraceLog);

impl ObsLog {
    pub fn events(&self) -> u64 {
        self.0.len() as u64
    }

    pub fn waterfalls(&self) -> usize {
        self.0.waterfalls().len()
    }

    pub fn chrome_json_bytes(&self) -> usize {
        self.0.to_chrome_json().len()
    }
}

// ------------------------------------------------------ faas-core probes

/// `ops` pushes and pops on an `EventQueue` holding `depth` events.
pub fn event_push_pop(depth: usize, ops: usize) {
    let mut q = EventQueue::new();
    for i in 0..depth as u64 {
        q.push(
            TimePoint::from_micros(i * 3_000),
            Event::Arrival(RequestId(i)),
        );
    }
    for i in 0..ops as u64 {
        let (at, _) = q.pop().expect("queue keeps its depth");
        q.push(
            at + TimeDelta::from_micros(1 + i * 7_919 % 5_000_000),
            Event::ExecDone(ContainerId(i), RequestId(i)),
        );
    }
    black_box(q.len());
}

fn eviction_index(size: usize) -> EvictionIndex<WorkerId, ContainerId> {
    let mut index = EvictionIndex::new();
    for i in 0..size as u64 {
        index.enter(
            WorkerId((i % 3) as u16),
            ContainerId(i),
            (i * 7_919 % 10_007) as f64,
        );
    }
    index
}

/// `ops` leave-and-re-enter pairs on an `EvictionIndex` of `size`
/// candidates (a container reused and idle again).
pub fn pool_evict_enter_leave(size: usize, ops: usize) {
    let mut index = eviction_index(size.max(1));
    for i in 0..ops as u64 {
        let c = ContainerId(i % size.max(1) as u64);
        index.leave(c);
        index.enter(
            WorkerId((c.0 % 3) as u16),
            c,
            (i % 10_007) as f64 + 10_007.0,
        );
    }
    black_box(index.len_live());
}

/// `ops` victim pops (each victim re-enters, so the size holds).
pub fn pool_evict_pop_min(size: usize, ops: usize) {
    let mut index = eviction_index(size.max(3));
    let mut cached: HashMap<ContainerId, f64> = HashMap::new();
    for i in 0..ops as u64 {
        let w = WorkerId((i % 3) as u16);
        let (p, c) = index
            .pop_min(w, |c| {
                Some(
                    cached
                        .get(&c)
                        .copied()
                        .unwrap_or((c.0 * 7_919 % 10_007) as f64),
                )
            })
            .expect("every worker keeps candidates");
        let next = p + 1.0 + (i % 97) as f64;
        cached.insert(c, next);
        index.enter(w, c, next);
    }
    black_box(index.len_live());
}

/// `ops` occupy/pick/release rounds on a `FreeThreadPool` of `size`.
pub fn pool_freethread_set_pick(size: usize, ops: usize) {
    let mut pool = FreeThreadPool::new();
    for i in 0..size.max(1) as u64 {
        pool.set(ContainerId(i), 0);
    }
    for _ in 0..ops {
        let c = pool.pick().expect("pool keeps free threads");
        pool.set(c, 1);
        pool.set(c, 0);
    }
    black_box(pool.len());
}

/// `ops` push/pop pairs on a `PendingQueue` holding `size` requests.
pub fn pool_pending_push_pop(size: usize, ops: usize) {
    let mut q = PendingQueue::new();
    for i in 0..size as u64 {
        q.push(RequestId(i), i % 8 == 0);
    }
    for i in 0..ops as u64 {
        q.push(RequestId(i), i % 8 == 0);
        black_box(q.pop_any());
    }
    black_box(q.len());
}

// -------------------------------------------------------- policy probes

/// A cluster with one warm container per function, for timing single
/// policy callbacks the way `crates/bench/benches/policy_overhead.rs`
/// does.
pub struct PolicyProbe {
    cluster: ClusterState,
    busy: HashMap<ContainerId, Vec<TimePoint>>,
    css: CssScaler,
    cip: CipKeepAlive,
    gdsf: GdsfKeepAlive,
    info: ContainerInfo,
    req: RequestInfo,
}

impl PolicyProbe {
    pub fn new(functions: usize) -> Self {
        let n = functions.max(1) as u32;
        let profiles: Vec<FunctionProfile> = (0..n)
            .map(|i| {
                FunctionProfile::new(
                    FunctionId(i),
                    format!("f{i}"),
                    256,
                    TimeDelta::from_millis(300),
                )
            })
            .collect();
        let mut cluster = ClusterState::new(&[u64::from(n) * 256 + 1], profiles, 1);
        for i in 0..n {
            let id = cluster.begin_provision(FunctionId(i), WorkerId(0), TimePoint::ZERO, false);
            cluster.finish_provision(id, TimePoint::ZERO);
            cluster.note_arrival(FunctionId(i), TimePoint::ZERO);
        }
        let busy = HashMap::new();
        let req = RequestInfo {
            id: RequestId(0),
            func: FunctionId(0),
            arrival: TimePoint::ZERO,
        };
        let mut css = CssScaler::new(CidreConfig::default());
        for t in 0..100u64 {
            let ctx = PolicyCtx::new(TimePoint::from_millis(t), &cluster, &busy);
            css.on_start(
                &req,
                StartClass::DelayedWarm,
                TimeDelta::from_millis(5),
                TimeDelta::from_millis(20),
                &ctx,
            );
        }
        css.on_cold_outcome(
            FunctionId(0),
            Some(TimeDelta::from_millis(5)),
            &PolicyCtx::new(TimePoint::from_millis(100), &cluster, &busy),
        );
        let info = ContainerInfo::from(cluster.container(ContainerId(0)).expect("provisioned"));
        PolicyProbe {
            cluster,
            busy,
            css,
            cip: CipKeepAlive::new(),
            gdsf: GdsfKeepAlive::faascache(),
            info,
            req,
        }
    }

    /// `ops` CSS admission decisions (the paper's Algorithm 1).
    pub fn css_on_blocked(&mut self, ops: usize) {
        for _ in 0..ops {
            let ctx = PolicyCtx::new(TimePoint::from_millis(200), &self.cluster, &self.busy);
            black_box(self.css.on_blocked(&self.req, &ctx));
        }
    }

    /// `ops` CIP priority evaluations (Eq. 3).
    pub fn cip_priority(&self, ops: usize) {
        for _ in 0..ops {
            let ctx = PolicyCtx::new(TimePoint::from_secs(60), &self.cluster, &self.busy);
            black_box(self.cip.priority(&self.info, &ctx));
        }
    }

    /// `ops` GDSF priority evaluations (FaasCache, Eq. 1).
    pub fn gdsf_priority(&self, ops: usize) {
        for _ in 0..ops {
            let ctx = PolicyCtx::new(TimePoint::from_secs(60), &self.cluster, &self.busy);
            black_box(self.gdsf.priority(&self.info, &ctx));
        }
    }
}

// ---------------------------------------------------------- exec probes

/// A two-worker `faas_live::exec::Executor` with an echo task behind a
/// channel.
pub struct ExecProbe {
    executor: exec::Executor,
    ping: exec::channel::Sender<u64>,
    pong: mpsc::Receiver<u64>,
}

impl ExecProbe {
    pub fn start() -> Self {
        let executor = exec::Executor::new(2);
        let (ping, mut rx) = exec::channel::channel::<u64>();
        let (tx, pong) = mpsc::channel();
        drop(executor.spawn(async move {
            while let Some(v) = rx.recv().await {
                if tx.send(v).is_err() {
                    break;
                }
            }
        }));
        ExecProbe {
            executor,
            ping,
            pong,
        }
    }

    /// `ops` spawn-then-join round trips of an empty task.
    pub fn spawn_join(&self, ops: usize) {
        for i in 0..ops {
            assert_eq!(self.executor.spawn(async move { i }).join(), Some(i));
        }
    }

    /// `ops` messages to the echo task and back.
    pub fn channel_rtt(&self, ops: usize) {
        for i in 0..ops as u64 {
            assert!(self.ping.send(i).is_ok(), "echo task is alive");
            assert_eq!(self.pong.recv().ok(), Some(i));
        }
    }

    /// `ops` blocking-pool jobs, each joined before the next.
    pub fn spawn_blocking_rtt(&self, ops: usize) {
        for i in 0..ops {
            assert_eq!(self.executor.spawn_blocking(move || i).join(), Some(i));
        }
    }

    /// Sleeps `ops` times for `each` and returns how late each timer
    /// fired, in microseconds.
    pub fn timer_lateness_us(&self, ops: usize, each: Duration) -> Vec<f64> {
        (0..ops)
            .map(|_| {
                let started = Stopwatch::start();
                let sleep = self.executor.sleep_until(started.deadline(each));
                self.executor.block_on(sleep);
                (started.seconds() - each.as_secs_f64()).max(0.0) * 1e6
            })
            .collect()
    }

    pub fn shutdown(self) {
        drop(self.ping);
        self.executor.shutdown();
    }
}

// ----------------------------------------------------------------- host

/// `n` function draws `Rng::zipf(functions, s)` from `seed`.
pub fn zipf_draws(seed: u64, n: usize, functions: usize, s: f64) -> Vec<u32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.zipf(functions, s) as u32).collect()
}

/// A running `FaasHost` serving echo functions under CIDRE.
pub struct Host(FaasHost);

/// An invocation in flight.
pub struct Pending(InvokeHandle);

impl Host {
    /// `functions` echo functions of `mem_mb` each, `cold_ms` simulated
    /// cold start, on one worker of `worker_mb`; two executor threads,
    /// one simulated second per real millisecond.
    pub fn start(functions: u32, mem_mb: u32, cold_ms: u64, worker_mb: u64) -> Self {
        let config = LiveConfig::default()
            .sim(SimConfig::default().workers_mb(vec![worker_mb]))
            .time_scale(0.001)
            .exec_threads(2);
        let echo: faas_live::Handler = Arc::new(|payload: Vec<u8>| payload);
        let deployments = (0..functions)
            .map(|i| {
                let profile = FunctionProfile::new(
                    FunctionId(i),
                    format!("echo-{i}"),
                    mem_mb,
                    TimeDelta::from_millis(cold_ms),
                );
                (profile, Arc::clone(&echo))
            })
            .collect();
        Host(FaasHost::start(
            config,
            cidre_stack(CidreConfig::default()),
            deployments,
        ))
    }

    pub fn invoke(&self, func: u32, payload: Vec<u8>) -> Pending {
        Pending(self.0.invoke(FunctionId(func), payload))
    }

    /// Drains the host; the report has one record per invocation.
    pub fn shutdown(self) -> Outcome {
        Outcome(self.0.shutdown())
    }
}

impl Pending {
    /// The handler's output, or `None` if the host dropped the request.
    pub fn wait(self) -> Option<Vec<u8>> {
        self.0.wait().map(|outcome| outcome.output)
    }
}
