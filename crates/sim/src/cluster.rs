//! Cluster state: workers, live containers, and per-function runtime
//! bookkeeping. All state transitions preserving invariants live here;
//! the engine sequences them.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use faas_core::{FreeThreadPool, IdBuildHasher, PendingQueue};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

use crate::config::{Placement, ScanMode};
use crate::container::{Container, ContainerInfo, ContainerState};
use crate::ids::{ContainerId, RequestId, WorkerId};
use crate::ledger::CostLedger;

/// One simulated server with a fixed memory capacity.
#[derive(Debug, Clone)]
pub struct Worker {
    /// The worker's id.
    pub id: WorkerId,
    /// Total container memory this worker can host, in MB.
    pub capacity_mb: u64,
    /// Memory currently charged by provisioning/warm containers, in MB.
    pub used_mb: u64,
    /// Fully idle (evictable) containers on this worker, unordered:
    /// membership changes twice per warm request and nothing observes
    /// an order (see [`Worker::idle_ids`], the one place it is walked).
    idle: HashSet<ContainerId, IdBuildHasher>,
    /// Aggregate memory of the containers in `idle`, in MB (kept
    /// incrementally: placement reads it per worker on every pick).
    pub idle_mb: u64,
    /// Whether the worker is up. Crashed workers (fault injection) stay
    /// down for the rest of the run and host no new containers.
    pub alive: bool,
}

impl Worker {
    /// Free (uncharged) memory in MB.
    pub fn free_mb(&self) -> u64 {
        self.capacity_mb - self.used_mb
    }

    /// Memory reclaimable by evicting every idle container, plus free.
    pub fn reclaimable_mb(&self) -> u64 {
        self.free_mb() + self.idle_mb
    }

    /// The fully idle containers on this worker, in no particular order:
    /// the one place the set is walked. A caller that lets the order
    /// show must sort by something total, as the eviction rounds do
    /// (`RoundHeap` and `reference::sorted_eviction_candidates` both
    /// order the candidates built from this by `(priority, id)`).
    #[expect(
        clippy::disallowed_methods,
        reason = "eviction sorts by (priority, id), total over unique ids; validate sums"
    )]
    pub fn idle_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.idle.iter().copied()
    }
}

/// Per-function aggregate statistics exposed to policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct FnStats {
    /// Requests that have ever arrived for this function.
    pub invocations: u64,
    /// Arrival time of the function's first request.
    pub first_arrival: Option<TimePoint>,
    /// Requests that have finished executing.
    pub completions: u64,
}

/// Per-function runtime state.
#[derive(Debug, Clone, Default)]
pub struct FnRuntime {
    /// Function-wide wait channel (the paper's per-function FIFO). Each
    /// entry is a request id flagged *cold-only* (may only be served by
    /// a newly provisioned container; freed busy containers skip it) or
    /// flexible. The split-deque representation makes "pop the first
    /// non-cold-only entry" O(1) instead of a positional scan.
    pub pending: PendingQueue<RequestId>,
    /// Number of containers currently provisioning (which ones is in
    /// the container table; only the count is ever asked for).
    pub provisioning: u32,
    /// Warm containers with at least one free thread, keyed by
    /// `threads_in_use` so the scheduler's "most-loaded non-saturated
    /// container" pick is O(log n). Beside the container's own
    /// `threads_in_use`, this is the only record of who has a free
    /// thread: the cluster mutators update it at every thread
    /// transition and `validate` proves it against the container table.
    pub free_pool: FreeThreadPool<ContainerId>,
    /// All warm containers (idle or busy) of this function.
    pub warm: BTreeSet<ContainerId>,
    /// Aggregate statistics.
    pub stats: FnStats,
}

/// Full mutable cluster state.
///
/// Exposed to policies only through the read-only [`PolicyCtx`]. The
/// mutating methods enforce the memory-accounting and state-set
/// invariants and panic on misuse (they are internal to the engine).
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// The workers, indexed by id. `MaxFree` placement scans them: their
    /// free and reclaimable memory change twice per request and are
    /// asked for once per provision (DESIGN.md §7).
    workers: Vec<Worker>,
    /// Every live (warm or provisioning) container, found by hash: the
    /// per-event path looks ids up and never walks the table. Ids are
    /// still handed out sequentially; the three views whose order is
    /// observable — [`ClusterState::all_iter`], `all_containers`,
    /// `containers_on` — sort on demand (DESIGN.md §7).
    containers: HashMap<ContainerId, Container, IdBuildHasher>,
    fns: HashMap<FunctionId, FnRuntime, IdBuildHasher>,
    profiles: HashMap<FunctionId, FunctionProfile, IdBuildHasher>,
    /// All deployed function ids, sorted once at construction (profiles
    /// are fixed for the lifetime of the run).
    function_ids: Vec<FunctionId>,
    next_container: u64,
    thread_capacity: u32,
    placement: Placement,
    scan: ScanMode,
    round_robin_next: usize,
    /// Total containers ever created (cold starts initiated).
    pub containers_created: u64,
    /// Containers evicted by the keep-alive policy.
    pub containers_evicted: u64,
    /// Speculative containers evicted without ever serving a request.
    pub wasted_cold_starts: u64,
    /// Provisions that failed (fault injection) and were abandoned.
    pub provision_failures: u64,
    /// Containers destroyed by worker crashes (fault injection); also
    /// counted in `containers_evicted`.
    pub crash_evictions: u64,
    /// Memory-residency costs and scheduling-work counters, charged
    /// event-by-event by the mutators below (DESIGN.md §11).
    pub ledger: CostLedger,
    /// Latest timestamp any ledger-charging mutator ran at: the
    /// end-of-run settlement point. Post-`finished_at` ticks can still
    /// evict, so the report's completion time is *not* a safe bound.
    ledger_hwm: TimePoint,
    /// Whether [`ClusterState::settle_ledger`] already ran (it may
    /// charge each live container only once).
    settled: bool,
}

impl ClusterState {
    /// Creates a cluster with the given per-worker capacities (MB) and
    /// function profiles.
    ///
    /// # Panics
    ///
    /// Panics if `worker_capacities_mb` is empty or has more than 65 536
    /// entries (a [`WorkerId`] is a `u16`), or `thread_capacity` is 0.
    pub fn new(
        worker_capacities_mb: &[u64],
        profile_src: impl IntoIterator<Item = FunctionProfile>,
        thread_capacity: u32,
    ) -> Self {
        Self::with_placement(
            worker_capacities_mb,
            profile_src,
            thread_capacity,
            Placement::MaxFree,
        )
    }

    /// Like [`ClusterState::new`] with an explicit placement strategy.
    ///
    /// # Panics
    ///
    /// Panics if `worker_capacities_mb` is empty or has more than 65 536
    /// entries (a [`WorkerId`] is a `u16`), or `thread_capacity` is 0.
    pub fn with_placement(
        worker_capacities_mb: &[u64],
        profile_src: impl IntoIterator<Item = FunctionProfile>,
        thread_capacity: u32,
        placement: Placement,
    ) -> Self {
        assert!(
            !worker_capacities_mb.is_empty(),
            "cluster needs at least one worker"
        );
        assert!(
            worker_capacities_mb.len() <= usize::from(u16::MAX) + 1,
            "cluster has {} workers; a WorkerId is a u16, so at most 65536",
            worker_capacities_mb.len()
        );
        assert!(thread_capacity > 0, "containers need at least one thread");
        let workers = worker_capacities_mb
            .iter()
            .enumerate()
            .map(|(i, &cap)| Worker {
                id: WorkerId(u16::try_from(i).expect("worker count asserted above")),
                capacity_mb: cap,
                used_mb: 0,
                idle: HashSet::default(),
                idle_mb: 0,
                alive: true,
            })
            .collect::<Vec<_>>();
        let profiles: HashMap<FunctionId, FunctionProfile, IdBuildHasher> =
            profile_src.into_iter().map(|p| (p.id, p)).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the keys are sorted immediately below"
        )]
        let mut function_ids: Vec<FunctionId> = profiles.keys().copied().collect();
        function_ids.sort_unstable();
        Self {
            workers,
            containers: HashMap::default(),
            fns: HashMap::default(),
            profiles,
            function_ids,
            next_container: 0,
            thread_capacity,
            placement,
            scan: ScanMode::Indexed,
            round_robin_next: 0,
            containers_created: 0,
            containers_evicted: 0,
            wasted_cold_starts: 0,
            provision_failures: 0,
            crash_evictions: 0,
            ledger: CostLedger::default(),
            ledger_hwm: TimePoint::ZERO,
            settled: false,
        }
    }

    /// Memory × elapsed-time charge for one container over `[from, now]`
    /// in MB·µs (saturating at zero for inverted spans, which only the
    /// live substrate's wall-clock jitter can produce).
    fn residency(mem_mb: u32, from: TimePoint, now: TimePoint) -> u128 {
        u128::from(mem_mb) * u128::from(now.saturating_since(from).as_micros())
    }

    /// Advances the ledger's settlement high-water mark.
    fn touch_ledger(&mut self, now: TimePoint) {
        self.ledger_hwm = self.ledger_hwm.max(now);
    }

    /// Counts one REPLACE admission that evicted at least one victim.
    pub fn note_replace_round(&mut self) {
        self.ledger.replace_rounds += 1;
    }

    /// Closes the ledger at end of run: charges every still-alive
    /// container's residency through the latest time any charging
    /// mutator ran at, and returns that time. Must be called exactly
    /// once.
    ///
    /// # Panics
    ///
    /// Panics on a second settlement — it would corrupt the
    /// conservation property.
    pub fn settle_ledger(&mut self) -> TimePoint {
        assert!(!self.settled, "ledger settled twice");
        self.settled = true;
        let end = self.ledger_hwm;
        let ledger = &mut self.ledger;
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "integer sums per cost class; iteration order is moot"
        )]
        for c in self.containers.values() {
            match c.state {
                ContainerState::Provisioning => {
                    ledger.cold_start_mb_us += Self::residency(c.mem_mb, c.created_at, end);
                }
                ContainerState::Warm => {
                    ledger.keep_warm_mb_us += Self::residency(c.mem_mb, c.warm_at, end);
                    if c.threads_in_use == 0 {
                        ledger.idle_mb_us += Self::residency(c.mem_mb, c.idle_from, end);
                    }
                    if c.speculative_unused {
                        ledger.speculative_mb_us += Self::residency(c.mem_mb, c.created_at, end);
                    }
                }
            }
        }
        end
    }

    /// Selects the hot-path implementation (indexed pools vs the
    /// retained reference scans). Defaults to [`ScanMode::Indexed`].
    pub fn set_scan(&mut self, scan: ScanMode) {
        self.scan = scan;
    }

    /// The configured hot-path implementation.
    pub fn scan(&self) -> ScanMode {
        self.scan
    }

    /// The function profile for `func`.
    ///
    /// # Panics
    ///
    /// Panics if the function is unknown (trace consistency guarantees
    /// this cannot happen for trace-driven requests).
    pub fn profile(&self, func: FunctionId) -> &FunctionProfile {
        self.profiles.get(&func).expect("unknown function profile")
    }

    /// All function profiles, in ascending [`FunctionId`] order.
    pub fn profiles(&self) -> impl Iterator<Item = &FunctionProfile> {
        self.function_ids.iter().map(|id| self.profile(*id))
    }

    /// Immutable view of a live container.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Appends a request to a container's local queue (the `EnqueueOn`
    /// scaling path). Returns `false` if the container is not live.
    pub fn enqueue_local(&mut self, id: ContainerId, req: RequestId) -> bool {
        match self.containers.get_mut(&id) {
            Some(c) => {
                c.local_queue.push_back(req);
                true
            }
            None => false,
        }
    }

    /// Pops the next request from a container's local queue.
    pub fn dequeue_local(&mut self, id: ContainerId) -> Option<RequestId> {
        self.containers.get_mut(&id)?.local_queue.pop_front()
    }

    /// Per-function runtime state, creating it lazily.
    pub fn fn_runtime_mut(&mut self, func: FunctionId) -> &mut FnRuntime {
        self.fns.entry(func).or_default()
    }

    /// Per-function runtime state, if the function has been seen.
    pub fn fn_runtime(&self, func: FunctionId) -> Option<&FnRuntime> {
        self.fns.get(&func)
    }

    /// The workers.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Total memory charged across all workers, in MB.
    pub fn used_mb(&self) -> u64 {
        self.workers.iter().map(|w| w.used_mb).sum()
    }

    /// Total memory capacity across all workers, in MB.
    pub fn capacity_mb(&self) -> u64 {
        self.workers.iter().map(|w| w.capacity_mb).sum()
    }

    /// Records a request arrival in the function's statistics.
    pub fn note_arrival(&mut self, func: FunctionId, now: TimePoint) {
        let stats = &mut self.fn_runtime_mut(func).stats;
        stats.invocations += 1;
        stats.first_arrival.get_or_insert(now);
    }

    /// Records a request completion in the function's statistics.
    pub fn note_completion(&mut self, func: FunctionId) {
        self.fn_runtime_mut(func).stats.completions += 1;
    }

    /// Picks the worker to host a new `mem_mb` container according to
    /// the configured [`Placement`] strategy. Workers that cannot fit the
    /// container even after evicting every idle container are never
    /// chosen; returns `None` when no worker can.
    pub fn pick_worker(&mut self, mem_mb: u32) -> Option<WorkerId> {
        let need = u64::from(mem_mb);
        match self.placement {
            // Two filter-then-max passes: the alive worker with the most
            // free memory that already fits, else (under pressure) the
            // one with the most free-plus-idle reclaimable memory. Ties
            // break toward the lowest worker id.
            Placement::MaxFree => {
                let alive = || self.workers.iter().filter(|w| w.alive);
                if let Some(w) = alive()
                    .filter(|w| w.free_mb() >= need)
                    .max_by_key(|w| (w.free_mb(), Reverse(w.id)))
                {
                    return Some(w.id);
                }
                alive()
                    .filter(|w| w.reclaimable_mb() >= need)
                    .max_by_key(|w| (w.reclaimable_mb(), Reverse(w.id)))
                    .map(|w| w.id)
            }
            Placement::FirstFit => {
                if let Some(w) = self.workers.iter().find(|w| w.alive && w.free_mb() >= need) {
                    return Some(w.id);
                }
                self.workers
                    .iter()
                    .find(|w| w.alive && w.reclaimable_mb() >= need)
                    .map(|w| w.id)
            }
            Placement::RoundRobin => {
                let n = self.workers.len();
                // First pass: free memory; second pass: reclaimable.
                for pass in 0..2 {
                    for off in 0..n {
                        let idx = (self.round_robin_next + off) % n;
                        let w = &self.workers[idx];
                        if !w.alive {
                            continue;
                        }
                        let fits = if pass == 0 {
                            w.free_mb() >= need
                        } else {
                            w.reclaimable_mb() >= need
                        };
                        if fits {
                            self.round_robin_next = (idx + 1) % n;
                            return Some(w.id);
                        }
                    }
                }
                None
            }
        }
    }

    /// Starts provisioning a container for `func` on `worker`, charging
    /// its memory. The caller must have made room first.
    ///
    /// # Panics
    ///
    /// Panics if the worker lacks free memory.
    pub fn begin_provision(
        &mut self,
        func: FunctionId,
        worker: WorkerId,
        now: TimePoint,
        speculative: bool,
    ) -> ContainerId {
        let profile = self.profile(func);
        let (mem_mb, cold_start) = (profile.mem_mb, profile.cold_start);
        let w = &mut self.workers[worker.0 as usize];
        assert!(
            w.free_mb() >= u64::from(mem_mb),
            "begin_provision without room: need {} MB, free {} MB",
            mem_mb,
            w.free_mb()
        );
        w.used_mb += u64::from(mem_mb);
        self.touch_ledger(now);
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers_created += 1;
        let container = Container {
            id,
            func,
            worker,
            mem_mb,
            cold_start,
            state: ContainerState::Provisioning,
            created_at: now,
            warm_at: now,
            last_used: now,
            idle_from: now,
            served: 0,
            threads_in_use: 0,
            thread_capacity: self.thread_capacity,
            speculative_unused: speculative,
            local_queue: VecDeque::new(),
        };
        self.containers.insert(id, container);
        self.fn_runtime_mut(func).provisioning += 1;
        id
    }

    /// Marks a provisioning container warm and idle.
    pub fn finish_provision(&mut self, id: ContainerId, now: TimePoint) {
        let c = self
            .containers
            .get_mut(&id)
            .expect("finish_provision of unknown container");
        assert_eq!(
            c.state,
            ContainerState::Provisioning,
            "container already warm"
        );
        c.state = ContainerState::Warm;
        // The provisioning phase ends here: charge it and open the
        // warm/idle phases.
        let cold_charge = Self::residency(c.mem_mb, c.created_at, now);
        c.warm_at = now;
        c.idle_from = now;
        let (func, worker, mem) = (c.func, c.worker, u64::from(c.mem_mb));
        self.ledger.cold_start_mb_us += cold_charge;
        self.touch_ledger(now);
        let rt = self.fn_runtime_mut(func);
        rt.provisioning -= 1;
        rt.free_pool.set(id, 0);
        rt.warm.insert(id);
        let w = &mut self.workers[worker.0 as usize];
        if w.idle.insert(id) {
            w.idle_mb += mem;
        }
    }

    /// Occupies one execution thread on a warm container.
    ///
    /// # Panics
    ///
    /// Panics if the container has no free thread.
    pub fn occupy_thread(&mut self, id: ContainerId, now: TimePoint) {
        let c = self
            .containers
            .get_mut(&id)
            .expect("occupy_thread of unknown container");
        assert!(
            c.has_free_thread(),
            "occupy_thread on unavailable container"
        );
        let was_idle = c.threads_in_use == 0;
        // The idle phase (if any) ends with this dispatch.
        let idle_charge = if was_idle {
            Self::residency(c.mem_mb, c.idle_from, now)
        } else {
            0
        };
        c.threads_in_use += 1;
        c.last_used = now;
        c.served += 1;
        c.speculative_unused = false;
        let (func, worker, threads, saturated, mem) = (
            c.func,
            c.worker,
            c.threads_in_use,
            c.is_saturated(),
            u64::from(c.mem_mb),
        );
        self.ledger.idle_mb_us += idle_charge;
        self.ledger.dispatches += 1;
        self.touch_ledger(now);
        let rt = self.fn_runtime_mut(func);
        if saturated {
            rt.free_pool.remove(id);
        } else {
            rt.free_pool.set(id, threads);
        }
        if was_idle {
            let w = &mut self.workers[worker.0 as usize];
            if w.idle.remove(&id) {
                w.idle_mb -= mem;
            }
        }
    }

    /// Releases one execution thread on a busy container. `now` opens
    /// the ledger's wasted-idle window when the container goes idle.
    ///
    /// # Panics
    ///
    /// Panics if the container has no occupied thread.
    pub fn release_thread(&mut self, id: ContainerId, now: TimePoint) {
        let c = self
            .containers
            .get_mut(&id)
            .expect("release_thread of unknown container");
        assert!(c.threads_in_use > 0, "release_thread on idle container");
        c.threads_in_use -= 1;
        if c.threads_in_use == 0 {
            c.idle_from = now;
        }
        let (func, worker, threads, now_idle, mem) = (
            c.func,
            c.worker,
            c.threads_in_use,
            c.threads_in_use == 0,
            u64::from(c.mem_mb),
        );
        self.touch_ledger(now);
        let rt = self.fn_runtime_mut(func);
        rt.free_pool.set(id, threads);
        if now_idle {
            let w = &mut self.workers[worker.0 as usize];
            if w.idle.insert(id) {
                w.idle_mb += mem;
            }
        }
    }

    /// Evicts a fully idle warm container, releasing its memory. Returns
    /// its final snapshot. `now` closes the ledger's warm and idle
    /// windows (and the speculative-waste window for unused racers).
    ///
    /// # Panics
    ///
    /// Panics if the container is not idle.
    pub fn evict(&mut self, id: ContainerId, now: TimePoint) -> ContainerInfo {
        let c = self
            .containers
            .remove(&id)
            .expect("evict of unknown container");
        assert!(c.is_idle(), "can only evict idle containers");
        assert!(
            c.local_queue.is_empty(),
            "evicting container with queued requests"
        );
        let info = ContainerInfo::from(&c);
        self.ledger.keep_warm_mb_us += Self::residency(c.mem_mb, c.warm_at, now);
        self.ledger.idle_mb_us += Self::residency(c.mem_mb, c.idle_from, now);
        if c.speculative_unused {
            self.wasted_cold_starts += 1;
            self.ledger.speculative_mb_us += Self::residency(c.mem_mb, c.created_at, now);
        }
        self.touch_ledger(now);
        self.containers_evicted += 1;
        let rt = self.fn_runtime_mut(c.func);
        rt.free_pool.remove(id);
        rt.warm.remove(&id);
        let w = &mut self.workers[c.worker.0 as usize];
        if w.idle.remove(&id) {
            w.idle_mb -= u64::from(c.mem_mb);
        }
        w.used_mb -= u64::from(c.mem_mb);
        info
    }

    /// Whether `worker` is up.
    pub fn worker_is_alive(&self, worker: WorkerId) -> bool {
        self.workers[worker.0 as usize].alive
    }

    /// Marks a worker as crashed (fault injection). The caller must
    /// [`ClusterState::crash_evict`] its containers; the worker hosts no
    /// new ones for the rest of the run.
    pub fn mark_worker_down(&mut self, worker: WorkerId) {
        self.workers[worker.0 as usize].alive = false;
    }

    /// Ids of every live (warm or provisioning) container hosted on
    /// `worker`, ascending: crash repair evicts, voids and re-queues in
    /// this order, and the trace shows it.
    pub fn containers_on(&self, worker: WorkerId) -> Vec<ContainerId> {
        #[expect(
            clippy::disallowed_methods,
            reason = "collected in table order, sorted right below"
        )]
        let hosted = self.containers.values().filter(|c| c.worker == worker);
        let mut ids: Vec<ContainerId> = hosted.map(|c| c.id).collect();
        ids.sort_unstable();
        ids
    }

    /// Abandons a provisioning container whose provision failed (fault
    /// injection), releasing its memory. Returns its final snapshot.
    /// `now` closes the ledger's provisioning window; a failed
    /// speculative provision burned its whole residency for nobody, so
    /// it is also charged as speculative waste (mirroring the Ti = ∞
    /// hint the engine feeds CSS).
    ///
    /// # Panics
    ///
    /// Panics if the container is not in the `Provisioning` state.
    pub fn fail_provision(&mut self, id: ContainerId, now: TimePoint) -> ContainerInfo {
        let c = self
            .containers
            .remove(&id)
            .expect("fail_provision of unknown container");
        assert_eq!(
            c.state,
            ContainerState::Provisioning,
            "can only fail a provisioning container"
        );
        let info = ContainerInfo::from(&c);
        self.ledger.cold_start_mb_us += Self::residency(c.mem_mb, c.created_at, now);
        if c.speculative_unused {
            self.ledger.speculative_mb_us += Self::residency(c.mem_mb, c.created_at, now);
        }
        self.touch_ledger(now);
        self.provision_failures += 1;
        self.fn_runtime_mut(c.func).provisioning -= 1;
        self.workers[c.worker.0 as usize].used_mb -= u64::from(c.mem_mb);
        info
    }

    /// Force-removes a container in any state — provisioning, idle, or
    /// busy — because its worker crashed. Returns the final snapshot and
    /// the drained local queue (the engine re-queues those requests on
    /// the function channel). A still-unused speculative container that
    /// had turned warm counts as a wasted cold start; one that never
    /// finished provisioning does not (it is the engine's job to signal
    /// the scaler about failed provisions, not crashes).
    pub fn crash_evict(
        &mut self,
        id: ContainerId,
        now: TimePoint,
    ) -> (ContainerInfo, Vec<RequestId>) {
        let mut c = self
            .containers
            .remove(&id)
            .expect("crash_evict of unknown container");
        let info = ContainerInfo::from(&c);
        let queued: Vec<RequestId> = c.local_queue.drain(..).collect();
        // Ledger: charge whichever lifecycle phase the crash interrupts
        // (mid-provision residency goes to the cold-start class).
        match c.state {
            ContainerState::Provisioning => {
                self.ledger.cold_start_mb_us += Self::residency(c.mem_mb, c.created_at, now);
            }
            ContainerState::Warm => {
                self.ledger.keep_warm_mb_us += Self::residency(c.mem_mb, c.warm_at, now);
                if c.threads_in_use == 0 {
                    self.ledger.idle_mb_us += Self::residency(c.mem_mb, c.idle_from, now);
                }
            }
        }
        if c.state == ContainerState::Warm && c.speculative_unused {
            self.wasted_cold_starts += 1;
            // Same warm-only rule as `wasted_cold_starts`: a crash says
            // nothing about a still-provisioning racer's usefulness.
            self.ledger.speculative_mb_us += Self::residency(c.mem_mb, c.created_at, now);
        }
        self.touch_ledger(now);
        self.containers_evicted += 1;
        self.crash_evictions += 1;
        let rt = self.fn_runtime_mut(c.func);
        match c.state {
            ContainerState::Provisioning => rt.provisioning -= 1,
            ContainerState::Warm => {
                rt.free_pool.remove(id);
                rt.warm.remove(&id);
            }
        }
        let w = &mut self.workers[c.worker.0 as usize];
        if w.idle.remove(&id) {
            w.idle_mb -= u64::from(c.mem_mb);
        }
        w.used_mb -= u64::from(c.mem_mb);
        (info, queued)
    }

    /// Requests waiting across every function channel.
    #[expect(
        clippy::disallowed_methods,
        reason = "an order-independent sum; iteration order is moot"
    )]
    pub fn total_pending(&self) -> usize {
        self.fns.values().map(|rt| rt.pending.len()).sum()
    }

    /// Requests waiting across every container-local queue.
    #[expect(
        clippy::disallowed_methods,
        reason = "an order-independent sum; iteration order is moot"
    )]
    pub fn total_local_queued(&self) -> usize {
        self.containers.values().map(|c| c.local_queue.len()).sum()
    }

    /// Checks every internal bookkeeping invariant: per-worker memory
    /// accounting matches the hosted containers and stays within
    /// capacity, idle sets hold exactly the fully idle containers, and
    /// the per-function indexes agree with the container table — in both
    /// directions: every index entry names a container in that state
    /// (the indexes are sound), and every container sits in each index
    /// its state calls for (they are complete). The free pool and the
    /// provisioning count have no set beside them to be compared with:
    /// each is proved against the table itself, by key and by number.
    ///
    /// # Panics
    ///
    /// Panics on any violated invariant (a bug in the engine or cluster).
    pub fn validate(&self) {
        // Completeness, in one pass over the table. A warm idle container
        // missing from its worker's idle set is never evictable and
        // leaves `reclaimable_mb` — what placement reads — too low; one
        // with a free thread missing from the pool is never picked.
        let mut hosted_mb = vec![0u64; self.workers.len()];
        // Per function, what the table holds: (provisioning containers,
        // containers with a free thread).
        let mut tally: HashMap<FunctionId, (u32, usize), IdBuildHasher> = HashMap::default();
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "integer sums and asserts; order only picks which panic fires"
        )]
        for c in self.containers.values() {
            let w = &self.workers[usize::from(c.worker.0)];
            hosted_mb[usize::from(c.worker.0)] += u64::from(c.mem_mb);
            let rt = self.fns.get(&c.func).expect("container without fn runtime");
            let (provisioning, free) = tally.entry(c.func).or_default();
            match c.state {
                ContainerState::Provisioning => *provisioning += 1,
                ContainerState::Warm => assert!(rt.warm.contains(&c.id)),
            }
            assert!(
                !c.is_idle() || w.idle.contains(&c.id),
                "idle container {:?} missing from the idle set of {:?}",
                c.id,
                w.id
            );
            if c.has_free_thread() {
                *free += 1;
                let key = rt.free_pool.key_of(c.id);
                assert!(
                    key.is_some(),
                    "container {:?} has a free thread but is missing from the free pool",
                    c.id
                );
                assert_eq!(
                    key,
                    Some(c.threads_in_use),
                    "free pool key drifted for {:?}",
                    c.id
                );
            }
        }
        for (w, &sum) in self.workers.iter().zip(&hosted_mb) {
            assert_eq!(
                w.used_mb, sum,
                "worker {:?}: charged {} MB but containers hold {} MB",
                w.id, w.used_mb, sum
            );
            assert!(
                w.used_mb <= w.capacity_mb,
                "worker {:?} over capacity: {} > {} MB",
                w.id,
                w.used_mb,
                w.capacity_mb
            );
            let mut idle_sum = 0;
            for id in w.idle_ids() {
                let c = self
                    .containers
                    .get(&id)
                    .expect("idle set references dead container");
                assert!(
                    c.worker == w.id && c.is_idle(),
                    "non-idle container {id:?} in idle set"
                );
                idle_sum += u64::from(c.mem_mb);
            }
            assert_eq!(w.idle_mb, idle_sum, "worker {:?} idle_mb drifted", w.id);
        }
        #[expect(
            clippy::iter_over_hash_type,
            reason = "invariant checks; order only picks which panic fires"
        )]
        for (func, rt) in &self.fns {
            let (provisioning, free) = tally.get(func).copied().unwrap_or_default();
            assert_eq!(
                rt.provisioning, provisioning,
                "provisioning count drifted for {func:?}"
            );
            // Every free-thread container is in the pool under its own
            // key (first pass), so a longer pool holds a stale entry: a
            // saturated, dead or foreign container `pick` could return.
            assert_eq!(
                rt.free_pool.len(),
                free,
                "stale entry in the free pool of {func:?}"
            );
            for id in &rt.warm {
                let c = self
                    .containers
                    .get(id)
                    .expect("warm set references dead container");
                assert!(c.func == *func && c.state == ContainerState::Warm);
            }
        }
    }

    /// Picks the container a new request should run on: among warm
    /// containers of `func` with a free thread, the most loaded
    /// non-saturated one (packing requests tightly keeps more containers
    /// fully idle and thus evictable); ties break toward the oldest id.
    pub fn pick_available(&self, func: FunctionId) -> Option<ContainerId> {
        match self.scan {
            // The pool keys each container by its live `threads_in_use`,
            // so its max is the same `(threads_in_use, Reverse(id))`
            // argmax the reference scan computes.
            ScanMode::Indexed => self.fns.get(&func)?.free_pool.pick(),
            ScanMode::Reference => crate::reference::pick_available(self, func),
        }
    }

    /// Number of warm containers (idle or busy) for `func` — the paper's
    /// `|F(c)|`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "read by policy callbacks on every decision; the cluster's memory bounds \
                  a function's containers far below 2^32"
    )]
    pub fn warm_count(&self, func: FunctionId) -> u32 {
        self.fns
            .get(&func)
            .map(|rt| rt.warm.len() as u32)
            .unwrap_or(0)
    }

    /// Earliest time at which some currently busy thread of `func`
    /// finishes, given the engine-maintained completion times. Used by
    /// the oracle policy only.
    pub fn oracle_earliest_free(
        &self,
        func: FunctionId,
        busy_until: &HashMap<ContainerId, Vec<TimePoint>>,
    ) -> Option<TimePoint> {
        let rt = self.fns.get(&func)?;
        rt.warm
            .iter()
            .filter_map(|cid| busy_until.get(cid))
            .flat_map(|ends| ends.iter().copied())
            .min()
    }

    /// Iterates over warm, saturated containers of `func` (candidates for
    /// `EnqueueOn` decisions).
    pub fn saturated_containers(&self, func: FunctionId) -> Vec<ContainerInfo> {
        match self.fns.get(&func) {
            None => Vec::new(),
            Some(rt) => rt
                .warm
                .iter()
                .map(|cid| &self.containers[cid])
                .filter(|c| c.is_saturated())
                .map(ContainerInfo::from)
                .collect(),
        }
    }

    /// Iterates over warm, saturated containers of `func` without
    /// allocating (the borrow-based flavor of
    /// [`ClusterState::saturated_containers`]).
    pub fn saturated_iter(&self, func: FunctionId) -> impl Iterator<Item = &Container> + '_ {
        self.fns
            .get(&func)
            .into_iter()
            .flat_map(|rt| rt.warm.iter())
            .map(|cid| &self.containers[cid])
            .filter(|c| c.is_saturated())
    }

    /// Snapshot of every live (warm or provisioning) container, in id
    /// order.
    pub fn all_containers(&self) -> Vec<ContainerInfo> {
        self.all_iter().map(ContainerInfo::from).collect()
    }

    /// Iterates over every live container in id order (the borrow-based
    /// flavor of [`ClusterState::all_containers`]). The order is
    /// observable — tick-time `expirations` evict in the order this
    /// yields — so the table is sorted here, once per call: callers sit
    /// on tick, crash and end-of-run paths, never on a per-request one.
    pub fn all_iter(&self) -> impl Iterator<Item = &Container> + '_ {
        #[expect(
            clippy::disallowed_methods,
            reason = "collected in table order, sorted right below"
        )]
        let mut live: Vec<&Container> = self.containers.values().collect();
        live.sort_unstable_by_key(|c| c.id);
        live.into_iter()
    }

    /// All deployed function ids, sorted (fixed at construction).
    pub fn function_ids(&self) -> &[FunctionId] {
        &self.function_ids
    }

    /// Average invocations per minute since the function's first request
    /// (the paper's Eq. 4), with the elapsed time clamped to at least one
    /// second to keep early estimates finite.
    #[expect(
        clippy::cast_precision_loss,
        reason = "invocation counts sit far below 2^53 — exact in f64"
    )]
    pub fn freq_per_minute(&self, func: FunctionId, now: TimePoint) -> f64 {
        let Some(rt) = self.fns.get(&func) else {
            return 0.0;
        };
        let Some(first) = rt.stats.first_arrival else {
            return 0.0;
        };
        let minutes = (now.saturating_since(first).as_secs_f64() / 60.0).max(1.0 / 60.0);
        rt.stats.invocations as f64 / minutes
    }
}

/// Read-only view of the cluster passed to policy callbacks.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCtx<'a> {
    /// Current simulated time.
    pub now: TimePoint,
    cluster: &'a ClusterState,
    busy_until: &'a HashMap<ContainerId, Vec<TimePoint>>,
}

impl<'a> PolicyCtx<'a> {
    /// Creates a view at time `now`.
    pub fn new(
        now: TimePoint,
        cluster: &'a ClusterState,
        busy_until: &'a HashMap<ContainerId, Vec<TimePoint>>,
    ) -> Self {
        Self {
            now,
            cluster,
            busy_until,
        }
    }

    /// The function profile (memory, cold-start latency).
    pub fn profile(&self, func: FunctionId) -> &'a FunctionProfile {
        self.cluster.profile(func)
    }

    /// Snapshot of a live container.
    pub fn container(&self, id: ContainerId) -> Option<ContainerInfo> {
        self.cluster.container(id).map(ContainerInfo::from)
    }

    /// `|F(c)|`: warm containers (idle or busy) of the function.
    pub fn warm_count(&self, func: FunctionId) -> u32 {
        self.cluster.warm_count(func)
    }

    /// Containers currently provisioning for the function.
    pub fn provisioning_count(&self, func: FunctionId) -> u32 {
        let rt = self.cluster.fn_runtime(func);
        rt.map_or(0, |rt| rt.provisioning)
    }

    /// Requests waiting in the function's channel.
    pub fn pending_len(&self, func: FunctionId) -> usize {
        let rt = self.cluster.fn_runtime(func);
        rt.map_or(0, |rt| rt.pending.len())
    }

    /// Total invocations the function has ever received.
    pub fn invocations(&self, func: FunctionId) -> u64 {
        let rt = self.cluster.fn_runtime(func);
        rt.map_or(0, |rt| rt.stats.invocations)
    }

    /// The paper's Eq. 4: average invocations per minute over the
    /// function's lifetime.
    pub fn freq_per_minute(&self, func: FunctionId) -> f64 {
        self.cluster.freq_per_minute(func, self.now)
    }

    /// Warm, saturated containers of the function.
    pub fn saturated_containers(&self, func: FunctionId) -> Vec<ContainerInfo> {
        self.cluster.saturated_containers(func)
    }

    /// Iterates warm, saturated containers of the function without
    /// allocating a snapshot vector (preferred on hot decision paths).
    pub fn saturated_iter(&self, func: FunctionId) -> impl Iterator<Item = &'a Container> + 'a {
        self.cluster.saturated_iter(func)
    }

    /// Number of warm, saturated containers of the function.
    pub fn saturated_count(&self, func: FunctionId) -> usize {
        self.saturated_iter(func).count()
    }

    /// Snapshot of every live container (used by prewarming baselines).
    pub fn all_containers(&self) -> Vec<ContainerInfo> {
        self.cluster.all_containers()
    }

    /// Iterates every live container in id order, borrowing instead of
    /// snapshotting. The order is sorted per call: this is for tick-time
    /// walks (`expirations`, prewarming), not per-request decisions.
    pub fn all_iter(&self) -> impl Iterator<Item = &'a Container> + 'a {
        self.cluster.all_iter()
    }

    /// All deployed function ids, sorted (used by prewarming baselines to
    /// scan demand). Borrowed from the cluster's construction-time list —
    /// no per-call allocation.
    pub fn functions(&self) -> &'a [FunctionId] {
        self.cluster.function_ids()
    }

    /// Memory currently in use across the cluster, in MB.
    pub fn used_mb(&self) -> u64 {
        self.cluster.used_mb()
    }

    /// Total cluster memory capacity, in MB.
    pub fn capacity_mb(&self) -> u64 {
        self.cluster.capacity_mb()
    }

    /// **Oracle only**: the remaining execution time of a busy container's
    /// earliest-finishing thread. Online policies must not use this; the
    /// Offline baseline does.
    pub fn oracle_remaining(&self, id: ContainerId) -> Option<TimeDelta> {
        let earliest = self.busy_until.get(&id)?.iter().min()?;
        Some(earliest.saturating_since(self.now))
    }

    /// **Oracle only**: earliest completion among all busy threads of the
    /// function.
    pub fn oracle_earliest_free(&self, func: FunctionId) -> Option<TimePoint> {
        self.cluster.oracle_earliest_free(func, self.busy_until)
    }

    /// **Oracle only**: completion times of every busy thread of the
    /// function, sorted ascending. Lets the Offline baseline compute the
    /// wait a request at queue position `k` would experience.
    pub fn oracle_free_times(&self, func: FunctionId) -> Vec<TimePoint> {
        let Some(rt) = self.cluster.fn_runtime(func) else {
            return Vec::new();
        };
        let mut ends: Vec<TimePoint> = rt
            .warm
            .iter()
            .filter_map(|cid| self.busy_until.get(cid))
            .flat_map(|ends| ends.iter().copied())
            .collect();
        ends.sort_unstable();
        ends
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> Vec<FunctionProfile> {
        vec![
            FunctionProfile::new(FunctionId(0), "a", 100, TimeDelta::from_millis(100)),
            FunctionProfile::new(FunctionId(1), "b", 300, TimeDelta::from_millis(300)),
        ]
    }

    fn cluster(caps: &[u64]) -> ClusterState {
        ClusterState::new(caps, profiles(), 1)
    }

    #[test]
    fn provision_charges_memory() {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        assert_eq!(cl.used_mb(), 100);
        assert_eq!(cl.warm_count(FunctionId(0)), 0);
        cl.finish_provision(id, TimePoint::from_millis(100));
        assert_eq!(cl.warm_count(FunctionId(0)), 1);
        assert!(cl.container(id).expect("live").is_idle());
        assert_eq!(cl.workers()[0].idle.len(), 1);
    }

    #[test]
    fn occupy_and_release_move_sets() {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::from_millis(1));
        assert!(cl.workers()[0].idle.is_empty());
        assert_eq!(cl.pick_available(FunctionId(0)), None);
        cl.release_thread(id, TimePoint::from_millis(2));
        assert_eq!(cl.pick_available(FunctionId(0)), Some(id));
        assert_eq!(cl.workers()[0].idle.len(), 1);
    }

    #[test]
    fn evict_frees_memory_and_counts_waste() {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, true);
        cl.finish_provision(id, TimePoint::ZERO);
        let info = cl.evict(id, TimePoint::from_millis(5));
        assert_eq!(info.id, id);
        assert_eq!(cl.used_mb(), 0);
        assert_eq!(cl.wasted_cold_starts, 1);
        assert_eq!(cl.containers_evicted, 1);
        assert_eq!(cl.warm_count(FunctionId(0)), 0);
    }

    #[test]
    fn served_container_is_not_wasted() {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, true);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::ZERO);
        cl.release_thread(id, TimePoint::ZERO);
        cl.evict(id, TimePoint::ZERO);
        assert_eq!(cl.wasted_cold_starts, 0);
    }

    #[test]
    fn pick_worker_prefers_free_then_reclaimable() {
        let mut cl = cluster(&[400, 200]);
        // Fill worker 0 with an idle 300 MB container.
        let id = cl.begin_provision(FunctionId(1), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        // 300 MB request: worker0 free=100, worker1 free=200 -> neither fits
        // freely; worker0 free+idle=400 fits.
        assert_eq!(cl.pick_worker(300), Some(WorkerId(0)));
        // 100 MB fits freely on both; worker1 has more free (200 vs 100).
        assert_eq!(cl.pick_worker(100), Some(WorkerId(1)));
        // 500 MB fits nowhere.
        assert_eq!(cl.pick_worker(500), None);
    }

    #[test]
    fn pick_available_packs_threads() {
        let mut cl = ClusterState::new(&[10_000], profiles(), 2);
        let a = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        let b = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(a, TimePoint::ZERO);
        cl.finish_provision(b, TimePoint::ZERO);
        cl.occupy_thread(a, TimePoint::ZERO);
        // a has 1/2 threads used, b is idle: pack onto a.
        assert_eq!(cl.pick_available(FunctionId(0)), Some(a));
        cl.occupy_thread(a, TimePoint::ZERO);
        // a saturated now.
        assert_eq!(cl.pick_available(FunctionId(0)), Some(b));
    }

    #[test]
    fn freq_per_minute_decays_with_time() {
        let mut cl = cluster(&[1000]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let f1 = cl.freq_per_minute(FunctionId(0), TimePoint::from_secs(60));
        let f2 = cl.freq_per_minute(FunctionId(0), TimePoint::from_secs(120));
        assert!(f1 > f2);
        assert!((f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn freq_clamps_early_elapsed() {
        let mut cl = cluster(&[1000]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        // 1 invocation after 1 ms: clamped to 1 second elapsed => 60/min.
        let f = cl.freq_per_minute(FunctionId(0), TimePoint::from_millis(1));
        assert!((f - 60.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "only evict idle")]
    fn evicting_busy_panics() {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::ZERO);
        cl.evict(id, TimePoint::ZERO);
    }

    #[test]
    #[should_panic(expected = "without room")]
    fn overcommitting_worker_panics() {
        let mut cl = cluster(&[100]);
        let _ = cl.begin_provision(FunctionId(1), WorkerId(0), TimePoint::ZERO, false);
    }

    /// A `WorkerId` is a `u16`: one worker more than it can name used to
    /// alias worker 65 536 onto worker 0 in every per-worker table.
    #[test]
    #[should_panic(expected = "at most 65536")]
    fn one_worker_more_than_ids_panics() {
        let full = vec![1000; 65_536];
        assert_eq!(cluster(&full).workers().len(), 65_536);
        let mut over = full;
        over.push(1000);
        let _ = cluster(&over);
    }

    /// A cluster whose one container is warm and idle, and which passes
    /// `validate`: each test below plants one inconsistency in an index.
    fn one_idle() -> (ClusterState, ContainerId) {
        let mut cl = cluster(&[1000]);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.validate();
        (cl, id)
    }

    #[test]
    #[should_panic(expected = "missing from the idle set")]
    fn validate_catches_an_idle_container_its_worker_forgot() {
        let (mut cl, id) = one_idle();
        // Sound but incomplete: the set and its running total still agree
        // with each other, and nothing that is in the set is wrong.
        assert!(cl.workers[0].idle.remove(&id));
        cl.workers[0].idle_mb -= 100;
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "non-idle container")]
    fn validate_catches_a_busy_container_in_the_idle_set() {
        let (mut cl, id) = one_idle();
        cl.containers.get_mut(&id).expect("live").threads_in_use = 1;
        cl.fn_runtime_mut(FunctionId(0)).free_pool.remove(id);
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "idle_mb drifted")]
    fn validate_catches_drifted_idle_memory() {
        let (mut cl, _) = one_idle();
        cl.workers[0].idle_mb += 1;
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "missing from the free pool")]
    fn validate_catches_a_free_thread_the_pool_forgot() {
        let (mut cl, id) = one_idle();
        assert!(cl.fn_runtime_mut(FunctionId(0)).free_pool.remove(id));
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "stale entry in the free pool")]
    fn validate_catches_a_stale_pool_entry() {
        let (mut cl, id) = one_idle();
        cl.evict(id, TimePoint::ZERO);
        cl.validate();
        // Sound for nobody: the container is gone, the pool still offers it.
        cl.fn_runtime_mut(FunctionId(0)).free_pool.set(id, 0);
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "free pool key drifted")]
    fn validate_catches_a_pool_key_that_is_not_the_load() {
        let mut cl = ClusterState::new(&[1000], profiles(), 2);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::ZERO);
        cl.validate();
        cl.fn_runtime_mut(FunctionId(0)).free_pool.set(id, 0);
        cl.validate();
    }

    #[test]
    #[should_panic(expected = "provisioning count drifted")]
    fn validate_catches_a_drifted_provisioning_count() {
        let (mut cl, _) = one_idle();
        cl.fn_runtime_mut(FunctionId(0)).provisioning += 1;
        cl.validate();
    }

    #[test]
    fn policy_ctx_views() {
        let mut cl = cluster(&[1000]);
        cl.note_arrival(FunctionId(0), TimePoint::ZERO);
        let id = cl.begin_provision(FunctionId(0), WorkerId(0), TimePoint::ZERO, false);
        cl.finish_provision(id, TimePoint::ZERO);
        cl.occupy_thread(id, TimePoint::ZERO);
        let busy: HashMap<ContainerId, Vec<TimePoint>> = [(id, vec![TimePoint::from_millis(50)])]
            .into_iter()
            .collect();
        let ctx = PolicyCtx::new(TimePoint::from_millis(10), &cl, &busy);
        assert_eq!(ctx.warm_count(FunctionId(0)), 1);
        assert_eq!(ctx.invocations(FunctionId(0)), 1);
        assert_eq!(ctx.saturated_containers(FunctionId(0)).len(), 1);
        assert_eq!(ctx.oracle_remaining(id), Some(TimeDelta::from_millis(40)));
        assert_eq!(ctx.used_mb(), 100);
        assert_eq!(ctx.capacity_mb(), 1000);
    }
}
