//! The task arena and worker pool: spawned futures live in slab slots,
//! wakers address them by `(slot, generation)`, and a fixed pool of OS
//! threads drains the run queue.
//!
//! Everything is safe Rust: wakers are built from [`std::task::Wake`]
//! (`Arc<WakeHandle>`), and futures are `Pin<Box<…>>`, so no raw-waker
//! vtables or pin gymnastics are needed. The state machine per task is
//! the classic four-state one:
//!
//! ```text
//! Idle ──wake──▶ Queued ──worker──▶ Running ──wake──▶ RunningNotified
//!  ▲                                   │ Pending            │ Pending
//!  └───────────────────────────────────┘ (requeue) ◀────────┘
//! ```
//!
//! A wake that lands while the task is `Running` marks it
//! `RunningNotified`; if the poll then returns `Pending`, the worker
//! re-queues instead of parking the task, so no wakeup is ever lost.
//! Slot generations make stale wakers (task finished, slot reused)
//! harmless. User code never runs while the arena lock is held: futures
//! are polled *and dropped* outside it, so a panicking poll or
//! destructor cannot poison the executor.

use std::collections::VecDeque;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::{Arc, Condvar, Weak};
use std::task::{Context, Poll, Wake, Waker};

use super::blocking::BlockingPool;
use super::lock::{assert_unlocked, Lock};
use super::reactor::Reactor;

pub(crate) type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// Where a task sits in its run/wake lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunState {
    /// Parked: not queued, not being polled; a wake queues it.
    Idle,
    /// In the run queue awaiting a worker.
    Queued,
    /// A worker is polling it right now.
    Running,
    /// Woken *while* being polled; re-queue on `Pending`.
    RunningNotified,
}

struct TaskCore {
    /// The future, boxed; `None` while a worker holds it for polling.
    future: Option<BoxFuture>,
    run: RunState,
    /// Set by [`super::JoinHandle::cancel`]; the worker drops the
    /// future at the next safe point.
    cancelled: bool,
    /// Cached waker identity for this slot occupancy.
    waker: Arc<WakeHandle>,
}

struct Slot {
    /// Bumped on every slot reuse; stale wakers compare and bail.
    gen: u64,
    core: Option<TaskCore>,
}

struct ExecState {
    slots: Vec<Slot>,
    free: Vec<usize>,
    run_queue: VecDeque<usize>,
    /// Live (spawned, not yet finished) async tasks.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    shutdown: bool,
}

/// Shared executor core: arena + run queue + reactor + blocking pool.
pub(crate) struct Inner {
    state: Lock<ExecState>,
    work: Condvar,
    pub(crate) reactor: Reactor,
    pub(crate) blocking: BlockingPool,
    /// First panic payload captured from a task or blocking job;
    /// re-raised by [`super::Executor::shutdown`].
    pub(crate) panic: Lock<Option<Box<dyn std::any::Any + Send>>>,
}

impl Inner {
    pub(crate) fn new(blocking_cap: usize) -> Self {
        Self {
            state: Lock::new(ExecState {
                slots: Vec::new(),
                free: Vec::new(),
                run_queue: VecDeque::new(),
                live: 0,
                peak: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            reactor: Reactor::start(),
            blocking: BlockingPool::new(blocking_cap),
            panic: Lock::new(None),
        }
    }

    pub(crate) fn store_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.panic.lock();
        slot.get_or_insert(payload);
    }

    pub(crate) fn peak_tasks(&self) -> usize {
        self.state.lock().peak
    }

    pub(crate) fn live_tasks(&self) -> usize {
        self.state.lock().live
    }

    /// Installs `future` into a fresh (or recycled) slot and queues it.
    /// Returns the slot key for cancellation, or `None` if the executor
    /// is already shut down (the future is dropped, which resolves its
    /// join handle with `None`).
    pub(crate) fn spawn_raw(self: &Arc<Self>, future: BoxFuture) -> Option<(usize, u64)> {
        let key = {
            let mut st = self.state.lock();
            if st.shutdown {
                None
            } else {
                let id = match st.free.pop() {
                    Some(id) => id,
                    None => {
                        st.slots.push(Slot { gen: 0, core: None });
                        st.slots.len() - 1
                    }
                };
                let gen = st.slots[id].gen;
                let waker = Arc::new(WakeHandle {
                    exec: Arc::downgrade(self),
                    id,
                    gen,
                });
                st.slots[id].core = Some(TaskCore {
                    future: Some(future),
                    run: RunState::Queued,
                    cancelled: false,
                    waker,
                });
                st.run_queue.push_back(id);
                st.live += 1;
                st.peak = st.peak.max(st.live);
                Some((id, gen))
            }
        };
        // `future` was either moved into the slot or (on shutdown)
        // dropped here, outside the lock.
        if key.is_some() {
            self.work.notify_one();
        }
        key
    }

    /// Transitions a task toward the run queue in response to a wake.
    fn schedule(&self, id: usize, gen: u64) {
        let queued = {
            let mut st = self.state.lock();
            if st.shutdown {
                return;
            }
            let Some(slot) = st.slots.get_mut(id) else {
                return;
            };
            if slot.gen != gen {
                return;
            }
            let Some(core) = slot.core.as_mut() else {
                return;
            };
            match core.run {
                RunState::Idle => {
                    core.run = RunState::Queued;
                    st.run_queue.push_back(id);
                    true
                }
                RunState::Running => {
                    core.run = RunState::RunningNotified;
                    false
                }
                RunState::Queued | RunState::RunningNotified => false,
            }
        };
        if queued {
            self.work.notify_one();
        }
    }

    /// Cancels the task at `(id, gen)`: drops its future at the next
    /// safe point, resolving its join handle with `None`.
    pub(crate) fn cancel(&self, id: usize, gen: u64) {
        let reaped = {
            let mut st = self.state.lock();
            let Some(slot) = st.slots.get_mut(id) else {
                return;
            };
            if slot.gen != gen {
                return;
            }
            let Some(core) = slot.core.as_mut() else {
                return;
            };
            match core.run {
                RunState::Running | RunState::RunningNotified => {
                    // A worker holds the future; it drops it when the
                    // current poll returns.
                    core.cancelled = true;
                    None
                }
                RunState::Idle | RunState::Queued => {
                    let core = slot.core.take();
                    Self::free_slot(&mut st, id);
                    core
                }
            }
        };
        // Dropping the future (and through it the completion guard)
        // happens outside the lock: destructors may wake other tasks.
        assert_unlocked();
        drop(reaped);
    }

    fn free_slot(st: &mut ExecState, id: usize) {
        st.slots[id].gen = st.slots[id].gen.wrapping_add(1);
        st.free.push(id);
        st.live -= 1;
    }

    /// One worker thread's lifetime: drain the run queue until shutdown.
    pub(crate) fn worker_loop(self: &Arc<Self>) {
        /// What a worker claimed from one run-queue visit.
        enum Claim {
            Task(usize, u64, BoxFuture, Waker),
            /// A task cancelled before its first poll; drop it outside
            /// the lock.
            Reaped(Option<TaskCore>),
            Shutdown,
        }
        loop {
            // Claim a queued task, parking on the condvar when idle.
            let claim = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        break Claim::Shutdown;
                    }
                    let Some(id) = st.run_queue.pop_front() else {
                        st = st.wait(&self.work);
                        continue;
                    };
                    let Some(slot) = st.slots.get_mut(id) else {
                        continue;
                    };
                    let gen = slot.gen;
                    let Some(core) = slot.core.as_mut() else {
                        continue; // stale queue entry: task already reaped
                    };
                    if core.run != RunState::Queued {
                        continue; // stale entry for a reused slot
                    }
                    if core.cancelled {
                        let core = slot.core.take();
                        Self::free_slot(&mut st, id);
                        break Claim::Reaped(core);
                    }
                    core.run = RunState::Running;
                    let future = core.future.take().expect("queued task owns its future");
                    let waker = Waker::from(Arc::clone(&core.waker));
                    break Claim::Task(id, gen, future, waker);
                }
            };
            assert_unlocked(); // user code next: a cancelled future's drop, or a poll
            let (id, gen, mut fut, waker) = match claim {
                Claim::Shutdown => return,
                Claim::Reaped(core) => {
                    drop(core);
                    continue;
                }
                Claim::Task(id, gen, fut, waker) => (id, gen, fut, waker),
            };

            let mut cx = Context::from_waker(&waker);
            let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
            match polled {
                Ok(Poll::Ready(())) => {
                    self.reap(id, gen);
                    drop(fut);
                }
                Ok(Poll::Pending) => {
                    let mut fut_back = Some(fut);
                    let reaped = {
                        let mut st = self.state.lock();
                        let slot = &mut st.slots[id];
                        if slot.gen != gen || slot.core.is_none() {
                            None // reaped during shutdown while we polled
                        } else {
                            let core = slot.core.as_mut().expect("checked above");
                            if core.cancelled {
                                let core = slot.core.take();
                                Self::free_slot(&mut st, id);
                                core
                            } else {
                                core.future = fut_back.take();
                                match core.run {
                                    RunState::RunningNotified => {
                                        core.run = RunState::Queued;
                                        st.run_queue.push_back(id);
                                        drop(st);
                                        self.work.notify_one();
                                    }
                                    _ => core.run = RunState::Idle,
                                }
                                None
                            }
                        }
                    };
                    assert_unlocked();
                    drop(reaped);
                    drop(fut_back); // cancelled/reaped: future dies here
                }
                Err(payload) => {
                    // The task panicked: record the first payload, reap
                    // the slot, and drop what's left of the future. The
                    // completion guard inside resolves the join handle
                    // with `None`. A destructor of a half-unwound future
                    // may panic again; contain that too.
                    self.store_panic(payload);
                    self.reap(id, gen);
                    let _ = catch_unwind(AssertUnwindSafe(move || drop(fut)));
                }
            }
        }
    }

    /// Frees `(id, gen)` after its future finished or died.
    fn reap(&self, id: usize, gen: u64) {
        let reaped = {
            let mut st = self.state.lock();
            let slot = &mut st.slots[id];
            if slot.gen != gen || slot.core.is_none() {
                None
            } else {
                let core = slot.core.take();
                Self::free_slot(&mut st, id);
                core
            }
        };
        assert_unlocked();
        drop(reaped);
    }

    /// Flips to shutdown and reaps every remaining task. Workers exit
    /// at their next queue visit; remaining futures are dropped here
    /// (outside the lock — their destructors may wake things).
    pub(crate) fn begin_shutdown(&self) {
        let mut dead: Vec<TaskCore> = Vec::new();
        {
            let mut st = self.state.lock();
            st.shutdown = true;
            st.run_queue.clear();
            for slot in &mut st.slots {
                // Also reaps tasks a worker is polling right now
                // (their future is checked back in against the bumped
                // generation and dropped by the worker).
                if let Some(core) = slot.core.take() {
                    slot.gen = slot.gen.wrapping_add(1);
                    dead.push(core);
                }
            }
            st.live -= dead.len();
            st.free.clear();
        }
        self.work.notify_all();
        assert_unlocked();
        drop(dead);
    }
}

/// The waker target: addresses a task by `(slot, generation)` through a
/// weak executor reference, so wakers outliving the executor (or the
/// task) are inert.
pub(crate) struct WakeHandle {
    exec: Weak<Inner>,
    id: usize,
    gen: u64,
}

impl Wake for WakeHandle {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // Checked before the upgrade, so a wake under a lock is caught
        // after executor teardown too.
        assert_unlocked();
        if let Some(inner) = self.exec.upgrade() {
            inner.schedule(self.id, self.gen);
        }
    }
}

/// Result slot shared between a running task and its [`JoinHandle`].
pub(crate) struct JoinShared<T> {
    state: Lock<JoinState<T>>,
    cvar: Condvar,
}

struct JoinState<T> {
    /// `Some(Some(v))` = finished, `Some(None)` = cancelled or panicked.
    result: Option<Option<T>>,
    waker: Option<Waker>,
    done: bool,
}

impl<T> Default for JoinShared<T> {
    fn default() -> Self {
        Self {
            state: Lock::new(JoinState {
                result: None,
                waker: None,
                done: false,
            }),
            cvar: Condvar::new(),
        }
    }
}

impl<T> JoinShared<T> {
    /// Stores the outcome (idempotent: first write wins) and wakes both
    /// async and blocking waiters.
    pub(crate) fn complete(&self, value: Option<T>) {
        let waker = {
            let mut st = self.state.lock();
            if st.done {
                return;
            }
            st.result = Some(value);
            st.done = true;
            self.cvar.notify_all();
            st.waker.take()
        };
        if let Some(w) = waker {
            w.wake();
        }
    }

    fn poll_take(&self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut st = self.state.lock();
        if st.done {
            Poll::Ready(st.result.take().flatten())
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    fn block_take(&self) -> Option<T> {
        let mut st = self.state.lock();
        while !st.done {
            st = st.wait(&self.cvar);
        }
        st.result.take().flatten()
    }
}

/// Completes the join slot with `None` if the task's future is dropped
/// (cancelled, executor shutdown, or panic unwind) before finishing.
pub(crate) struct CompletionGuard<T> {
    pub(crate) shared: Arc<JoinShared<T>>,
}

impl<T> CompletionGuard<T> {
    pub(crate) fn finish(&self, value: T) {
        self.shared.complete(Some(value));
    }
}

impl<T> Drop for CompletionGuard<T> {
    fn drop(&mut self) {
        self.shared.complete(None);
    }
}

/// Handle on a spawned task. Await it (it is a `Future`) or block on
/// [`JoinHandle::join`]; both yield `Some(output)` on completion and
/// `None` if the task was cancelled, panicked, or the executor shut
/// down first. Dropping the handle detaches the task (it keeps
/// running).
pub struct JoinHandle<T> {
    pub(crate) shared: Arc<JoinShared<T>>,
    pub(crate) exec: Weak<Inner>,
    /// `(slot, generation)` for cancellation; `None` for blocking jobs
    /// (they cannot be cancelled once queued).
    pub(crate) key: Option<(usize, u64)>,
}

impl<T> JoinHandle<T> {
    /// Blocks the current thread until the task resolves.
    pub fn join(self) -> Option<T> {
        self.shared.block_take()
    }

    /// Cancels the task: if it has not finished, its future is dropped
    /// at the next safe point (immediately if parked or queued, after
    /// the in-progress poll if running) and the handle resolves `None`.
    /// No-op for blocking jobs and finished tasks.
    pub fn cancel(&self) {
        if let (Some((id, gen)), Some(inner)) = (self.key, self.exec.upgrade()) {
            inner.cancel(id, gen);
        }
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.shared.poll_take(cx)
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Thread parker used by `block_on`: a condvar-backed [`Wake`].
pub(crate) struct Parker {
    state: Lock<bool>,
    cvar: Condvar,
}

impl Default for Parker {
    fn default() -> Self {
        Self {
            state: Lock::new(false),
            cvar: Condvar::new(),
        }
    }
}

impl Parker {
    pub(crate) fn park(&self) {
        let mut woken = self.state.lock();
        while !*woken {
            woken = woken.wait(&self.cvar);
        }
        *woken = false;
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let mut woken = self.state.lock();
        *woken = true;
        self.cvar.notify_one();
    }
}
