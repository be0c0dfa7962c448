//! A minimal hermetic async executor: reactor + wakers + task arena +
//! fixed worker pool, in safe std-only Rust — and the blocking pool the
//! live host runs handlers on.
//!
//! The two halves have different users. [`crate::FaasHost`] is a thread
//! that blocks on its own channel and deadline heap, and uses one piece
//! of this module:
//!
//! * [`blocking`](self) — a cached thread pool for genuinely blocking
//!   work (real handler bodies), sized by *concurrently running*
//!   handlers instead of in-flight requests, with one thread wake in
//!   flight at a time.
//!
//! The async half has no caller in the workspace. It is kept only
//! because the benchmark's four `exec.*` probes time it, and goes with
//! them:
//!
//! * [`task`](self) — a slab arena of spawned futures addressed by
//!   `(slot, generation)`; wakers are `Arc<impl Wake>` handles into it,
//!   and a fixed pool of worker threads drains the run queue.
//! * [`reactor`](self) — one thread over a deadline heap
//!   (`crate::heap::DeadlineHeap`); [`Sleep`] futures register
//!   `(deadline, waker-slot)` entries and the reactor fires them as
//!   deadlines pass.
//! * [`channel`] — an unbounded MPSC with sync senders and an async
//!   receiver.
//!
//! # Lock discipline
//!
//! Three rules keep the pieces deadlock- and poison-free, and every
//! module here follows them:
//!
//! 1. **An executor lock is a leaf.** Nothing is locked, woken, polled,
//!    dropped or run while one is held: every mutex here is the type
//!    of [`lock`](self), which asserts that at `lock()` in debug
//!    builds. Wakers take the arena lock, so firing one under a guard
//!    trips the same assertion.
//! 2. **User code never runs under an executor lock.** Futures are
//!    polled *and dropped* outside the arena lock, blocking jobs run
//!    outside the pool lock, and timer payloads are sent outside the
//!    heap lock — so a user panic cannot poison executor state.
//! 3. **Stale references are inert, not errors.** Slot generations make
//!    late wakes of finished tasks no-ops; cancelled sleeps are lazily
//!    deleted when their heap entry pops.

mod blocking;
pub mod channel;
mod lock;
mod reactor;
mod task;

use std::future::Future;
use std::panic::resume_unwind;
use std::pin::pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

use task::{CompletionGuard, Inner, JoinShared, Parker};

pub(crate) use blocking::BlockingPool;
pub use reactor::Sleep;
pub use task::JoinHandle;

/// Cap on blocking-pool threads. Blocking jobs model handlers
/// *running* on provisioned container threads, so cluster capacity —
/// not in-flight request count — bounds real concurrency. The cap is a
/// backstop against a runaway thread-per-request regression, not a
/// size the pool is expected to reach: DESIGN.md §10 records the peak
/// it does reach under the benchmark's closed loop.
pub(crate) const BLOCKING_CAP: usize = 1024;

/// The executor: owns the worker threads, the reactor, and the blocking
/// pool. Dropping it (or calling [`Executor::shutdown`]) cancels every
/// remaining task and joins all threads.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Executor {
    /// Starts an executor with `workers` poll threads (at least one).
    pub fn new(workers: usize) -> Self {
        let inner = Arc::new(Inner::new(BLOCKING_CAP));
        let workers = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("faas-exec-worker-{i}"))
                    .spawn(move || inner.worker_loop())
                    .expect("spawn executor worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// Returns a cloneable [`Handle`] for spawning from other threads.
    pub fn handle(&self) -> Handle {
        Handle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Spawns `future` onto the worker pool. See [`Handle::spawn`].
    pub fn spawn<F, T>(&self, future: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn(future)
    }

    /// Runs `f` on the blocking pool. See [`Handle::spawn_blocking`].
    pub fn spawn_blocking<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.handle().spawn_blocking(f)
    }

    /// Returns a future resolving at `deadline`. See
    /// [`Handle::sleep_until`].
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        self.handle().sleep_until(deadline)
    }

    /// Drives `future` to completion on the *calling* thread, parking
    /// between polls. Worker threads run spawned tasks concurrently.
    ///
    /// If a spawned task panicked, the first captured payload is
    /// re-raised here on a best-effort basis (whenever this thread is
    /// next woken); panics are always re-raised by
    /// [`Executor::shutdown`] at the latest.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        let parker = Arc::new(Parker::default());
        let waker = Waker::from(Arc::clone(&parker));
        let mut cx = Context::from_waker(&waker);
        let mut future = pin!(future);
        loop {
            if let Poll::Ready(v) = future.as_mut().poll(&mut cx) {
                return v;
            }
            if let Some(payload) = self.inner.panic.lock().take() {
                resume_unwind(payload);
            }
            parker.park();
        }
    }

    /// Point-in-time executor statistics.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            workers: self.workers.len(),
            live_tasks: self.inner.live_tasks(),
            peak_tasks: self.inner.peak_tasks(),
            peak_timers: self.inner.reactor.shared().peak_timers(),
            timer_fires: self.inner.reactor.shared().timer_fires(),
            peak_blocking_threads: self.inner.blocking.peak_threads(),
        }
    }

    /// Tears the executor down: cancels every remaining task (their
    /// join handles resolve `None`), joins all worker/reactor/blocking
    /// threads, and re-raises the first panic any task or blocking job
    /// hit. Dropping the executor does the same teardown but swallows
    /// the panic (destructors must not throw).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
        let payload = self.inner.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    fn shutdown_inner(&mut self) {
        self.inner.begin_shutdown();
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(payload) = self.inner.blocking.shutdown() {
            self.inner.store_panic(payload);
        }
        self.inner.reactor.stop();
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

/// Cloneable spawner detached from the [`Executor`]'s lifetime: handles
/// may outlive the executor, in which case spawns return handles that
/// resolve `None` and sleeps resolve immediately.
#[derive(Clone)]
pub struct Handle {
    inner: Arc<Inner>,
}

impl Handle {
    /// Spawns `future` onto the worker pool, returning a [`JoinHandle`]
    /// that yields `Some(output)` — or `None` if the task is cancelled,
    /// panics, or the executor shuts down first.
    pub fn spawn<F, T>(&self, future: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + Send + 'static,
        T: Send + 'static,
    {
        let shared = Arc::new(JoinShared::default());
        let guard = CompletionGuard {
            shared: Arc::clone(&shared),
        };
        let key = self.inner.spawn_raw(Box::pin(async move {
            guard.finish(future.await);
        }));
        JoinHandle {
            shared,
            exec: Arc::downgrade(&self.inner),
            key,
        }
    }

    /// Runs `f` on the cached blocking pool (for real handler bodies
    /// and anything else that blocks an OS thread). The handle resolves
    /// `None` if the job panics or the pool already shut down.
    pub fn spawn_blocking<F, T>(&self, f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let shared = Arc::new(JoinShared::default());
        let guard = CompletionGuard {
            shared: Arc::clone(&shared),
        };
        // If the pool rejects the job (shutdown), the dropped closure
        // drops `guard`, resolving the handle with `None`.
        let _ = self.inner.blocking.submit(Box::new(move || {
            guard.finish(f());
        }));
        JoinHandle {
            shared,
            exec: std::sync::Weak::new(),
            key: None,
        }
    }

    /// Returns a future resolving once `deadline` passes, driven by the
    /// reactor thread. Dropping it cancels the registration.
    pub fn sleep_until(&self, deadline: Instant) -> Sleep {
        Sleep::new(deadline, Arc::downgrade(self.inner.reactor.shared()))
    }

    /// Convenience for [`Handle::sleep_until`] with a relative duration.
    pub fn sleep(&self, duration: Duration) -> Sleep {
        self.sleep_until(Instant::now() + duration)
    }
}

impl std::fmt::Debug for Handle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Handle").finish_non_exhaustive()
    }
}

/// Executor statistics, read via [`Executor::stats`].
#[derive(Debug, Clone, Copy)]
pub struct ExecStats {
    /// Poll worker threads in the pool.
    pub workers: usize,
    /// Tasks currently alive (spawned, not yet finished or reaped).
    pub live_tasks: usize,
    /// High-water mark of concurrently live tasks.
    pub peak_tasks: usize,
    /// High-water mark of concurrently registered timers.
    pub peak_timers: usize,
    /// Total timers the reactor fired over the executor's lifetime.
    pub timer_fires: u64,
    /// High-water mark of blocking-pool threads.
    pub peak_blocking_threads: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Join handles resolve inside the final poll, a moment before the
    /// worker reaps the slot — so "everything finished" tests wait for
    /// the arena to drain instead of asserting `live_tasks == 0` raw.
    fn wait_drained(exec: &Executor) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while exec.stats().live_tasks != 0 {
            assert!(Instant::now() < deadline, "task arena never drained");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn spawn_and_join() {
        let exec = Executor::new(2);
        let h = exec.spawn(async { 21 * 2 });
        assert_eq!(h.join(), Some(42));
        exec.shutdown();
    }

    #[test]
    fn block_on_awaits_spawned_tasks() {
        let exec = Executor::new(2);
        let handle = exec.handle();
        let total = exec.block_on(async move {
            let a = handle.spawn(async { 1u32 });
            let b = handle.spawn(async { 2u32 });
            a.await.expect("a finishes") + b.await.expect("b finishes")
        });
        assert_eq!(total, 3);
        exec.shutdown();
    }

    #[test]
    fn sleep_until_fires_and_zero_duration_is_immediate() {
        let exec = Executor::new(1);
        let start = Instant::now();
        exec.block_on(exec.sleep_until(start + Duration::from_millis(25)));
        assert!(start.elapsed() >= Duration::from_millis(25));
        // A past deadline resolves on the first poll without touching
        // the reactor.
        exec.block_on(exec.sleep_until(Instant::now() - Duration::from_millis(1)));
        exec.shutdown();
    }

    /// A future that stashes its waker somewhere the test can reach,
    /// then completes.
    struct StashWaker(Arc<Mutex<Option<Waker>>>);

    impl Future for StashWaker {
        type Output = ();

        fn poll(self: std::pin::Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            *self.0.lock().expect("stash lock") = Some(cx.waker().clone());
            Poll::Ready(())
        }
    }

    #[test]
    fn wakes_after_task_completion_are_inert() {
        // Regression guard for the generation check: a waker that
        // outlives its task (and the slot's reuse) must be a no-op, not
        // a spurious poll of whichever task recycled the slot.
        let exec = Executor::new(2);
        let stash = Arc::new(Mutex::new(None));
        exec.spawn(StashWaker(Arc::clone(&stash))).join();
        let stale = stash
            .lock()
            .expect("stash lock")
            .take()
            .expect("waker stashed");
        stale.wake_by_ref();
        // Reuse the freed slot, then fire the stale waker again while
        // the new occupant is alive.
        let ran = Arc::new(AtomicBool::new(false));
        let ran2 = Arc::clone(&ran);
        let h = exec.spawn(async move {
            ran2.store(true, Ordering::SeqCst);
            7u8
        });
        stale.wake();
        assert_eq!(h.join(), Some(7));
        assert!(ran.load(Ordering::SeqCst));
        wait_drained(&exec);
        exec.shutdown();
    }

    #[test]
    fn cancel_mid_await_resolves_none_and_frees_the_slot() {
        let exec = Executor::new(2);
        let finished = Arc::new(AtomicBool::new(false));
        let finished2 = Arc::clone(&finished);
        let handle = exec.handle();
        let h = exec.spawn(async move {
            handle.sleep(Duration::from_secs(60)).await;
            finished2.store(true, Ordering::SeqCst);
        });
        // Let the task reach its await point (parked on the reactor).
        std::thread::sleep(Duration::from_millis(30));
        let start = Instant::now();
        h.cancel();
        assert_eq!(h.join(), None);
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "cancel must not wait out the sleep"
        );
        assert!(!finished.load(Ordering::SeqCst));
        wait_drained(&exec);
        exec.shutdown();
    }

    #[test]
    fn cancel_before_first_poll_resolves_none() {
        let exec = Executor::new(1);
        // Keep the single worker busy so the victim stays queued.
        let plug = exec.spawn_blocking(|| std::thread::sleep(Duration::from_millis(50)));
        let h = exec.spawn(async { 1u8 });
        h.cancel();
        // Whichever way the race goes the handle must resolve, and a
        // cancelled-before-poll task resolves `None`.
        let _ = h.join();
        plug.join();
        exec.shutdown();
    }

    #[test]
    fn ten_thousand_concurrent_timers() {
        const TASKS: usize = 10_000;
        let exec = Executor::new(4);
        let fired = Arc::new(AtomicUsize::new(0));
        // All deadlines sit far enough out that every task registers
        // with the reactor before the first one fires.
        let base = Instant::now() + Duration::from_millis(300);
        let handles: Vec<_> = (0..TASKS)
            .map(|i| {
                let handle = exec.handle();
                let fired = Arc::clone(&fired);
                exec.spawn(async move {
                    handle
                        .sleep_until(base + Duration::from_millis((i % 10) as u64))
                        .await;
                    fired.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        exec.block_on(async {
            for h in handles {
                h.await.expect("task finishes");
            }
        });
        assert_eq!(fired.load(Ordering::SeqCst), TASKS);
        let stats = exec.stats();
        assert!(
            stats.peak_tasks >= TASKS,
            "peak_tasks {} < {TASKS}",
            stats.peak_tasks
        );
        assert!(
            stats.peak_timers >= TASKS / 2,
            "peak_timers {} — timers did not overlap",
            stats.peak_timers
        );
        assert!(
            stats.timer_fires >= TASKS as u64,
            "every sleep fires once: timer_fires {}",
            stats.timer_fires
        );
        wait_drained(&exec);
        exec.shutdown();
    }

    #[test]
    fn task_panic_resolves_join_none_and_shutdown_rethrows() {
        let exec = Executor::new(2);
        let h = exec.spawn(async {
            panic!("task exploded");
        });
        assert_eq!(h.join(), None);
        // Other tasks keep running after a panic.
        assert_eq!(exec.spawn(async { 5u8 }).join(), Some(5));
        let err = catch_unwind(AssertUnwindSafe(move || exec.shutdown()))
            .expect_err("shutdown re-raises the task panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task exploded");
    }

    #[test]
    fn spawn_blocking_runs_and_propagates_panics() {
        let exec = Executor::new(1);
        assert_eq!(exec.spawn_blocking(|| 6 * 7).join(), Some(42));
        let h = exec.spawn_blocking(|| -> u8 { panic!("job exploded") });
        assert_eq!(h.join(), None);
        let err = catch_unwind(AssertUnwindSafe(move || exec.shutdown()))
            .expect_err("shutdown re-raises the blocking panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "job exploded");
    }

    #[test]
    fn channel_sync_send_async_recv() {
        let exec = Executor::new(2);
        let (tx, mut rx) = channel::channel::<u32>();
        let producer = std::thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).expect("receiver alive");
            }
        });
        let got = exec.block_on(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        producer.join().expect("producer");
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        exec.shutdown();
    }

    #[test]
    fn last_sender_dropping_wakes_a_parked_receiver() {
        let exec = Executor::new(1);
        let (tx, mut rx) = channel::channel::<u8>();
        let (parked, is_parked) = std::sync::mpsc::channel();
        let h = exec.spawn(async move {
            let mut recv = pin!(rx.recv());
            std::future::poll_fn(|cx| {
                let polled = recv.as_mut().poll(cx);
                if polled.is_pending() {
                    let _ = parked.send(());
                }
                polled
            })
            .await
        });
        // The receiver's waker is registered before the drop, so the
        // drop has a task to wake and `recv` cannot see `senders == 0`
        // by itself.
        is_parked.recv().expect("receiver polled");
        drop(tx);
        assert_eq!(h.join(), Some(None));
        exec.shutdown();
    }

    #[test]
    fn shutdown_cancels_parked_tasks() {
        let exec = Executor::new(2);
        let handle = exec.handle();
        let h = exec.spawn(async move {
            handle.sleep(Duration::from_secs(3600)).await;
            1u8
        });
        std::thread::sleep(Duration::from_millis(20));
        exec.shutdown();
        assert_eq!(h.join(), None);
    }

    #[test]
    fn spawn_after_shutdown_resolves_none() {
        let exec = Executor::new(1);
        let handle = exec.handle();
        exec.shutdown();
        assert_eq!(handle.spawn(async { 9u8 }).join(), None);
        assert_eq!(handle.spawn_blocking(|| 9u8).join(), None);
        // Sleeps on a dead executor resolve instead of hanging.
        let mut sleep = pin!(handle.sleep(Duration::from_secs(3600)));
        let parker = Arc::new(Parker::default());
        let waker = Waker::from(Arc::clone(&parker));
        let mut cx = Context::from_waker(&waker);
        assert!(sleep.as_mut().poll(&mut cx).is_ready());
    }
}
