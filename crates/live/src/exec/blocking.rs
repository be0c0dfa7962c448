//! A cached thread pool for blocking work (real handler execution).
//!
//! Async worker threads must never block on user code: a handful of
//! them multiplex the orchestrator and its callers' tasks, and one
//! long-running handler would stall them all. Blocking jobs therefore
//! go to this pool: threads are created on demand up to a cap, parked
//! idle for a grace period so bursts reuse them, and retired when the
//! burst passes — thread-per-*concurrently-running*-request.
//!
//! # One wake in flight
//!
//! `submit` does not signal per job. At most one thread at a time is
//! *on its way* to the queue — notified out of its idle wait, or
//! spawned and not yet started — and while one is, further submits
//! only enqueue. The thread that takes a job and leaves others behind
//! passes the baton (wakes or spawns one more) before it runs the job,
//! so a burst of `K` jobs still reaches `K` threads, one hand-over at a
//! time, and the submitter pays for at most one futex wake per burst.
//! The invariant every transition keeps:
//!
//! > queue non-empty ⇒ a thread is awake and has yet to look at the
//! > queue, or one is on its way, or all `cap` threads are running jobs.
//!
//! A thread that has been notified but has not resumed is *not* idle
//! for this purpose: counting it as idle twice is how a job used to be
//! stranded behind a running one below the cap.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar};
use std::time::Duration;

use super::lock::{assert_unlocked, Lock};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle blocking thread lingers before retiring.
const IDLE_GRACE: Duration = Duration::from_millis(200);

struct BlockingState {
    queue: VecDeque<Job>,
    /// Threads in (or resuming from) the idle wait.
    idle: usize,
    /// A thread was notified or spawned for the queue and has not yet
    /// looked at it.
    waking: bool,
    total: usize,
    peak: usize,
    shutdown: bool,
    /// First panic payload from a blocking job.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    state: Lock<BlockingState>,
    /// Signals queued work (and shutdown) to pool threads.
    work: Condvar,
    /// Signals thread retirement to a shutdown waiter.
    drained: Condvar,
    cap: usize,
}

pub(crate) struct BlockingPool {
    shared: Arc<Shared>,
}

impl BlockingPool {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Lock::new(BlockingState {
                    queue: VecDeque::new(),
                    idle: 0,
                    waking: false,
                    total: 0,
                    peak: 0,
                    shutdown: false,
                    panic: None,
                }),
                work: Condvar::new(),
                drained: Condvar::new(),
                cap: cap.max(1),
            }),
        }
    }

    /// Queues `job` and makes sure a thread is on its way to the queue.
    /// Returns `false` if the pool already shut down (the job is
    /// dropped).
    pub(crate) fn submit(&self, job: Job) -> bool {
        let summon = {
            let mut st = self.shared.state.lock();
            if st.shutdown {
                return false;
            }
            st.queue.push_back(job);
            st.summon(self.shared.cap)
        };
        // With no thread to be had the job may have nobody to run it,
        // and the submitter is the one to hear of that.
        self.shared.perform(summon).expect("spawn blocking worker");
        true
    }

    pub(crate) fn peak_threads(&self) -> usize {
        self.shared.state.lock().peak
    }

    /// Stops accepting work, waits for queued jobs to finish and every
    /// thread to retire, and surfaces the first captured job panic.
    pub(crate) fn shutdown(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut st = self.shared.state.lock();
        st.shutdown = true;
        self.shared.work.notify_all();
        while st.total > 0 {
            st = st.wait(&self.shared.drained);
        }
        st.panic.take()
    }
}

/// How to get one more thread to the queue; decided under the pool
/// lock, carried out after it drops.
enum Summon {
    Nobody,
    Notify,
    Spawn,
}

impl BlockingState {
    /// Keeps the module invariant after a push or a pop that left jobs
    /// behind: unless a thread is already on its way, picks an idle one
    /// to wake or, with none idle and room under `cap`, a new one.
    fn summon(&mut self, cap: usize) -> Summon {
        if self.waking || self.queue.is_empty() {
            Summon::Nobody
        } else if self.idle > 0 {
            self.waking = true;
            Summon::Notify
        } else if self.total < cap {
            self.waking = true;
            self.total += 1;
            self.peak = self.peak.max(self.total);
            Summon::Spawn
        } else {
            // Every thread is running a job and looks here after it.
            Summon::Nobody
        }
    }
}

impl Shared {
    /// Carries out `summon`. A thread the OS refuses is taken back off
    /// the books before the error is returned, which leaves the pool as
    /// it is at its cap: whoever is running looks at the queue next.
    fn perform(self: &Arc<Self>, summon: Summon) -> std::io::Result<()> {
        match summon {
            Summon::Nobody => {}
            Summon::Notify => self.work.notify_one(),
            Summon::Spawn => {
                let shared = Arc::clone(self);
                let spawned = std::thread::Builder::new()
                    .name("faas-exec-blocking".into())
                    .spawn(move || blocking_worker(&shared));
                if let Err(err) = spawned {
                    let mut st = self.state.lock();
                    st.total -= 1;
                    st.waking = false;
                    self.drained.notify_all();
                    return Err(err);
                }
            }
        }
        Ok(())
    }
}

fn blocking_worker(shared: &Arc<Shared>) {
    let mut st = shared.state.lock();
    // This thread was the one on its way; it has arrived.
    st.waking = false;
    loop {
        if let Some(job) = st.queue.pop_front() {
            // The job may block for as long as it likes, even on the
            // one behind it: hand the rest of the queue to someone else
            // first.
            let summon = st.summon(shared.cap);
            drop(st);
            // A failed spawn is no reason to die holding a job: this
            // thread is back at the queue as soon as the job returns.
            let _ = shared.perform(summon);
            // User code runs outside the lock; a panicking job is
            // captured so the pool (and its lock) survive.
            assert_unlocked();
            if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                let mut locked = shared.state.lock();
                locked.panic.get_or_insert(payload);
                st = locked;
            } else {
                st = shared.state.lock();
            }
            continue;
        }
        if st.shutdown {
            st.total -= 1;
            shared.drained.notify_all();
            return;
        }
        st.idle += 1;
        let (guard, timed_out) = st.wait_timeout(&shared.work, IDLE_GRACE);
        st = guard;
        st.idle -= 1;
        // Whoever resumes first stands in for the notified thread (a
        // notification can land on one that had already timed out): it
        // looks at the queue next, which is all the flag promises.
        st.waking = false;
        if timed_out && st.queue.is_empty() && !st.shutdown {
            // Burst passed: retire quietly.
            st.total -= 1;
            shared.drained.notify_all();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Barrier;

    /// Long enough that only a stranded job runs into it.
    const STRANDED: Duration = Duration::from_secs(20);

    fn wait_for_idle(pool: &BlockingPool, idle: usize) {
        while pool.shared.state.lock().idle != idle {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_job_behind_a_notified_thread_is_not_stranded() {
        // One idle thread; J1 and J2 submitted back to back; J1 waits
        // for a signal only J2 sends. The thread notified for J1 used
        // to count as idle until it resumed, so J2 in that window woke
        // nobody, spawned nobody, and sat behind J1.
        for round in 0..50 {
            let pool = BlockingPool::new(4);
            assert!(pool.submit(Box::new(|| {})));
            wait_for_idle(&pool, 1);
            let (signal, wait) = mpsc::channel::<()>();
            let (outcome, seen) = mpsc::channel();
            assert!(pool.submit(Box::new(move || {
                let _ = outcome.send(wait.recv_timeout(STRANDED).is_ok());
            })));
            assert!(pool.submit(Box::new(move || {
                let _ = signal.send(());
            })));
            assert_eq!(
                seen.recv(),
                Ok(true),
                "round {round}: J2 never ran beside J1"
            );
            assert!(pool.shutdown().is_none());
        }
    }

    #[test]
    fn the_baton_reaches_as_many_threads_as_jobs_block() {
        const JOBS: usize = 8;
        let pool = BlockingPool::new(JOBS);
        let barrier = Arc::new(Barrier::new(JOBS));
        let (done, all) = mpsc::channel();
        for _ in 0..JOBS {
            let barrier = Arc::clone(&barrier);
            let done = done.clone();
            assert!(pool.submit(Box::new(move || {
                // Returns only once all JOBS jobs are running at once.
                barrier.wait();
                let _ = done.send(());
            })));
        }
        for _ in 0..JOBS {
            all.recv_timeout(STRANDED)
                .expect("every job gets a thread of its own");
        }
        assert_eq!(pool.peak_threads(), JOBS);
        // A panicking job still surfaces at shutdown, and the pool
        // (now at its cap, every thread idle or about to be) runs it.
        assert!(pool.submit(Box::new(|| panic!("job exploded"))));
        let payload = pool.shutdown().expect("captured job panic");
        assert_eq!(
            payload.downcast_ref::<&str>().copied(),
            Some("job exploded")
        );
    }
}
