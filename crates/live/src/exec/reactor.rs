//! The reactor: one thread owning the timer registrations, ordered by
//! `(deadline, registration number)`, waking task [`Waker`]s as
//! deadlines pass; equal deadlines fire in registration order.
//!
//! This is the executor's only time source. A [`Sleep`] future
//! registers its slot on first poll; the reactor thread sleeps until
//! the earliest deadline (or a new registration cuts the wait short),
//! then fires every due slot **outside its own lock** so a waker can
//! freely take the executor's run-queue lock. Cancelled sleeps (dropped
//! `Sleep` futures) are lazily deleted: the slot stays registered until
//! its deadline passes, then fires nothing — the same lazy-deletion
//! discipline as `faas-core`'s eviction index.

use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Weak};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use super::lock::Lock;

/// One registered sleep: shared between the `Sleep` future (which
/// updates the waker and observes `fired`) and the reactor thread.
pub(crate) struct TimerSlot {
    cell: Lock<TimerCell>,
}

struct TimerCell {
    fired: bool,
    cancelled: bool,
    waker: Option<Waker>,
}

impl TimerSlot {
    fn new(waker: Waker) -> Self {
        Self {
            cell: Lock::new(TimerCell {
                fired: false,
                cancelled: false,
                waker: Some(waker),
            }),
        }
    }
}

pub(crate) struct ReactorShared {
    state: Lock<ReactorState>,
    cvar: Condvar,
    /// Total timers actually fired (cancelled registrations that popped
    /// without waking anything are not counted). A statistic, counted
    /// before the wake so that whoever the timer wakes already sees it.
    fires: AtomicU64,
}

struct ReactorState {
    /// Registrations not yet due, cancelled ones included, by deadline
    /// and registration number.
    timers: BTreeMap<(Instant, u64), Arc<TimerSlot>>,
    registered: u64,
    /// High-water mark of `timers.len()` — the "concurrent timers"
    /// statistic.
    peak: usize,
    shutdown: bool,
}

impl ReactorShared {
    /// Registers a timer; returns `false` (nothing registered) if the
    /// reactor already shut down, so the caller resolves immediately
    /// instead of waiting on a thread that will never fire it.
    fn register(&self, deadline: Instant, slot: Arc<TimerSlot>) -> bool {
        let mut st = self.state.lock();
        if st.shutdown {
            return false;
        }
        st.registered += 1;
        let key = (deadline, st.registered);
        st.timers.insert(key, slot);
        st.peak = st.peak.max(st.timers.len());
        drop(st);
        self.cvar.notify_one();
        true
    }

    pub(crate) fn peak_timers(&self) -> usize {
        self.state.lock().peak
    }

    pub(crate) fn timer_fires(&self) -> u64 {
        self.fires.load(Ordering::Relaxed)
    }
}

/// Handle owning the reactor thread; [`Reactor::stop`] joins it.
pub(crate) struct Reactor {
    shared: Arc<ReactorShared>,
    thread: Lock<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    pub(crate) fn start() -> Self {
        let shared = Arc::new(ReactorShared {
            state: Lock::new(ReactorState {
                timers: BTreeMap::new(),
                registered: 0,
                peak: 0,
                shutdown: false,
            }),
            cvar: Condvar::new(),
            fires: AtomicU64::new(0),
        });
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("faas-exec-reactor".into())
            .spawn(move || run_reactor(&thread_shared))
            .expect("spawn reactor thread");
        Self {
            shared,
            thread: Lock::new(Some(thread)),
        }
    }

    pub(crate) fn shared(&self) -> &Arc<ReactorShared> {
        &self.shared
    }

    /// Stops and joins the reactor thread; pending timers never fire.
    /// Idempotent.
    pub(crate) fn stop(&self) {
        {
            let mut st = self.shared.state.lock();
            st.shutdown = true;
        }
        self.shared.cvar.notify_all();
        let joined = self.thread.lock().take();
        if let Some(t) = joined {
            let _ = t.join();
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.stop();
    }
}

fn run_reactor(shared: &ReactorShared) {
    let mut st = shared.state.lock();
    loop {
        if st.shutdown {
            return;
        }
        let now = Instant::now();
        let mut due: Vec<Arc<TimerSlot>> = Vec::new();
        while let Some(entry) = st.timers.first_entry().filter(|e| e.key().0 <= now) {
            due.push(entry.remove());
        }
        if !due.is_empty() {
            // Fire outside the reactor lock: wakers take the executor's
            // run-queue lock, and lock nesting here would order the two
            // locks against every registration site.
            drop(st);
            for slot in due {
                let waker = {
                    let mut cell = slot.cell.lock();
                    if cell.cancelled {
                        None
                    } else {
                        cell.fired = true;
                        shared.fires.fetch_add(1, Ordering::Relaxed);
                        cell.waker.take()
                    }
                };
                if let Some(w) = waker {
                    w.wake();
                }
            }
            st = shared.state.lock();
            continue;
        }
        st = match st.timers.first_key_value() {
            Some((&(next, _), _)) => {
                let wait = next.saturating_duration_since(Instant::now());
                st.wait_timeout(&shared.cvar, wait).0
            }
            None => st.wait(&shared.cvar),
        };
    }
}

/// Future resolving once a wall-clock deadline passes. Created by
/// [`crate::exec::Handle::sleep_until`].
///
/// Dropping a `Sleep` before it fires cancels the registration (lazily:
/// the registration is discarded when its deadline passes). If the executor
/// shut down, polling resolves immediately rather than hanging forever.
pub struct Sleep {
    deadline: Instant,
    reactor: Weak<ReactorShared>,
    slot: Option<Arc<TimerSlot>>,
}

impl Sleep {
    pub(crate) fn new(deadline: Instant, reactor: Weak<ReactorShared>) -> Self {
        Self {
            deadline,
            reactor,
            slot: None,
        }
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match &this.slot {
            None => {
                if Instant::now() >= this.deadline {
                    return Poll::Ready(());
                }
                let Some(shared) = this.reactor.upgrade() else {
                    // Executor torn down: resolving beats hanging.
                    return Poll::Ready(());
                };
                let slot = Arc::new(TimerSlot::new(cx.waker().clone()));
                if !shared.register(this.deadline, Arc::clone(&slot)) {
                    // Reactor already shut down: resolve, don't hang.
                    return Poll::Ready(());
                }
                this.slot = Some(slot);
                Poll::Pending
            }
            Some(slot) => {
                let mut cell = slot.cell.lock();
                if cell.fired {
                    Poll::Ready(())
                } else {
                    cell.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(slot) = &self.slot {
            let mut cell = slot.cell.lock();
            if !cell.fired {
                cell.cancelled = true;
                cell.waker = None;
            }
        }
    }
}
