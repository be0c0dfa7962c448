//! The executor's mutex. Every lock under `exec/` is a leaf (DESIGN.md §10):
//! a thread holding one locks nothing else here, wakes no task and enters no
//! user code. Debug builds count each thread's guards and panic at the first
//! breach, at any call depth; release builds compile to `std::sync::Mutex`.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, MutexGuard};
use std::time::Duration;

/// No user code runs under these locks: only an executor bug poisons one.
const POISONED: &str = "executor lock poisoned";

// Executor guards alive on this thread.
#[cfg(debug_assertions)]
thread_local!(static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) });

/// Debug builds panic if the calling thread holds an executor lock. Called by
/// `lock()`, the task waker, and before user code (poll, drop, job) is entered.
pub(crate) fn assert_unlocked() {
    #[cfg(debug_assertions)]
    assert_eq!(HELD.get(), 0, "an executor lock is a leaf (exec/lock.rs)");
}

pub(crate) struct Lock<T>(std::sync::Mutex<T>);

impl<T> Lock<T> {
    pub(crate) fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    pub(crate) fn lock(&self) -> Guard<'_, T> {
        assert_unlocked();
        let guard = self.0.lock().expect(POISONED);
        #[cfg(debug_assertions)]
        HELD.set(HELD.get() + 1);
        Guard(guard, Held)
    }
}

/// One count in `HELD`, given back on drop — unwinding included.
struct Held;

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.set(HELD.get() - 1);
    }
}

pub(crate) struct Guard<'a, T>(MutexGuard<'a, T>, Held);

impl<T> Guard<'_, T> {
    /// `Condvar::wait`; the thread is parked meanwhile, so its count stays.
    pub(crate) fn wait(mut self, cvar: &Condvar) -> Self {
        self.0 = cvar.wait(self.0).expect(POISONED);
        self
    }

    /// `Condvar::wait_timeout`; the flag is its `timed_out()`.
    pub(crate) fn wait_timeout(mut self, cvar: &Condvar, dur: Duration) -> (Self, bool) {
        let (guard, timeout) = cvar.wait_timeout(self.0, dur).expect(POISONED);
        self.0 = guard;
        (self, timeout.timed_out())
    }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use crate::exec::Executor;
    use std::task::{Poll, Waker};

    #[test]
    #[should_panic(expected = "an executor lock is a leaf")]
    fn locking_a_second_lock_panics() {
        let (a, b) = (Lock::new(()), Lock::new(()));
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    #[should_panic(expected = "an executor lock is a leaf")]
    fn relocking_a_held_lock_panics_instead_of_deadlocking() {
        let a = Lock::new(());
        let _first = a.lock();
        let _second = a.lock();
    }

    /// Fires a task waker of a live executor while holding a lock. The
    /// guard is declared after `exec`, whose teardown locks.
    fn wake_under_a_lock(wake: fn(&Waker)) {
        let exec = Executor::new(1);
        let task = exec.spawn(std::future::poll_fn(|cx| Poll::Ready(cx.waker().clone())));
        let waker = task.join().expect("task ran");
        let lock = Lock::new(());
        let _guard = lock.lock();
        wake(&waker);
    }

    fn one_call_down(waker: &Waker) {
        waker.wake_by_ref();
    }

    fn two_calls_down(waker: &Waker) {
        one_call_down(waker);
    }

    #[test]
    #[should_panic(expected = "an executor lock is a leaf")]
    fn waking_a_task_under_a_lock_panics() {
        wake_under_a_lock(Waker::wake_by_ref);
    }

    #[test]
    #[should_panic(expected = "an executor lock is a leaf")]
    fn waking_one_call_below_the_guard_panics() {
        wake_under_a_lock(one_call_down);
    }

    #[test]
    #[should_panic(expected = "an executor lock is a leaf")]
    fn waking_two_calls_below_the_guard_panics() {
        wake_under_a_lock(two_calls_down);
    }

    #[test]
    fn unwinding_and_waiting_keep_the_count() {
        let (a, b, cvar) = (Lock::new(()), Lock::new(()), Condvar::new());
        let _ = std::panic::catch_unwind(|| {
            let _a = a.lock();
            panic!("under the lock");
        });
        assert_eq!(HELD.get(), 0, "the unwound guard gave its count back");
        let (_guard, _) = b.lock().wait_timeout(&cvar, Duration::from_millis(1));
        assert_eq!(HELD.get(), 1, "the guard back from the wait still counts");
    }
}
