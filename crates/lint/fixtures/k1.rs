//! K1 fixture: waking a task while an executor lock guard is held.
//!
//! Not compiled — analyzed by `tests/corpus.rs` through
//! `analyze_workspace` with a config whose K1 scope covers this file.
//! Expected: three K1 findings (direct wake under a guard, a
//! one-level-deep wake under a guard, and the same under a guard
//! revived by assignment); `notify` itself is silent.

use std::sync::Mutex;
use std::task::Waker;

struct Shared {
    state: Mutex<State>,
}

struct State {
    waker: Option<Waker>,
}

fn wake_holder(shared: &Shared) {
    let st = shared.state.lock().unwrap();
    if let Some(w) = st.waker.as_ref() {
        w.wake_by_ref(); // K1: direct wake under `st`
    }
    drop(st);
}

fn notify(shared: &Shared) {
    let mut st = shared.state.lock().unwrap();
    let w = st.waker.take();
    drop(st);
    if let Some(w) = w {
        w.wake(); // silent: guard dropped before waking
    }
}

fn indirect(shared: &Shared) {
    let st = shared.state.lock().unwrap();
    notify(shared); // K1: `notify` wakes directly, one level deep
    drop(st);
}

fn revived(shared: &Shared) {
    let mut st = shared.state.lock().unwrap();
    drop(st);
    notify(shared); // silent: released
    st = shared.state.lock().unwrap();
    notify(shared); // K1: the assignment took the lock again
    drop(st);
}
