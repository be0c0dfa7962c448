//! L1 fixture: lock-acquisition-order cycles.
//!
//! Not compiled — analyzed by `tests/corpus.rs` through
//! `analyze_workspace` with a config naming the `alpha` and `beta`
//! fields as locks. `forward` and `backward` together create the
//! alpha→beta→alpha cycle, so both inner acquisitions are findings;
//! `reentrant` is a self-edge. Expected: four L1 findings (the cycle's
//! two edges, the self-edge, and the second instance of beta→alpha);
//! the sequential `ordered` is silent.

use std::sync::Mutex;

struct Two {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}

fn forward(t: &Two) {
    let a = t.alpha.lock().unwrap();
    let b = t.beta.lock().unwrap(); // L1: alpha→beta closes the cycle
    drop(b);
    drop(a);
}

fn backward(t: &Two) {
    let b = t.beta.lock().unwrap();
    let a = t.alpha.lock().unwrap(); // L1: beta→alpha closes the cycle
    drop(a);
    drop(b);
}

fn reentrant(t: &Two) {
    let a1 = t.alpha.lock().unwrap();
    let a2 = t.alpha.lock().unwrap(); // L1: `alpha` is already held
    drop(a2);
    drop(a1);
}

fn backward_again(t: &Two) {
    let b = t.beta.lock().unwrap();
    let a = t.alpha.lock().unwrap(); // L1: every instance of an edge on a cycle
    drop(a);
    drop(b);
}

fn ordered(t: &Two) {
    let a = t.alpha.lock().unwrap();
    drop(a);
    let b = t.beta.lock().unwrap(); // silent: nothing else held
    drop(b);
}
