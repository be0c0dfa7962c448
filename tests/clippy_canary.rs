//! One deliberate violation per rule of DESIGN.md §8 that clippy
//! enforces, and one per entry of the root `clippy.toml`, each under an
//! `#[expect]`. A rule that stops firing — an entry deleted from
//! `clippy.toml`, a lint renamed or dropped by a new clippy — leaves its
//! expectation unfulfilled, and `ci.sh`'s clippy step (`--all-targets
//! -- -D warnings`) fails on it. The lint *levels* are not provable this
//! way: an expectation is fulfilled at any level.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

fn w1_e1_types() {
    #[expect(clippy::disallowed_types, reason = "canary: W1 must fire")]
    let _ = std::time::Instant::now();
    #[expect(clippy::disallowed_types, reason = "canary: W1 must fire")]
    let _ = std::time::SystemTime::now();
    #[expect(clippy::disallowed_types, reason = "canary: E1 must fire")]
    let _ = std::collections::hash_map::RandomState::new();
    #[expect(clippy::disallowed_types, reason = "canary: E1 must fire")]
    let _ = std::hash::DefaultHasher::new();
}

fn e1_env() {
    #[expect(clippy::disallowed_methods, reason = "canary: E1 must fire")]
    let _ = std::env::var("CANARY");
    #[expect(clippy::disallowed_methods, reason = "canary: E1 must fire")]
    let _ = std::env::var_os("CANARY");
    #[expect(clippy::disallowed_methods, reason = "canary: E1 must fire")]
    let _ = std::env::vars().next();
    #[expect(clippy::disallowed_methods, reason = "canary: E1 must fire")]
    let _ = std::env::vars_os().next();
}

fn o1(mut map: HashMap<u32, u32>, mut set: HashSet<u32>) {
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.iter().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.iter_mut().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.keys().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.values().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.values_mut().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.clone().into_keys().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.clone().into_values().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = map.drain().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = set.iter().next();
    #[expect(clippy::disallowed_methods, reason = "canary: O1 must fire")]
    let _ = set.drain().next();
    let mut odd = false;
    #[expect(clippy::iter_over_hash_type, reason = "canary: O1 must fire")]
    for k in &set {
        odd ^= k % 2 == 1;
    }
    assert!(!odd);
}

fn c1(unsigned: u64, signed: i64) {
    #[expect(clippy::cast_possible_truncation, reason = "canary: C1 must fire")]
    let _ = unsigned as u32;
    #[expect(clippy::cast_sign_loss, reason = "canary: C1 must fire")]
    let _ = signed as u64;
    #[expect(clippy::cast_possible_wrap, reason = "canary: C1 must fire")]
    let _ = unsigned as i64;
    #[expect(clippy::cast_precision_loss, reason = "canary: C1 must fire")]
    let _ = unsigned as f64;
}

#[expect(clippy::unwrap_used, reason = "canary: U1 must fire")]
fn u1(maybe: Option<u32>) -> u32 {
    maybe.unwrap()
}

#[expect(clippy::print_stdout, reason = "canary: P1 must fire")]
#[expect(clippy::print_stderr, reason = "canary: P1 must fire")]
fn p1() {
    println!("canary");
    eprintln!("canary");
}

#[expect(clippy::await_holding_lock, reason = "canary: G1 must fire")]
async fn g1(lock: &Mutex<u32>) {
    let guard = lock.lock().expect("unpoisoned");
    std::future::ready(()).await;
    drop(guard);
}

#[expect(clippy::allow_attributes, reason = "canary: A0 must fire")]
#[allow(unused_variables, reason = "canary")]
fn a0_allow() {}

#[expect(
    clippy::allow_attributes_without_reason,
    reason = "canary: A0 must fire"
)]
#[expect(unused_variables)]
fn a0_no_reason() {
    let unused = 0;
}

#[test]
fn canaries_compile_and_run() {
    w1_e1_types();
    e1_env();
    o1(HashMap::from([(0, 0)]), HashSet::from([0]));
    c1(1, 1);
    assert_eq!(u1(Some(1)), 1);
    p1();
    drop(g1(&Mutex::new(0)));
    a0_allow();
    a0_no_reason();
}
