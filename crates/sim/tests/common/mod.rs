//! Cluster memory rebuilt from a run's trace, the reference the cost
//! ledger and the peak checks are held to. `tests/properties.rs` at the
//! workspace root includes this file too.

use std::collections::BTreeMap;

use faas_obs::ObsEvent;
use faas_trace::{TimePoint, Trace};

/// Rebuilds the cluster's used memory from the events of a
/// `run_traced` run of `trace`. A container holds its function's memory
/// from its `ProvisionBegin` until its `ProvisionEnd { ok: false }` or
/// `Evict`, or else until `settled_at` (the report's
/// `ledger_settled_at`). Returns the peak in MB, taken in event order,
/// and the integral over `[0, settled_at]` in MB·µs.
///
/// # Panics
///
/// Panics if a container is destroyed twice, before it began, or after
/// `settled_at`.
pub fn residency(trace: &Trace, events: &[ObsEvent], settled_at: TimePoint) -> (u64, u128) {
    let held = |from: TimePoint, to: TimePoint, mb: u64| {
        assert!(from <= to && to <= settled_at, "residency {from:?}..{to:?}");
        u128::from(mb) * u128::from((to - from).as_micros())
    };
    let mut alive: BTreeMap<u64, (TimePoint, u64)> = BTreeMap::new();
    let (mut used, mut peak, mut mb_us) = (0, 0, 0);
    for event in events {
        match *event {
            ObsEvent::ProvisionBegin { at, cid, func, .. } => {
                let mb = u64::from(trace.function(func).expect("traced function").mem_mb);
                assert!(alive.insert(cid, (at, mb)).is_none(), "cid {cid} reused");
                used += mb;
                peak = peak.max(used);
            }
            ObsEvent::ProvisionEnd { at, cid, ok: false } | ObsEvent::Evict { at, cid, .. } => {
                let (from, mb) = alive.remove(&cid).expect("destroyed once, after it began");
                used -= mb;
                mb_us += held(from, at, mb);
            }
            _ => {}
        }
    }
    for (from, mb) in alive.into_values() {
        mb_us += held(from, settled_at, mb);
    }
    (peak, mb_us)
}
