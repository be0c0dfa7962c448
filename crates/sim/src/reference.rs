//! The pre-index linear scans, retained verbatim as the oracle for
//! differential testing.
//!
//! Every function here is the naive O(n) / O(n log n) implementation the
//! indexed hot paths replaced. [`crate::ScanMode::Reference`] routes the
//! engine through these, and `tests/equivalence.rs` asserts that random
//! workloads produce byte-identical reports either way. Keep these scans
//! dumb and obviously correct — their value is that they are too simple
//! to be wrong in the same way an index-maintenance bug would be.
//!
//! `MaxFree` placement has no scan here: `ClusterState::pick_worker`
//! is the two filter-then-max passes in both modes (an ordered index
//! over the workers costs more to keep in step, twice a request, than
//! the scan costs once a provision — DESIGN.md §7), and an oracle
//! identical to what it checks would check nothing.
//! `crates/sim/tests/placement.rs` pins the tie rules directly.

use std::cmp::Reverse;

use faas_trace::FunctionId;

use crate::cluster::ClusterState;
use crate::ids::ContainerId;

/// Dispatch pick by a linear max-scan over the function's warm
/// containers, keeping those with a free thread: the most-loaded
/// non-saturated container, oldest id on ties. Reads only the container
/// table's own `threads_in_use`, never the pool it checks.
pub fn pick_available(cluster: &ClusterState, func: FunctionId) -> Option<ContainerId> {
    let rt = cluster.fn_runtime(func)?;
    rt.warm
        .iter()
        .map(|cid| {
            cluster
                .container(*cid)
                .expect("warm set references dead container")
        })
        .filter(|c| c.has_free_thread())
        .max_by_key(|c| (c.threads_in_use, Reverse(c.id)))
        .map(|c| c.id)
}

/// The eviction order of a memory-pressure round: a full
/// recompute-and-sort of every candidate's `(priority, id)`, ascending.
/// Panics on NaN priorities exactly as the original sort did.
pub fn sorted_eviction_candidates(
    mut candidates: Vec<(f64, ContainerId)>,
) -> Vec<(f64, ContainerId)> {
    assert!(
        candidates.iter().all(|(p, _)| !p.is_nan()),
        "priorities must not be NaN"
    );
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    candidates
}
