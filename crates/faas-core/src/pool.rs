//! Indexed pools for the scheduling/eviction hot paths.
//!
//! Every structure here replaces a linear scan in `faas-sim` /
//! `faas-live` and is written so the optimized pick is *provably*
//! identical to the reference scan it replaces:
//!
//! | structure          | replaces                                    | old | new |
//! |--------------------|---------------------------------------------|-----|-----|
//! | [`PendingQueue`]   | `iter().position(\|p\| !p.cold_only)`       | O(n) | O(1) |
//! | [`FreeThreadPool`] | `max_by_key` over the warm containers       | O(n) | O(log n) |
//! | [`EvictionIndex`]  | recompute + full sort per pressure round    | O(n log n) | O(victims · log n) |
//! | [`RoundHeap`]      | full sort when priorities are not cacheable | O(n log n) | O(n + victims · log n) |
//!
//! `MaxFree` worker placement is deliberately not in this table: a
//! worker's free and reclaimable memory change twice per request and are
//! asked for once per provision, over the handful of workers a cluster
//! has, so `ClusterState::pick_worker` scans them (DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;

use crate::hash::IdBuildHasher;

/// A totally ordered `f64` for use as a heap/set key.
///
/// Construction panics on NaN with the same message the reference
/// sort used (`"priorities must not be NaN"`), so swapping a sort for
/// an indexed structure cannot silently change NaN handling.
///
/// Ordering and equality both go through [`f64::total_cmp`], never
/// `partial_cmp`: a total order with no unwrap, and — unlike a
/// derived `PartialEq` — consistent with itself on `-0.0` vs `0.0`.
#[derive(Debug, Clone, Copy)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wrap a priority. Panics if `v` is NaN.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "priorities must not be NaN");
        OrdF64(v)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// FIFO queue of pending requests where each entry is either
/// *cold-only* (must cold-start, cannot reuse a warm container) or
/// *flexible*.
///
/// Two operations, both O(1):
/// * [`PendingQueue::pop_any`] — the overall FIFO front;
/// * [`PendingQueue::pop_flexible`] — the earliest entry that is
///   **not** cold-only (the reference did
///   `iter().position(|p| !p.cold_only)` + `remove(idx)`).
///
/// Internally this is two deques (cold-only / flexible), each entry
/// stamped with a global arrival sequence number so the interleaved
/// FIFO order is recoverable exactly.
#[derive(Debug, Clone)]
pub struct PendingQueue<T> {
    cold_only: VecDeque<(u64, T)>,
    flexible: VecDeque<(u64, T)>,
    next_seq: u64,
}

impl<T> Default for PendingQueue<T> {
    fn default() -> Self {
        PendingQueue {
            cold_only: VecDeque::new(),
            flexible: VecDeque::new(),
            next_seq: 0,
        }
    }
}

impl<T> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an entry at the back of the FIFO.
    pub fn push(&mut self, item: T, cold_only: bool) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if cold_only {
            self.cold_only.push_back((seq, item));
        } else {
            self.flexible.push_back((seq, item));
        }
    }

    /// Pop the overall FIFO front; the flag says whether it was
    /// cold-only.
    pub fn pop_any(&mut self) -> Option<(T, bool)> {
        if self.front_is_cold_only()? {
            self.cold_only.pop_front().map(|(_, t)| (t, true))
        } else {
            self.flexible.pop_front().map(|(_, t)| (t, false))
        }
    }

    /// Pop the earliest entry that is not cold-only.
    pub fn pop_flexible(&mut self) -> Option<T> {
        self.flexible.pop_front().map(|(_, t)| t)
    }

    fn front_is_cold_only(&self) -> Option<bool> {
        match (self.cold_only.front(), self.flexible.front()) {
            (None, None) => None,
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (Some((cs, _)), Some((fs, _))) => Some(cs < fs),
        }
    }

    /// Total queued entries.
    pub fn len(&self) -> usize {
        self.cold_only.len() + self.flexible.len()
    }

    /// True when no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.cold_only.is_empty() && self.flexible.is_empty()
    }

    /// Number of queued cold-only entries (the reference counted these
    /// with a filter scan during worker-failure repair).
    pub fn cold_only_len(&self) -> usize {
        self.cold_only.len()
    }

    /// Iterate all entries in FIFO order as `(entry, cold_only)`.
    pub fn iter(&self) -> impl Iterator<Item = (&T, bool)> {
        // Merge the two seq-sorted runs.
        let mut merged: Vec<(u64, &T, bool)> = Vec::with_capacity(self.len());
        merged.extend(self.cold_only.iter().map(|(s, t)| (*s, t, true)));
        merged.extend(self.flexible.iter().map(|(s, t)| (*s, t, false)));
        merged.sort_by_key(|(s, _, _)| *s);
        merged.into_iter().map(|(_, t, c)| (t, c))
    }
}

/// Per-function pool of containers that still have a free thread,
/// keyed so the scheduler's pick — "most-loaded non-saturated
/// container, oldest id on ties" — is the last element of a
/// `BTreeSet<(threads_in_use, Reverse<id>)>`.
///
/// The reference scan is `max_by_key(|c| (threads_in_use(c), Reverse(c)))`
/// over the function's warm containers that have a free thread.
#[derive(Debug, Clone)]
pub struct FreeThreadPool<C: Ord + Copy + Hash> {
    keys: HashMap<C, u32, IdBuildHasher>,
    set: BTreeSet<(u32, Reverse<C>)>,
}

impl<C: Ord + Copy + Hash> Default for FreeThreadPool<C> {
    fn default() -> Self {
        FreeThreadPool {
            keys: HashMap::default(),
            set: BTreeSet::new(),
        }
    }
}

impl<C: Ord + Copy + Hash> FreeThreadPool<C> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `c` or update its load key to `threads_in_use`.
    pub fn set(&mut self, c: C, threads_in_use: u32) {
        if let Some(old) = self.keys.insert(c, threads_in_use) {
            self.set.remove(&(old, Reverse(c)));
        }
        self.set.insert((threads_in_use, Reverse(c)));
    }

    /// Remove `c` from the pool (it saturated or was evicted).
    /// Returns true if it was present.
    pub fn remove(&mut self, c: C) -> bool {
        match self.keys.remove(&c) {
            Some(old) => self.set.remove(&(old, Reverse(c))),
            None => false,
        }
    }

    /// The most-loaded container, oldest id on ties. O(log n).
    pub fn pick(&self) -> Option<C> {
        self.set.last().map(|&(_, Reverse(c))| c)
    }

    /// Whether `c` is in the pool.
    pub fn contains(&self, c: C) -> bool {
        self.keys.contains_key(&c)
    }

    /// The stored load key for `c`, if pooled (for invariant checks).
    pub fn key_of(&self, c: C) -> Option<u32> {
        self.keys.get(&c).copied()
    }

    /// Number of pooled containers.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }
}

/// Lazy-deletion min-heap of eviction candidates, grouped per worker.
///
/// Each idle container *enters* the index with a cached priority and a
/// fresh version number; leaving (reuse, eviction, crash) just bumps
/// the container out of the `live` map — stale heap entries are
/// discarded when popped, or in bulk once they outnumber the live
/// candidates (`COMPACT_SLACK`). A memory-pressure round pops victims in
/// ascending `(priority, container-id)` order in
/// O(victims · log n) instead of recomputing and sorting every
/// candidate.
///
/// **Exactness contract:** the `fresh` closure passed to
/// [`EvictionIndex::pop_min`] must return priorities that never
/// *decrease* while a container stays in the index (cached ≤ fresh —
/// "monotone staleness"). Under that contract the pop order is
/// byte-identical to a full recompute-and-sort: a popped cached key is
/// a lower bound, so an entry is only returned once its fresh value is
/// itself the minimum. Policies whose priorities can drift downward
/// while idle must use a per-round [`RoundHeap`] instead.
#[derive(Debug, Clone)]
pub struct EvictionIndex<W, C>
where
    W: Copy + Eq + Hash,
    C: Ord + Copy + Eq + Hash,
{
    heaps: HashMap<W, MinHeap<C>, IdBuildHasher>,
    live: HashMap<C, (W, u64), IdBuildHasher>,
    next_version: u64,
}

/// Min-heap of `(cached priority, container, version)` entries.
type MinHeap<C> = BinaryHeap<Reverse<(OrdF64, C, u64)>>;

/// A worker's heap is compacted once it holds more than twice the live
/// candidates plus this many entries. Only `pop_min` removes entries, so
/// without compaction a cluster that reuses containers but never evicts
/// (a keep-alive with memory to spare, a long-lived host) would keep one
/// dead entry per reuse forever; with it, a compaction always drops more
/// entries than it keeps, so the cost stays amortised O(1) per `enter`.
const COMPACT_SLACK: usize = 32;

impl<W, C> Default for EvictionIndex<W, C>
where
    W: Copy + Eq + Hash,
    C: Ord + Copy + Eq + Hash,
{
    fn default() -> Self {
        EvictionIndex {
            heaps: HashMap::default(),
            live: HashMap::default(),
            next_version: 0,
        }
    }
}

impl<W, C> EvictionIndex<W, C>
where
    W: Copy + Eq + Hash,
    C: Ord + Copy + Eq + Hash,
{
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Container `c` became an eviction candidate on worker `w` with
    /// the given cached priority. Re-entering supersedes any previous
    /// entry (its version goes stale).
    pub fn enter(&mut self, w: W, c: C, priority: f64) {
        let ver = self.next_version;
        self.next_version += 1;
        self.live.insert(c, (w, ver));
        let heap = self.heaps.entry(w).or_default();
        heap.push(Reverse((OrdF64::new(priority), c, ver)));
        if heap.len() > 2 * self.live.len() + COMPACT_SLACK {
            // Entries are distinct under their total order, so the pop
            // order does not depend on the layout the rebuild produces —
            // and `pop_min` skipped the dropped entries anyway.
            let live = &self.live;
            heap.retain(|&Reverse((_, c, ver))| live.get(&c) == Some(&(w, ver)));
        }
    }

    /// Container `c` stopped being a candidate (reused, evicted,
    /// crashed). Its heap entry dies lazily. Returns true if it was
    /// tracked.
    pub fn leave(&mut self, c: C) -> bool {
        self.live.remove(&c).is_some()
    }

    /// Re-key a still-live candidate after a policy hook dirtied its
    /// priority. The old entry goes stale; a new one is pushed.
    pub fn refresh(&mut self, c: C, priority: f64) {
        if let Some(&(w, _)) = self.live.get(&c) {
            self.enter(w, c, priority);
        }
    }

    /// Number of live candidates across all workers.
    pub fn len_live(&self) -> usize {
        self.live.len()
    }

    /// Drop all state for a failed worker.
    pub fn drop_worker(&mut self, w: W) {
        self.heaps.remove(&w);
        self.live.retain(|_, &mut (lw, _)| lw != w);
    }

    /// Pop the minimum-(priority, id) candidate on `w`, removing it
    /// from the index (callers evict every popped victim).
    ///
    /// `fresh` re-evaluates a candidate at pop time: `Some(p)` is the
    /// current priority (≥ the cached one, see the struct-level
    /// contract); `None` permanently drops the candidate (defensive —
    /// callers that keep `enter`/`leave` in sync never hit it).
    pub fn pop_min<F>(&mut self, w: W, mut fresh: F) -> Option<(f64, C)>
    where
        F: FnMut(C) -> Option<f64>,
    {
        let heap = self.heaps.get_mut(&w)?;
        loop {
            let Reverse((cached, c, ver)) = heap.pop()?;
            let valid = matches!(self.live.get(&c), Some(&(lw, lver)) if lw == w && lver == ver);
            if !valid {
                continue;
            }
            match fresh(c) {
                None => {
                    self.live.remove(&c);
                }
                Some(p) => {
                    let p = OrdF64::new(p);
                    if p == cached {
                        self.live.remove(&c);
                        return Some((p.get(), c));
                    }
                    // Stale-low entry: re-key at the fresh priority
                    // (same version stays valid) and keep popping.
                    heap.push(Reverse((p, c, ver)));
                }
            }
        }
    }
}

/// Per-round min-heap for policies whose priorities are not cacheable
/// (they depend on clock state or other containers and can move in
/// either direction mid-idle).
///
/// Built by O(n) heapify from the frozen per-round `(priority, id)`
/// snapshot; popping victims costs O(victims · log n), versus the
/// reference's unconditional O(n log n) full sort. Pop order —
/// ascending `(priority, id)` — is identical to the reference sort
/// because ids are unique (no stability concerns).
///
/// One heap serves every round: [`RoundHeap::refill`] keeps the buffer,
/// so a round allocates only when it is the largest so far.
#[derive(Debug, Clone)]
pub struct RoundHeap<C: Ord + Copy> {
    heap: BinaryHeap<Reverse<(OrdF64, C)>>,
}

impl<C: Ord + Copy> Default for RoundHeap<C> {
    fn default() -> Self {
        RoundHeap {
            heap: BinaryHeap::new(),
        }
    }
}

impl<C: Ord + Copy> RoundHeap<C> {
    /// Drops whatever the last round left and heapifies a frozen
    /// snapshot of `(priority, id)` candidates in its place.
    pub fn refill(&mut self, entries: impl IntoIterator<Item = (f64, C)>) {
        let mut buf = std::mem::take(&mut self.heap).into_vec();
        buf.clear();
        buf.extend(
            entries
                .into_iter()
                .map(|(p, c)| Reverse((OrdF64::new(p), c))),
        );
        self.heap = BinaryHeap::from(buf);
    }

    /// Pop the minimum-(priority, id) candidate.
    pub fn pop(&mut self) -> Option<(f64, C)> {
        self.heap.pop().map(|Reverse((p, c))| (p.get(), c))
    }

    /// Remaining candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordf64_orders_like_total_cmp() {
        let mut v = vec![3.0, -1.0, 0.0, 2.5, -0.0];
        v.sort_by(f64::total_cmp);
        let mut w: Vec<OrdF64> = vec![3.0, -1.0, 0.0, 2.5, -0.0]
            .into_iter()
            .map(OrdF64::new)
            .collect();
        w.sort();
        assert_eq!(v, w.into_iter().map(OrdF64::get).collect::<Vec<_>>());
        // total_cmp distinguishes the zeros (-0.0 < 0.0) and Eq agrees
        // with Ord, unlike f64's PartialEq where -0.0 == 0.0.
        assert!(v[1].is_sign_negative() && v[2].is_sign_positive());
        assert_ne!(OrdF64::new(-0.0), OrdF64::new(0.0));
    }

    #[test]
    #[should_panic(expected = "priorities must not be NaN")]
    fn ordf64_rejects_nan() {
        let _ = OrdF64::new(f64::NAN);
    }

    /// Model: the reference representation is a single VecDeque of
    /// (item, cold_only); pop_any = pop_front, pop_flexible =
    /// position(|p| !cold_only) + remove.
    #[derive(Default)]
    struct ModelQueue(VecDeque<(u32, bool)>);

    impl ModelQueue {
        fn push(&mut self, item: u32, cold_only: bool) {
            self.0.push_back((item, cold_only));
        }
        fn pop_any(&mut self) -> Option<(u32, bool)> {
            self.0.pop_front()
        }
        fn pop_flexible(&mut self) -> Option<u32> {
            let idx = self.0.iter().position(|&(_, c)| !c)?;
            self.0.remove(idx).map(|(i, _)| i)
        }
    }

    #[test]
    fn pending_queue_interleaved_matches_reference_scan() {
        let mut q = PendingQueue::new();
        let mut m = ModelQueue::default();
        // Deterministic but adversarial op mix: pushes with varying
        // cold-only flags interleaved with both pop flavors.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for step in 0..2000 {
            match next() % 4 {
                0 | 1 => {
                    let cold = next() % 3 == 0;
                    q.push(step, cold);
                    m.push(step, cold);
                }
                2 => assert_eq!(q.pop_any(), m.pop_any()),
                _ => assert_eq!(q.pop_flexible(), m.pop_flexible()),
            }
            assert_eq!(q.len(), m.0.len());
            assert_eq!(q.cold_only_len(), m.0.iter().filter(|&&(_, c)| c).count());
            let got: Vec<(u32, bool)> = q.iter().map(|(&i, c)| (i, c)).collect();
            let want: Vec<(u32, bool)> = m.0.iter().copied().collect();
            assert_eq!(got, want, "FIFO iteration diverged at step {step}");
        }
    }

    #[test]
    fn pending_queue_drain_preserves_fifo() {
        let mut q = PendingQueue::new();
        q.push('a', false);
        q.push('b', true);
        q.push('c', false);
        q.push('d', true);
        assert_eq!(q.pop_flexible(), Some('a'));
        let drained: Vec<_> = std::iter::from_fn(|| q.pop_any()).collect();
        assert_eq!(drained, vec![('b', true), ('c', false), ('d', true)]);
        assert!(q.is_empty());
    }

    #[test]
    fn free_thread_pool_picks_most_loaded_oldest_id() {
        let mut p: FreeThreadPool<u64> = FreeThreadPool::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut seed = 42u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as u32
        };
        for _ in 0..2000 {
            let c = (next() % 20) as u64;
            match next() % 3 {
                0 => {
                    let t = next() % 4;
                    p.set(c, t);
                    model.insert(c, t);
                }
                1 => {
                    assert_eq!(p.remove(c), model.remove(&c).is_some());
                }
                _ => {}
            }
            let want = model
                .iter()
                .max_by_key(|(&cid, &t)| (t, Reverse(cid)))
                .map(|(&cid, _)| cid);
            assert_eq!(p.pick(), want);
            assert_eq!(p.len(), model.len());
        }
    }

    #[test]
    fn eviction_index_pops_in_reference_sort_order() {
        let mut idx: EvictionIndex<u8, u64> = EvictionIndex::new();
        let entries: Vec<(f64, u64)> = vec![(5.0, 3), (1.0, 9), (5.0, 1), (2.5, 4), (0.5, 7)];
        for &(p, c) in &entries {
            idx.enter(0, c, p);
        }
        let mut want = entries.clone();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some(v) = idx.pop_min(0, |_| None) {
            got.push(v);
        }
        // fresh == None drops entries, so replay with identity fresh.
        assert!(got.is_empty());
        for &(p, c) in &entries {
            idx.enter(0, c, p);
        }
        let fresh: HashMap<u64, f64> = entries.iter().map(|&(p, c)| (c, p)).collect();
        let mut got = Vec::new();
        while let Some(v) = idx.pop_min(0, |c| fresh.get(&c).copied()) {
            got.push(v);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn eviction_index_lazy_deletion_and_versions() {
        let mut idx: EvictionIndex<u8, u64> = EvictionIndex::new();
        idx.enter(0, 1, 10.0);
        idx.enter(0, 2, 20.0);
        assert!(idx.leave(1));
        assert!(!idx.leave(1));
        // Re-enter 1 with a different priority: old heap entry stale.
        idx.enter(0, 1, 30.0);
        assert_eq!(idx.len_live(), 2);
        let fresh = |c: u64| Some(if c == 1 { 30.0 } else { 20.0 });
        assert_eq!(idx.pop_min(0, fresh), Some((20.0, 2)));
        assert_eq!(idx.pop_min(0, fresh), Some((30.0, 1)));
        assert_eq!(idx.pop_min(0, fresh), None);
        assert_eq!(idx.len_live(), 0);
    }

    #[test]
    fn eviction_index_monotone_refresh_matches_fresh_sort() {
        // Cached priorities are stale-low (e.g. LFU invocation counts
        // grew since idle-entry); pop order must follow the FRESH
        // values, exactly as the reference recompute-and-sort would.
        let mut idx: EvictionIndex<u8, u64> = EvictionIndex::new();
        let cached: Vec<(f64, u64)> = vec![(1.0, 1), (2.0, 2), (3.0, 3), (4.0, 4)];
        for &(p, c) in &cached {
            idx.enter(0, c, p);
        }
        // Fresh values invert the cached order while respecting
        // cached <= fresh.
        let fresh: HashMap<u64, f64> = [(1u64, 9.0), (2, 7.0), (3, 5.0), (4, 4.0)]
            .into_iter()
            .collect();
        let mut want: Vec<(f64, u64)> = fresh.iter().map(|(&c, &p)| (p, c)).collect();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut got = Vec::new();
        while let Some(v) = idx.pop_min(0, |c| fresh.get(&c).copied()) {
            got.push(v);
        }
        assert_eq!(got, want);
    }

    /// `enter` without the compaction step: the index as it was before
    /// heaps were ever compacted.
    fn enter_uncompacted(idx: &mut EvictionIndex<u8, u64>, w: u8, c: u64, priority: f64) {
        let ver = idx.next_version;
        idx.next_version += 1;
        idx.live.insert(c, (w, ver));
        let entry = Reverse((OrdF64::new(priority), c, ver));
        idx.heaps.entry(w).or_default().push(entry);
    }

    #[test]
    fn eviction_index_compaction_never_changes_a_pop() {
        // Random enter / leave / refresh / pop_min on a compacting index
        // and on an uncompacted copy: every pop returns the same victim.
        // Fresh priorities only grow (the exactness contract), and many
        // more enters than pops, so compactions do happen.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |below: u64| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) % below
        };
        let mut compacting: EvictionIndex<u8, u64> = EvictionIndex::new();
        let mut plain: EvictionIndex<u8, u64> = EvictionIndex::new();
        let mut prio: HashMap<u64, f64> = HashMap::new();
        let (mut pops, mut largest_plain) = (0, 0);
        for _ in 0..60_000 {
            let c = next(40);
            let w = (c % 3) as u8;
            match next(16) {
                0..=7 => {
                    let p = next(1_000) as f64;
                    prio.insert(c, p);
                    compacting.enter(w, c, p);
                    enter_uncompacted(&mut plain, w, c, p);
                }
                8..=12 => assert_eq!(compacting.leave(c), plain.leave(c)),
                13 | 14 => {
                    // A hook dirtied the priority: upwards only.
                    let p = prio.get(&c).copied().unwrap_or(0.0) + next(50) as f64;
                    prio.insert(c, p);
                    compacting.refresh(c, p);
                    if let Some(&(lw, _)) = plain.live.get(&c) {
                        enter_uncompacted(&mut plain, lw, c, p);
                    }
                }
                _ => {
                    // Drift some priorities up behind the index's back,
                    // then pop: stale-low entries get re-keyed.
                    for _ in 0..3 {
                        *prio.entry(next(40)).or_insert(0.0) += next(20) as f64;
                    }
                    let fresh = |c: u64| prio.get(&c).copied();
                    let got = compacting.pop_min(w, fresh);
                    assert_eq!(got, plain.pop_min(w, fresh));
                    pops += usize::from(got.is_some());
                }
            }
            assert_eq!(compacting.len_live(), plain.len_live());
            largest_plain = largest_plain.max(plain.heaps.values().map(|h| h.len()).sum());
        }
        assert!(pops > 1_000, "only {pops} pops compared");
        let bound = 3 * (2 * 40 + COMPACT_SLACK);
        assert!(
            largest_plain > 2 * bound,
            "the uncompacted copy peaked at {largest_plain} entries: nothing to compact"
        );
    }

    #[test]
    fn eviction_index_heap_stays_bounded_without_evictions() {
        // Ten containers reused a million times and never evicted: the
        // heap used to keep one dead entry per reuse.
        let mut idx: EvictionIndex<u8, u64> = EvictionIndex::new();
        for round in 0..1_000_000u64 {
            let c = round % 10;
            idx.leave(c);
            idx.enter(0, c, round as f64);
            assert!(
                idx.heaps[&0].len() <= 2 * idx.len_live() + COMPACT_SLACK,
                "round {round}: {} entries for {} live candidates",
                idx.heaps[&0].len(),
                idx.len_live()
            );
        }
        // Still exact: the survivors pop in (priority, id) order.
        let mut got = Vec::new();
        while let Some((p, c)) = idx.pop_min(0, |c| Some((999_990 + c) as f64)) {
            got.push((p, c));
        }
        let want: Vec<(f64, u64)> = (0..10).map(|c| ((999_990 + c) as f64, c)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn eviction_index_is_per_worker() {
        let mut idx: EvictionIndex<u8, u64> = EvictionIndex::new();
        idx.enter(0, 1, 1.0);
        idx.enter(1, 2, 2.0);
        assert_eq!(idx.pop_min(0, |_| Some(1.0)), Some((1.0, 1)));
        assert_eq!(idx.pop_min(0, |_| Some(0.0)), None);
        idx.drop_worker(1);
        assert_eq!(idx.pop_min(1, |_| Some(2.0)), None);
        assert_eq!(idx.len_live(), 0);
    }

    #[test]
    fn round_heap_matches_reference_sort() {
        let entries: Vec<(f64, u64)> = vec![(3.0, 2), (3.0, 1), (-1.0, 5), (0.0, 0), (2.0, 4)];
        let mut want = entries.clone();
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut heap = RoundHeap::default();
        // A refill replaces what the round before left behind.
        heap.refill([(9.0, 9), (8.0, 8)]);
        assert_eq!(heap.pop(), Some((8.0, 8)));
        heap.refill(entries);
        let mut got = Vec::new();
        while let Some(v) = heap.pop() {
            got.push(v);
        }
        assert_eq!(got, want);
    }
}
