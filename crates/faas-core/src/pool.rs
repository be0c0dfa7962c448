//! Indexed pools for the scheduling/eviction hot paths.
//!
//! Every structure here replaces a linear scan in `faas-sim` /
//! `faas-live` and is written so the optimized pick is *provably*
//! identical to the reference scan it replaces:
//!
//! | structure          | replaces                                    | old | new |
//! |--------------------|---------------------------------------------|-----|-----|
//! | [`PendingQueue`]   | `iter().position(\|p\| !p.cold_only)`       | O(n) | O(1) |
//! | [`FreeThreadPool`] | `max_by_key` over the warm containers       | O(n) | O(1) pick, O(n) update |
//! | [`RoundHeap`]      | full sort of a REPLACE round's candidates   | O(n log n) | O(n) integer argmin per victim up to four, O(n + victims · log n) beyond |
//!
//! `MaxFree` worker placement is deliberately not in this table: a
//! worker's free and reclaimable memory change twice per request and are
//! asked for once per provision, over the handful of workers a cluster
//! has, so `ClusterState::pick_worker` scans them (DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::Hash;

use crate::hash::IdBuildHasher;

/// A totally ordered `f64`, the key of the `EvictionIndex` heap.
///
/// Construction panics on NaN with the same message the reference
/// sort used (`"priorities must not be NaN"`), so swapping a sort for
/// an indexed structure cannot silently change NaN handling.
///
/// Ordering and equality both go through [`f64::total_cmp`], never
/// `partial_cmp`: a total order with no unwrap, and — unlike a
/// derived `PartialEq` — consistent with itself on `-0.0` vs `0.0`.
#[derive(Debug, Clone, Copy)]
struct OrdF64(f64);

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
#[derive(Debug, Default)]
pub struct PendingQueue<T> {
    cold_only: VecDeque<(u64, T)>,
    flexible: VecDeque<(u64, T)>,
    next_seq: u64,
}

impl<T> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        PendingQueue {
            cold_only: VecDeque::new(),
            flexible: VecDeque::new(),
            next_seq: 0,
        }
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
}

/// Per-function pool of containers that still have a free thread: one
/// ascending-sorted `Vec<(threads_in_use, Reverse<id>)>` whose last
/// element is the scheduler's pick — "most-loaded non-saturated
/// container, oldest id on ties", the reference scan's
/// `max_by_key(|c| (threads_in_use(c), Reverse(c)))`. A thread
/// transition knows the container's old and new load, so
/// [`FreeThreadPool::rekey`] finds it with one binary search; `set`,
/// which does not, searches each load's run. An update shifts the tail,
/// which is cheap because it meets about three entries on average
/// (DESIGN.md §7).
#[derive(Debug, Default)]
pub struct FreeThreadPool<C: Ord + Copy> {
    entries: Vec<(u32, Reverse<C>)>,
}

impl<C: Ord + Copy> FreeThreadPool<C> {
    /// An empty pool.
    pub fn new() -> Self {
        FreeThreadPool {
            entries: Vec::new(),
        }
    }

    /// Position of `c`: a binary search inside each load's run, from
    /// the lowest load up.
    fn find(&self, c: C) -> Option<usize> {
        let mut run = 0;
        while let Some(&(load, _)) = self.entries.get(run) {
            let rest = &self.entries[run..];
            match rest.binary_search(&(load, Reverse(c))) {
                Ok(i) => return Some(run + i),
                Err(_) => run += rest.partition_point(|&(l, _)| l == load),
            }
        }
        None
    }

    /// Insert `c` or update its load key to `threads_in_use`.
    pub fn set(&mut self, c: C, threads_in_use: u32) {
        self.remove(c);
        let entry = (threads_in_use, Reverse(c));
        let at = self.entries.partition_point(|e| *e < entry);
        self.entries.insert(at, entry);
    }

    /// Move `c` from load key `from` to load key `to`, `None` meaning
    /// not pooled: what a thread transition does, since it knows both.
    /// One binary search finds the old entry and one `partition_point`
    /// places the new one, where [`FreeThreadPool::set`] first searches
    /// every load's run.
    ///
    /// # Panics
    ///
    /// Panics if `from` is `Some` and `c` is not pooled under it.
    pub fn rekey(&mut self, c: C, from: Option<u32>, to: Option<u32>) {
        if let Some(load) = from {
            let at = self.entries.binary_search(&(load, Reverse(c)));
            self.entries
                .remove(at.expect("rekey: the container is pooled under its old load"));
        }
        if let Some(load) = to {
            let entry = (load, Reverse(c));
            let at = self.entries.partition_point(|e| *e < entry);
            self.entries.insert(at, entry);
        }
    }

    /// Remove `c` from the pool, whatever its load key. Returns true if
    /// it was present.
    pub fn remove(&mut self, c: C) -> bool {
        self.find(c).map(|i| self.entries.remove(i)).is_some()
    }

    /// The most-loaded container, oldest id on ties. O(1).
    pub fn pick(&self) -> Option<C> {
        self.entries.last().map(|&(_, Reverse(c))| c)
    }

    /// The stored load key for `c`, if pooled (for invariant checks).
    pub fn key_of(&self, c: C) -> Option<u32> {
        self.find(c).map(|i| self.entries[i].0)
    }

    /// Number of pooled containers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

// Unused: REPLACE rounds take their victims from a `RoundHeap`. The
// frozen `benchmark/benches/adapter.rs` still calls this index; the
// next `benchmark` PR removes both.
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
/// itself the minimum.
#[doc(hidden)]
#[derive(Debug, Default)]
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

impl<W, C> EvictionIndex<W, C>
where
    W: Copy + Eq + Hash,
    C: Ord + Copy + Eq + Hash,
{
    /// An empty index.
    pub fn new() -> Self {
        EvictionIndex {
            heaps: HashMap::default(),
            live: HashMap::default(),
            next_version: 0,
        }
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

    /// Number of live candidates across all workers.
    pub fn len_live(&self) -> usize {
        self.live.len()
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

/// Pops a [`RoundHeap`] round serves by linear argmin before it
/// heapifies what is left. A REPLACE round evicts about two victims on
/// average, so most rounds never build a heap; of 1, 2, 3 and 4, four
/// took the least time per round in pops on every volatile baseline.
const LINEAR_POPS: u32 = 4;

/// The `u64` whose unsigned order is [`f64::total_cmp`]'s: a negative
/// value has every bit flipped, any other only its sign bit.
fn total_key(p: f64) -> u64 {
    let bits = p.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`total_key`].
fn from_total_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// One REPLACE round's victim order: priorities are evaluated once per
/// round, as the paper's REPLACE (Algorithm 2) does, and never cached
/// across rounds, so a policy's priority may read anything.
///
/// [`RoundHeap::refill`] stores the frozen per-round snapshot unordered,
/// each priority as the `u64` whose order is its `total_cmp` order, so a
/// round compares integers only. The round's first four pops are each a
/// two-pass argmin and a `swap_remove`: one pass finds the least key, a
/// second the least id among the entries that hold it (ties are common:
/// every container of a function often shares one priority). Only a
/// fifth pop heapifies what is left (O(n)), and pops after it cost
/// O(log n) each. The worst case stays O(n + victims · log n), versus
/// the reference's unconditional O(n log n) full sort. Pop order —
/// ascending `(priority, id)` — is identical to the reference sort
/// because ids are unique (no stability concerns).
///
/// One buffer serves every round: [`RoundHeap::refill`] keeps it, so a
/// round allocates only when it is the largest so far.
#[derive(Debug, Default)]
pub struct RoundHeap<C: Ord + Copy> {
    /// The snapshot as `refill` stored it, minus the linear pops. Empty
    /// once a later pop has moved it into `heap`.
    unordered: Vec<Reverse<(u64, C)>>,
    heap: BinaryHeap<Reverse<(u64, C)>>,
    /// Pops this round has made by linear argmin.
    linear_pops: u32,
}

impl<C: Ord + Copy> RoundHeap<C> {
    /// Drops whatever the last round left and stores a frozen snapshot
    /// of `(priority, id)` candidates in its place.
    ///
    /// # Panics
    ///
    /// Panics if a priority is NaN, as the reference sort does.
    pub fn refill(&mut self, entries: impl IntoIterator<Item = (f64, C)>) {
        // The buffer is in `heap` if the last round heapified.
        if self.unordered.capacity() == 0 {
            self.unordered = std::mem::take(&mut self.heap).into_vec();
        }
        self.unordered.clear();
        self.heap.clear();
        self.unordered.extend(entries.into_iter().map(|(p, c)| {
            assert!(!p.is_nan(), "priorities must not be NaN");
            Reverse((total_key(p), c))
        }));
        self.linear_pops = 0;
    }

    /// Pop the minimum-(priority, id) candidate.
    pub fn pop(&mut self) -> Option<(f64, C)> {
        let Reverse((key, c)) = if self.linear_pops < LINEAR_POPS {
            let min = self.unordered.iter().map(|e| e.0 .0).min()?;
            let (at, _) = self
                .unordered
                .iter()
                .enumerate()
                .filter(|(_, e)| e.0 .0 == min)
                .min_by_key(|(_, e)| e.0 .1)?;
            self.linear_pops += 1;
            self.unordered.swap_remove(at)
        } else {
            if !self.unordered.is_empty() {
                self.heap = BinaryHeap::from(std::mem::take(&mut self.unordered));
            }
            self.heap.pop()?
        };
        Some((from_total_key(key), c))
    }

    /// Remaining candidates.
    pub fn len(&self) -> usize {
        self.unordered.len() + self.heap.len()
    }

    /// True when no candidates remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_testkit::Checker;

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
        // The same on every pair, infinities included.
        let finite = [f64::NEG_INFINITY, -1.0, -0.0, 0.0, 1.0, f64::INFINITY];
        for &a in &finite {
            for &b in &finite {
                assert_eq!(
                    OrdF64::new(a).cmp(&OrdF64::new(b)),
                    a.total_cmp(&b),
                    "OrdF64 disagrees with total_cmp on ({a}, {b})"
                );
                assert_eq!(
                    OrdF64::new(a) == OrdF64::new(b),
                    a.total_cmp(&b).is_eq(),
                    "Eq inconsistent with Ord on ({a}, {b})"
                );
            }
        }
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
        }
        // What is left leaves in full FIFO order, flags included.
        let got: Vec<_> = std::iter::from_fn(|| q.pop_any()).collect();
        let want: Vec<_> = std::iter::from_fn(|| m.pop_any()).collect();
        assert!(!want.is_empty(), "the op mix leaves entries to drain");
        assert_eq!(got, want, "FIFO order diverged at the drain");
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
        // Loads 0..8 (Fig. 21's thread counts); ids from a fixed set of
        // 24 spread over the whole u64 range, both ends included, so the
        // per-load binary search sees neighbours that differ in any bit.
        let mut seed = 42u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed
        };
        let mut ids: Vec<u64> = (0..22).map(|_| next()).collect();
        ids.extend([0, u64::MAX]);
        let mut p: FreeThreadPool<u64> = FreeThreadPool::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for _ in 0..5000 {
            let c = ids[(next() >> 33) as usize % ids.len()];
            match (next() >> 33) % 3 {
                0 => {
                    let t = ((next() >> 33) % 8) as u32;
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
            assert_eq!(p.is_empty(), model.is_empty());
            for &id in &ids {
                assert_eq!(p.key_of(id), model.get(&id).copied(), "key of {id:#x}");
            }
        }
    }

    /// `rekey` against `set`/`remove`: random provision, occupy, release
    /// and evict transitions of containers with 1–4 threads, each moving
    /// the container from the load key it had to the one it gets (`None`
    /// when saturated or gone), leave the pool where `set` and `remove`
    /// would.
    #[test]
    fn free_thread_pool_rekey_matches_set() {
        Checker::new("free_thread_pool_rekey_matches_set").run(|g| {
            let capacity = g.u32(1..5);
            // Threads in use per container, `None` while not warm.
            let mut threads: Vec<Option<u32>> = vec![None; g.usize(1..12)];
            let pooled = |t: Option<u32>| t.filter(|&t| t < capacity);
            let mut pool: FreeThreadPool<usize> = FreeThreadPool::new();
            let mut model: FreeThreadPool<usize> = FreeThreadPool::new();
            for _ in 0..g.usize(0..200) {
                let c = g.usize(0..threads.len());
                let before = threads[c];
                let after = match (g.u32(0..4), before) {
                    (0, None) => Some(0),
                    (1, Some(t)) if t < capacity => Some(t + 1),
                    (2, Some(t)) if t > 0 => Some(t - 1),
                    (3, Some(0)) => None,
                    _ => continue,
                };
                threads[c] = after;
                pool.rekey(c, pooled(before), pooled(after));
                match pooled(after) {
                    Some(t) => model.set(c, t),
                    None => {
                        model.remove(c);
                    }
                }
                assert_eq!(pool.pick(), model.pick());
                assert_eq!(pool.len(), model.len());
                for id in 0..threads.len() {
                    assert_eq!(pool.key_of(id), model.key_of(id), "key of {id}");
                }
            }
        });
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
        // Random enter / leave / re-enter / pop_min on a compacting index
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
                    // A hook dirtied the priority, upwards only: a
                    // tracked candidate re-enters on its own worker.
                    let p = prio.get(&c).copied().unwrap_or(0.0) + next(50) as f64;
                    prio.insert(c, p);
                    if let Some(&(lw, _)) = plain.live.get(&c) {
                        compacting.enter(lw, c, p);
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
        assert_eq!(idx.pop_min(1, |_| Some(2.0)), Some((2.0, 2)));
        assert_eq!(idx.len_live(), 0);
    }

    /// The integer key orders like `total_cmp` and round-trips every
    /// bit pattern, the zeros, infinities and subnormals included.
    #[test]
    fn total_key_orders_like_total_cmp() {
        const EDGES: [f64; 10] = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.0,
            -f64::MIN_POSITIVE / 2.0,
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            1.0,
            f64::MAX,
            f64::INFINITY,
        ];
        Checker::new("total_key_orders_like_total_cmp").run(|g| {
            let draw = |g: &mut faas_testkit::Gen| {
                let v = f64::from_bits(g.u64(0..u64::MAX));
                if g.bool(0.3) || v.is_nan() {
                    *g.choose(&EDGES)
                } else {
                    v
                }
            };
            let (a, b) = (draw(g), draw(g));
            assert_eq!(
                total_key(a).cmp(&total_key(b)),
                a.total_cmp(&b),
                "{a:e} vs {b:e}"
            );
            assert_eq!(from_total_key(total_key(a)).to_bits(), a.to_bits());
        });
    }

    #[test]
    #[should_panic(expected = "priorities must not be NaN")]
    fn round_heap_rejects_nan() {
        RoundHeap::default().refill([(1.0, 0u64), (f64::NAN, 1)]);
    }

    /// Rounds of random candidates on one reused heap, each cut short
    /// after 0, 1 or 2 pops, after the last linear pop or the first heap
    /// pop, or after every pop by the next refill: whatever the round
    /// popped is the prefix of the `(total_cmp, id)` sort. Priorities
    /// repeat often and include both zeros, so ties fall to the id and
    /// `-0.0` must pop before `0.0`; ids come in random order.
    #[test]
    fn round_heap_matches_reference_sort() {
        const PRIORITIES: [f64; 6] = [-0.0, 0.0, 1.0, -1.0, 2.5, f64::INFINITY];
        Checker::new("round_heap_matches_reference_sort").run(|g| {
            let mut heap = RoundHeap::default();
            for _ in 0..g.u32(1..6) {
                let n = g.usize(0..40);
                let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 8 + g.u64(0..8)).collect();
                for i in (1..n).rev() {
                    ids.swap(i, g.usize(0..i + 1));
                }
                let entries: Vec<(f64, u64)> = ids
                    .into_iter()
                    .map(|c| {
                        let p = if g.bool(0.7) {
                            *g.choose(&PRIORITIES)
                        } else {
                            g.f64(-10.0..10.0)
                        };
                        (p, c)
                    })
                    .collect();
                let mut want = entries.clone();
                want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                heap.refill(entries);
                let linear = LINEAR_POPS as usize;
                let pops = (*g.choose(&[0, 1, 2, linear, linear + 1, n + 1])).min(n + 1);
                let bits = |v: Option<(f64, u64)>| v.map(|(p, c)| (p.to_bits(), c));
                for k in 0..pops {
                    assert_eq!(heap.len(), n - k);
                    let got = heap.pop();
                    assert_eq!(bits(got), bits(want.get(k).copied()), "pop {k} of {n}");
                }
            }
        });
    }
}
