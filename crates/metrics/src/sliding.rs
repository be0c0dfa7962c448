//! Time-based sliding window over scalar observations.

use std::collections::VecDeque;

use crate::percentile::percentile_of_sorted;

/// A sliding window of `(timestamp, value)` observations supporting
/// percentile and mean queries over the last `window` time units.
///
/// This is the bookkeeping structure behind CIDRE's conditional
/// speculative scaling: the paper collects `Ti`, `Te`, `Tp`, and `Td`
/// "using a 15-minute sliding window, whose size is configurable" (§3.2),
/// and evaluates window sizes of 5/10/15 minutes and unbounded history
/// (Fig. 18). An unbounded window (`None`) keeps all history.
///
/// Timestamps are opaque `u64` time units and are expected in
/// non-decreasing order; an out-of-order timestamp is clamped to the
/// last-seen one (see [`SlidingWindow::record`]).
///
/// # Examples
///
/// ```
/// use faas_metrics::SlidingWindow;
///
/// let mut w = SlidingWindow::new(Some(100));
/// w.record(0, 10.0);
/// w.record(50, 20.0);
/// w.record(120, 30.0);
/// // At t=140, the observation at t=0 has aged out of the 100-unit window.
/// assert_eq!(w.median(140), Some(25.0));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    window: Option<u64>,
    entries: VecDeque<(u64, f64)>,
    /// The order statistic `percentile` reads: ascending in
    /// `f64::total_cmp` order, the values of `entries` without its last
    /// `unmirrored` ones, plus those of `stale`. `record` and `expire`
    /// never touch it, so a window that is never queried pays nothing; a
    /// query brings it up to date first.
    sorted: Vec<f64>,
    /// How many entries at the back of `entries` are not in `sorted` yet.
    unmirrored: usize,
    /// Values that have expired from `entries` but are still in `sorted`
    /// (so never more than the last query left there).
    stale: Vec<f64>,
}

/// Two windows are equal when they retain the same observations over the
/// same span; how far the sorted mirror has caught up is not observable.
impl PartialEq for SlidingWindow {
    fn eq(&self, other: &Self) -> bool {
        self.window == other.window && self.entries == other.entries
    }
}

/// A query rebuilds the mirror with one sort, rather than patching it
/// value by value, when the recorded and expired values it has not seen
/// number more than one in `REBUILD_DIVISOR` of the retained entries.
/// Measured from 64 to 16 384 entries, an eighth is never more than twice
/// as slow as the better of the two; a quarter and a sixteenth each reach
/// four times at one end of that range.
const REBUILD_DIVISOR: usize = 8;

impl SlidingWindow {
    /// Creates a window spanning `window` time units, or unbounded history
    /// when `None`.
    pub fn new(window: Option<u64>) -> Self {
        Self {
            window,
            entries: VecDeque::new(),
            sorted: Vec::new(),
            unmirrored: 0,
            stale: Vec::new(),
        }
    }

    /// The configured window span, or `None` when unbounded.
    pub fn span(&self) -> Option<u64> {
        self.window
    }

    /// Records an observation at time `now`.
    ///
    /// Timestamps are expected to be non-decreasing, but wall-clock
    /// callers (e.g. `faas-live`, where scheduler jitter can deliver two
    /// callbacks in the opposite order of their timestamps) may observe
    /// small regressions. An out-of-order `now` is clamped to the most
    /// recently recorded timestamp: the observation is kept (its value
    /// still counts toward the window statistics) and is treated as
    /// having arrived at the clamped time for expiry purposes, so the
    /// window's time axis stays monotone.
    pub fn record(&mut self, now: u64, value: f64) {
        let now = match self.entries.back() {
            Some(&(last, _)) => now.max(last),
            None => now,
        };
        self.entries.push_back((now, value));
        self.unmirrored += 1;
        self.expire(now);
    }

    /// Drops observations that are outside the window as of `now`.
    pub fn expire(&mut self, now: u64) {
        if let Some(w) = self.window {
            let cutoff = now.saturating_sub(w);
            while let Some(&(t, v)) = self.entries.front() {
                if t >= cutoff {
                    break;
                }
                if self.unmirrored < self.entries.len() {
                    self.stale.push(v);
                } else {
                    self.unmirrored -= 1;
                }
                self.entries.pop_front();
            }
        }
    }

    /// Number of observations currently in the window (as of the last
    /// `record`/`expire` call).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window currently holds no observations.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `p`-th percentile (0–100) of values inside the window as of
    /// `now`, or `None` if the window is empty.
    ///
    /// Costs a binary search and one shift of the sorted mirror per entry
    /// recorded or expired since the last query, and allocates only when
    /// the window outgrows its high-water mark; there is no sort per
    /// query. The result is bit-identical to [`crate::percentile`] over
    /// the retained values.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` or a retained value is NaN.
    pub fn percentile(&mut self, now: u64, p: f64) -> Option<f64> {
        self.expire(now);
        if self.entries.is_empty() {
            return None;
        }
        // `p` before the values, the order `crate::percentile` checks in.
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
        self.sync_mirror();
        // `total_cmp` puts every NaN below -inf or above +inf.
        assert!(
            !self.sorted[0].is_nan() && !self.sorted[self.sorted.len() - 1].is_nan(),
            "NaN in percentile input"
        );
        Some(percentile_of_sorted(&self.sorted, p))
    }

    /// Brings `sorted` up to date with `entries`.
    fn sync_mirror(&mut self) {
        let len = self.entries.len();
        if (self.unmirrored + self.stale.len()) * REBUILD_DIVISOR > len {
            self.stale.clear();
            self.sorted.clear();
            self.sorted.extend(self.entries.iter().map(|&(_, v)| v));
            // Values equal under `total_cmp` are the same bits, so the
            // unstable sort (which, unlike the stable one, allocates
            // nothing) cannot reorder anything observable.
            self.sorted.sort_unstable_by(f64::total_cmp);
        } else {
            let mut fresh = self.entries.range(len - self.unmirrored..);
            for old in self.stale.drain(..) {
                let at = self
                    .sorted
                    .binary_search_by(|x| x.total_cmp(&old))
                    .expect("the sorted mirror holds every stale value");
                match fresh.next() {
                    Some(&(_, new)) => replace_sorted(&mut self.sorted, at, new),
                    None => {
                        self.sorted.remove(at);
                    }
                }
            }
            for &(_, new) in fresh {
                let at = self.sorted.partition_point(|x| x.total_cmp(&new).is_lt());
                self.sorted.insert(at, new);
            }
        }
        self.unmirrored = 0;
    }

    /// Median of values inside the window as of `now`.
    pub fn median(&mut self, now: u64) -> Option<f64> {
        self.percentile(now, 50.0)
    }

    /// Mean of values inside the window as of `now`.
    pub fn mean(&mut self, now: u64) -> Option<f64> {
        self.expire(now);
        if self.entries.is_empty() {
            return None;
        }
        // Summed front to back on every call: a running sum would add the
        // same values in another order and change the result's low bits.
        Some(self.entries.iter().map(|&(_, v)| v).sum::<f64>() / self.entries.len() as f64)
    }

    /// Most recent observation value, or `None` when empty.
    pub fn last(&self) -> Option<f64> {
        self.entries.back().map(|&(_, v)| v)
    }

    /// Iterates over `(timestamp, value)` pairs currently retained.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.entries.iter().copied()
    }
}

/// Takes `sorted[at]` out and puts `new` in, shifting only the values
/// between the two positions: a third of the slice for an unrelated
/// pair, where a remove followed by an insert shifts all of it.
fn replace_sorted(sorted: &mut [f64], at: usize, new: f64) {
    if new.total_cmp(&sorted[at]).is_lt() {
        let to = sorted[..at].partition_point(|x| x.total_cmp(&new).is_lt());
        sorted.copy_within(to..at, to + 1);
        sorted[to] = new;
    } else {
        let to = at + sorted[at + 1..].partition_point(|x| x.total_cmp(&new).is_lt());
        sorted.copy_within(at + 1..=to, at);
        sorted[to] = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_keeps_everything() {
        let mut w = SlidingWindow::new(None);
        for t in 0..1000u64 {
            w.record(t, t as f64);
        }
        assert_eq!(w.len(), 1000);
        assert_eq!(w.median(10_000), Some(499.5));
    }

    #[test]
    fn bounded_expires_old_entries() {
        let mut w = SlidingWindow::new(Some(10));
        w.record(0, 1.0);
        w.record(5, 2.0);
        w.record(20, 3.0);
        // cutoff at 20-10=10: entries at t=0 and t=5 expire.
        assert_eq!(w.len(), 1);
        assert_eq!(w.last(), Some(3.0));
    }

    #[test]
    fn entry_exactly_at_cutoff_is_retained() {
        let mut w = SlidingWindow::new(Some(10));
        w.record(0, 1.0);
        w.record(10, 2.0);
        assert_eq!(w.len(), 2);
        w.expire(11);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn percentile_queries_expire_first() {
        let mut w = SlidingWindow::new(Some(100));
        w.record(0, 1000.0);
        w.record(50, 10.0);
        // At t=200, only... both expired (cutoff 100): t=0 and t=50 both < 100.
        assert_eq!(w.median(200), None);
    }

    #[test]
    fn mean_over_window() {
        let mut w = SlidingWindow::new(Some(1000));
        w.record(0, 2.0);
        w.record(1, 4.0);
        assert_eq!(w.mean(1), Some(3.0));
    }

    #[test]
    fn out_of_order_record_clamps_to_last_seen() {
        // Wall-clock jitter (faas-live) can deliver callbacks slightly out
        // of order; the value must be kept, stamped at the clamped time.
        let mut w = SlidingWindow::new(None);
        w.record(10, 1.0);
        w.record(5, 2.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.last(), Some(2.0));
        let v: Vec<_> = w.iter().collect();
        assert_eq!(v, vec![(10, 1.0), (10, 2.0)]);
    }

    #[test]
    fn clamped_entry_expires_with_its_clamped_timestamp() {
        let mut w = SlidingWindow::new(Some(10));
        w.record(100, 1.0);
        w.record(95, 2.0); // clamped to t=100
                           // At t=111 the cutoff is 101: both entries (now both at t=100)
                           // expire together rather than the clamped one expiring "early".
        w.expire(110);
        assert_eq!(w.len(), 2);
        w.expire(111);
        assert!(w.is_empty());
    }

    #[test]
    fn iter_yields_pairs() {
        let mut w = SlidingWindow::new(None);
        w.record(1, 10.0);
        w.record(2, 20.0);
        let v: Vec<_> = w.iter().collect();
        assert_eq!(v, vec![(1, 10.0), (2, 20.0)]);
    }
}
