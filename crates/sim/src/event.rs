//! The discrete-event queue driving the simulation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use faas_trace::{FunctionId, TimePoint};

use crate::ids::{ContainerId, RequestId, WorkerId};

/// A simulator event. Ordering at equal timestamps follows insertion
/// order, making runs fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A trace request arrives.
    Arrival(RequestId),
    /// A container finishes provisioning and becomes available.
    ProvisionDone(ContainerId),
    /// One execution slot on a container finishes running a request.
    ExecDone(ContainerId, RequestId),
    /// Periodic policy tick (TTL expiration, prewarming).
    Tick,
    /// A provision fails (fault injection), discovered after the full
    /// cold-start latency; the chain's attempt number (0 for a first
    /// try), which the retry it schedules continues from.
    ProvisionFailed(ContainerId, u32),
    /// A failed provision's backoff expires; retry attempt number
    /// (1-based) for the function, preserving speculativeness.
    RetryProvision(FunctionId, u32, bool),
    /// A worker crashes (fault injection), evicting its containers.
    WorkerDown(WorkerId),
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
///
/// The heap orders bare `u128` keys, `(µs << 64) | (seq << SLOT_BITS) |
/// slot`: one integer whose order is the `(at, seq)` lexicographic order,
/// unique because `seq` counts pushes. The events themselves sit in a
/// slab, at the `slot` their key names, and the slots of popped events
/// are reused, so a sift moves 16 bytes and the slab never holds more
/// slots than the most events ever in flight at once.
///
/// # Examples
///
/// ```
/// use faas_sim::{Event, EventQueue, RequestId};
/// use faas_trace::TimePoint;
///
/// let mut q = EventQueue::new();
/// q.push(TimePoint::from_millis(5), Event::Arrival(RequestId(1)));
/// q.push(TimePoint::from_millis(1), Event::Tick);
/// assert_eq!(q.pop(), Some((TimePoint::from_millis(1), Event::Tick)));
/// ```
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<u128>>,
    slab: Vec<Event>,
    free: Vec<usize>,
    seq: u64,
}

/// Bits of a key's low half that name the event's slab slot; the rest
/// hold its push number. A queue holds at most 2^24 events at once and
/// takes fewer than 2^40 pushes over its life; `push` asserts both.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics on the 2^40-th push, or when more than 2^24 events would
    /// be in flight.
    pub fn push(&mut self, at: TimePoint, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = event;
                slot
            }
            None => {
                self.slab.push(event);
                self.slab.len() - 1
            }
        };
        self.seq += 1;
        assert!(
            self.seq >> (64 - SLOT_BITS) == 0,
            "event queue: push number {} needs more than {} bits",
            self.seq,
            64 - SLOT_BITS
        );
        assert!(
            slot >> SLOT_BITS == 0,
            "event queue: {} events in flight need more than {SLOT_BITS} slot bits",
            slot + 1
        );
        let low = (self.seq << SLOT_BITS) | slot as u64;
        let key = (u128::from(at.as_micros()) << 64) | u128::from(low);
        self.heap.push(Reverse(key));
    }

    /// Removes and returns the earliest event, FIFO within a timestamp.
    pub fn pop(&mut self) -> Option<(TimePoint, Event)> {
        let Reverse(key) = self.heap.pop()?;
        let slot = (key & SLOT_MASK) as usize;
        self.free.push(slot);
        Some((Self::at(key), self.slab[slot]))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.heap.peek().map(|&Reverse(key)| Self::at(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn at(key: u128) -> TimePoint {
        TimePoint::from_micros((key >> 64) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> TimePoint {
        TimePoint::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), Event::Tick);
        q.push(t(1), Event::Arrival(RequestId(0)));
        q.push(t(2), Event::ProvisionDone(ContainerId(0)));
        assert_eq!(q.pop().map(|(x, _)| x), Some(t(1)));
        assert_eq!(q.pop().map(|(x, _)| x), Some(t(2)));
        assert_eq!(q.pop().map(|(x, _)| x), Some(t(3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        q.push(t(5), Event::Arrival(RequestId(10)));
        q.push(t(5), Event::Arrival(RequestId(2)));
        q.push(t(5), Event::Arrival(RequestId(7)));
        let order: Vec<Event> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![
                Event::Arrival(RequestId(10)),
                Event::Arrival(RequestId(2)),
                Event::Arrival(RequestId(7)),
            ]
        );
    }

    /// The queue against its definition: a stable sort by `at` over the
    /// pushes, i.e. `(at, push order)`, under random interleaved pushes
    /// and pops. Timestamps come from a handful of values — so many are
    /// equal — that include 0 and `u64::MAX` µs, the extremes of the
    /// key's high half.
    #[test]
    fn pops_match_a_stable_sort_by_time() {
        faas_testkit::Checker::new("event_queue_matches_stable_sort").run(|g| {
            let times = [0, 1, 2, 1 << 32, u64::MAX - 1, u64::MAX];
            let mut q = EventQueue::new();
            let mut model: Vec<(u64, u64)> = Vec::new();
            for n in 0..g.u64(0..200) {
                if g.bool(0.6) {
                    let at = *g.choose(&times);
                    q.push(TimePoint::from_micros(at), Event::Arrival(RequestId(n)));
                    model.push((at, n));
                } else {
                    // Pushes are numbered in order, so the minimum of
                    // (at, number) is the stable sort's front.
                    let want = model.iter().copied().min().map(|front| {
                        model.retain(|&e| e != front);
                        (
                            TimePoint::from_micros(front.0),
                            Event::Arrival(RequestId(front.1)),
                        )
                    });
                    assert_eq!(q.peek_time(), want.map(|(at, _)| at));
                    assert_eq!(q.pop(), want);
                }
                assert_eq!(q.len(), model.len());
            }
            model.sort_by_key(|&(at, _)| at);
            let rest: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            let want: Vec<_> = model
                .iter()
                .map(|&(at, n)| (TimePoint::from_micros(at), Event::Arrival(RequestId(n))))
                .collect();
            assert_eq!(rest, want);
        });
    }

    /// Popped slots are reused: over random interleaved pushes and pops,
    /// the slab never holds more slots than the most events that were
    /// in flight at once.
    #[test]
    fn the_slab_holds_no_more_slots_than_the_peak_in_flight() {
        faas_testkit::Checker::new("event_queue_slab_peak").run(|g| {
            let mut q = EventQueue::new();
            let mut peak = 0;
            for n in 0..g.u64(0..300) {
                if g.bool(0.55) {
                    let at = TimePoint::from_micros(g.u64(0..50));
                    q.push(at, Event::Arrival(RequestId(n)));
                } else {
                    q.pop();
                }
                peak = peak.max(q.len());
                assert_eq!(q.slab.len(), peak);
                assert_eq!(q.slab.len() - q.free.len(), q.len());
            }
        });
    }

    #[test]
    fn len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(t(9), Event::Tick);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(t(9)));
        // Peek does not consume.
        assert_eq!(q.len(), 1);
    }
}
