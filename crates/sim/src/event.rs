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
    /// cold-start latency.
    ProvisionFailed(ContainerId),
    /// A failed provision's backoff expires; retry attempt number
    /// (1-based) for the function, preserving speculativeness.
    RetryProvision(FunctionId, u32, bool),
    /// A worker crashes (fault injection), evicting its containers.
    WorkerDown(WorkerId),
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
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
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
}

/// A heap entry. `(at, seq)` is unique — `seq` counts pushes — so it
/// alone orders entries and the event rides along uncompared.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: TimePoint,
    seq: u64,
    event: Event,
}

impl Scheduled {
    fn key(&self) -> (TimePoint, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    pub fn push(&mut self, at: TimePoint, event: Event) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Reverse(Scheduled { at, seq, event }));
    }

    /// Removes and returns the earliest event, FIFO within a timestamp.
    pub fn pop(&mut self) -> Option<(TimePoint, Event)> {
        self.heap.pop().map(|Reverse(s)| (s.at, s.event))
    }

    /// Timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<TimePoint> {
        self.heap.peek().map(|Reverse(s)| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
