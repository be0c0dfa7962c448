//! The deadline heap of the async executor's reactor ([`crate::exec`])
//! and of the host's own timers ([`crate::mailbox`]).
//!
//! A [`DeadlineHeap`] orders entries by wall-clock deadline and breaks
//! ties by **insertion order** via a monotonically increasing sequence
//! number. Simultaneous deadlines therefore fire deterministically —
//! first scheduled, first fired — instead of in whatever order the
//! binary heap happens to surface them.

use std::collections::BinaryHeap;
use std::time::Instant;

/// A scheduled entry: surface `payload` once `deadline` has passed.
struct Entry<T> {
    deadline: Instant,
    /// Insertion sequence; the deterministic tie-break for equal
    /// deadlines.
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse on both keys: BinaryHeap is a max-heap and we want the
        // earliest deadline first, oldest insertion first within a tie.
        other
            .deadline
            .cmp(&self.deadline)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Min-heap of `(deadline, payload)` entries with deterministic
/// insertion-order tie-breaking. See the [module docs](self).
pub(crate) struct DeadlineHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> DeadlineHeap<T> {
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at `deadline`. Entries pushed with identical
    /// deadlines pop in push order.
    pub(crate) fn push(&mut self, deadline: Instant, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            deadline,
            seq,
            payload,
        });
    }

    /// Pops the earliest entry if its deadline is at or before `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<T> {
        if self.heap.peek().map(|e| e.deadline <= now).unwrap_or(false) {
            self.heap.pop().map(|e| e.payload)
        } else {
            None
        }
    }

    /// The earliest pending deadline, if any.
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        self.heap.peek().map(|e| e.deadline)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn equal_deadlines_pop_in_insertion_order() {
        let mut h = DeadlineHeap::new();
        let t = Instant::now();
        for i in 0..64u32 {
            h.push(t, i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| h.pop_due(t)).collect();
        assert_eq!(popped, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_duration_entries_are_due_immediately() {
        let mut h = DeadlineHeap::new();
        let t = Instant::now();
        h.push(t + Duration::ZERO, "a");
        h.push(t, "b");
        assert_eq!(h.pop_due(t), Some("a"));
        assert_eq!(h.pop_due(t), Some("b"));
        assert_eq!(h.pop_due(t), None);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn interleaved_deadlines_order_by_time_then_sequence() {
        let mut h = DeadlineHeap::new();
        let t = Instant::now();
        let late = t + Duration::from_millis(10);
        h.push(late, 3u8);
        h.push(t, 1);
        h.push(late, 4);
        h.push(t, 2);
        let all: Vec<u8> = std::iter::from_fn(|| h.pop_due(late)).collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn nothing_due_before_deadline() {
        let mut h = DeadlineHeap::new();
        let t = Instant::now();
        h.push(t + Duration::from_secs(60), ());
        assert_eq!(h.pop_due(t), None);
        assert_eq!(h.len(), 1);
        assert_eq!(h.next_deadline(), Some(t + Duration::from_secs(60)));
    }
}
